"""Tests for grids, trajectories, and direct application of the discrete operator."""

import math

import numpy as np
import pytest

from fracstep import (
    ALL_SCHEMES,
    GridSpec,
    SchemeId,
    Trajectory,
    apply_discrete_caputo,
    caputo_monomial,
    weight_table,
)
from fracstep.operator import compensated_cdot


def test_gridspec_basics():
    g = GridSpec(T=2.0, M=8)
    assert g.dt == 0.25
    assert np.allclose(g.times(), 0.25 * np.arange(9))
    with pytest.raises(ValueError):
        GridSpec(T=0.0, M=4)
    with pytest.raises(ValueError):
        GridSpec(T=1.0, M=0)
    with pytest.raises(ValueError):
        GridSpec(T=1.0, M=True)
    with pytest.raises(ValueError):
        GridSpec(T=True, M=4)


def test_trajectory_validation():
    g = GridSpec(T=1.0, M=4)
    tr = Trajectory(grid=g, values=np.arange(5.0))
    assert tr.values.dtype == complex
    assert not tr.values.flags.writeable
    with pytest.raises(ValueError):
        Trajectory(grid=g, values=np.arange(4.0))
    with pytest.raises(ValueError):
        Trajectory(grid=g, values=np.array([0, 1, np.nan, 3, 4]))
    bad = np.array([0, 1, np.inf, 3, 4], dtype=complex)
    tr2 = Trajectory(grid=g, values=bad, validate=False)
    assert not np.isfinite(tr2.values[2].real)


def test_constants_are_annihilated():
    g = GridSpec(T=1.0, M=12)
    tr = Trajectory(grid=g, values=np.full(13, 2.7 - 1.3j))
    for s in ALL_SCHEMES:
        tab = weight_table(s, 0.45, 12)
        for n in (s.k, 7, 12):
            assert abs(apply_discrete_caputo(tab, tr, n)) < 1e-12, (s.label, n)


def test_linear_input_frozen_value():
    # u = t, degree-1 scheme, dt = 0.1, alpha = 0.5, n = 4: the operator is
    # exact on degree <= k, so this equals Gamma(2)/Gamma(1.5) * 0.4^0.5.
    g = GridSpec(T=1.0, M=10)
    tr = Trajectory(grid=g, values=g.times().astype(complex))
    tab = weight_table(SchemeId(1, 1), 0.5, 10)
    got = apply_discrete_caputo(tab, tr, 4)
    assert got.real == pytest.approx(0.7136496464611084, rel=1e-13)
    assert abs(got.imag) < 1e-15


def test_cubic_input_frozen_value():
    g = GridSpec(T=1.0, M=4)
    tr = Trajectory(grid=g, values=(g.times() ** 3).astype(complex))
    tab = weight_table(SchemeId(3, 3), 0.5, 4)
    got = apply_discrete_caputo(tab, tr, 3)
    assert got.real == pytest.approx(0.8794845214252557, rel=1e-12)


def test_polynomial_exactness_up_to_design_degree():
    # Offset i = k interpolates with degree k everywhere, so the operator hits
    # the analytic Caputo value for every input of degree <= k.  Offset i < k
    # drops to degree k-1 on the first k-i subintervals, so only degree <= k-1
    # survives exactly there.
    g = GridSpec(T=1.0, M=24)
    ts = g.times()
    for s in ALL_SCHEMES:
        exact_deg = s.k if s.i == s.k else s.k - 1
        for alpha in (0.2, 0.6):
            tab = weight_table(s, alpha, 24)
            for deg in range(exact_deg + 1):
                tr = Trajectory(grid=g, values=(ts ** deg).astype(complex))
                for n in range(s.k, 25):
                    ref = caputo_monomial(deg, alpha, ts[n])
                    got = apply_discrete_caputo(tab, tr, n)
                    assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (s.label, deg, n)


def test_degree_k_deficit_for_low_offset_decays():
    # For i < k the degree-(k-1) opening pieces leave a nonzero residual on
    # t^k that fades like t_n^(-alpha-1) away from the origin.
    g = GridSpec(T=1.0, M=24)
    ts = g.times()
    alpha = 0.2
    tab = weight_table(SchemeId(2, 1), alpha, 24)
    tr = Trajectory(grid=g, values=(ts ** 2).astype(complex))

    def deviation(n):
        return abs(apply_discrete_caputo(tab, tr, n) - caputo_monomial(2, alpha, ts[n]))

    assert deviation(2) > 1e-6
    assert deviation(24) < 0.2 * deviation(2)


def test_operator_index_and_table_bounds():
    g = GridSpec(T=1.0, M=6)
    tr = Trajectory(grid=g, values=np.ones(7))
    tab = weight_table(SchemeId(2, 1), 0.5, 4)
    with pytest.raises(ValueError):
        apply_discrete_caputo(tab, tr, 1)   # below k
    with pytest.raises(ValueError):
        apply_discrete_caputo(tab, tr, 7)   # beyond grid
    with pytest.raises(ValueError):
        apply_discrete_caputo(tab, tr, 6)   # table too short
    with pytest.raises(ValueError):
        apply_discrete_caputo(weight_table(SchemeId(1, 1), 0.5, 6), tr, True)   # k = 1 <= True


def test_compensated_cdot_matches_dot():
    rng = np.random.default_rng(7)
    w = rng.standard_normal(300)
    u = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    got = compensated_cdot(w, u)
    assert got == pytest.approx(complex(np.dot(w, u)), rel=1e-13)
    got_real = compensated_cdot(w, np.abs(u))
    assert got_real.imag == 0.0


def test_caputo_monomial_values():
    assert caputo_monomial(0, 0.5, 0.7) == 0.0
    assert caputo_monomial(1, 0.5, 0.0) == 0.0
    ref = math.gamma(4.0) / math.gamma(3.5) * 0.5 ** 2.5
    assert caputo_monomial(3, 0.5, 0.5) == pytest.approx(ref, rel=1e-15)
    with pytest.raises(ValueError):
        caputo_monomial(-1, 0.5, 0.5)
    with pytest.raises(ValueError):
        caputo_monomial(2, 1.5, 0.5)
    with pytest.raises(ValueError):
        caputo_monomial(True, 0.5, 1.0)
    for t in (math.nan, math.inf, -1.0, "1"):
        with pytest.raises(ValueError):
            caputo_monomial(1, 0.5, t)
    assert caputo_monomial(49, 0.5, 1.0) == math.gamma(50.0) / math.gamma(49.5)
    with pytest.raises(ValueError, match="m <= 49"):
        caputo_monomial(50, 0.5, 1.0)
