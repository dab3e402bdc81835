"""Tests for the quadrature oracle and the piecewise interpolants behind it."""

import math
import subprocess
import sys

import numpy as np
import pytest

from fracstep import (
    ALL_SCHEMES,
    GridSpec,
    SchemeId,
    Trajectory,
    apply_discrete_caputo,
    build_interpolant,
    caputo_monomial,
    oracle_discrete_caputo,
    piece_layout,
    weight_table,
)
from fracstep.oracle import lagrange_piece_eval


def _newton_piece_eval(samples, j, q, k, s):
    """The piece p_{j,q} in Newton form: sum_r C(s-q+r-1, r) nabla^r u_{j+q-1}."""
    top = j + q - 1
    total = 0.0 + 0.0j
    for r in range(k + 1):
        diff = 0.0 + 0.0j
        for l in range(r + 1):
            diff += (-1.0) ** l * math.comb(r, l) * complex(samples[top - l])
        x = s - q + r - 1.0
        basis = 1.0
        for l in range(r):
            basis *= (x - l) / (r - l)
        total += basis * diff
    return total


def _random_samples(rng, n):
    return rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)


def test_piece_layout_shapes():
    # head pieces of degree k-1 on the first k-i subintervals, then offset-i
    # interior pieces, then narrowing tail offsets
    layout = piece_layout(3, 1, 8)
    assert layout[:2] == [(2, 2), (1, 2)]
    assert all(piece == (1, 3) for piece in layout[2:])
    layout = piece_layout(3, 3, 8)
    assert layout[:6] == [(3, 3)] * 6
    assert layout[6:] == [(2, 3), (1, 3)]
    layout = piece_layout(2, 2, 4)
    assert layout == [(2, 2), (2, 2), (2, 2), (1, 2)]
    # the auxiliary wide-head variant used only as an interpolant
    layout = piece_layout(2, 3, 4)
    assert layout == [(2, 2), (1, 2), (1, 2), (1, 2)]
    with pytest.raises(ValueError):
        piece_layout(2, 3, 1)
    with pytest.raises(ValueError):
        piece_layout(3, 2, 2)
    with pytest.raises(ValueError):
        piece_layout(4, 1, 8)


def test_lagrange_and_newton_forms_agree():
    rng = np.random.default_rng(11)
    samples = _random_samples(rng, 12)
    for k in (1, 2, 3):
        for q in range(1, k + 1):
            for j in (k, 5, 9):
                for s in (0.0, 0.3, 1.0):
                    a = lagrange_piece_eval(samples, j, q, k, s)
                    b = _newton_piece_eval(samples, j, q, k, s)
                    assert abs(a - b) < 1e-12 * (1.0 + abs(a)), (k, q, j, s)


def test_interpolant_reproduces_samples_and_is_continuous():
    rng = np.random.default_rng(3)
    g = GridSpec(T=1.0, M=10)
    samples = _random_samples(rng, 10)
    for s in list(ALL_SCHEMES) + [(2, 3)]:
        n = 9
        itp = build_interpolant(s, g, samples, n)
        # node reproduction: P(t_j) = u_j on every subinterval boundary
        for j in range(1, n + 1):
            assert abs(itp.value(j, 1.0) - samples[j]) < 1e-11
            assert abs(itp.value(j, 0.0) - samples[j - 1]) < 1e-11
        # continuity across interior knots
        for j in range(1, n):
            left = itp.value(j, 1.0)
            right = itp.value(j + 1, 0.0)
            assert abs(left - right) < 1e-11, (s, j)


def test_oracle_matches_analytic_caputo_on_monomials():
    # degrees up to the design degree: k for i = k, k-1 for the low offsets
    # (whose opening pieces interpolate with degree k-1 only)
    g = GridSpec(T=1.0, M=8)
    ts = g.times()
    for s in ALL_SCHEMES:
        exact_deg = s.k if s.i == s.k else s.k - 1
        for deg in range(exact_deg + 1):
            samples = (ts ** deg).astype(complex)
            for n in (s.k, 6, 8):
                itp = build_interpolant(s, g, samples, n)
                got = oracle_discrete_caputo(itp, 0.5)
                ref = caputo_monomial(deg, 0.5, ts[n])
                assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (s.label, deg, n)


def test_oracle_agrees_with_weight_route():
    # the two independent evaluation routes of the same definition
    rng = np.random.default_rng(23)
    g = GridSpec(T=1.0, M=16)
    dt_penalty = g.dt ** -0.7
    for s in ALL_SCHEMES:
        samples = _random_samples(rng, 16)
        tr = Trajectory(grid=g, values=samples)
        for alpha in (0.3, 0.7):
            tab = weight_table(s, alpha, 16)
            for n in (s.k, 9, 16):
                direct = apply_discrete_caputo(tab, tr, n)
                itp = build_interpolant(s, g, samples, n)
                orac = oracle_discrete_caputo(itp, alpha)
                assert abs(direct - orac) <= 1e-9 * dt_penalty, (s.label, alpha, n)


def test_oracle_argument_validation():
    g = GridSpec(T=1.0, M=6)
    itp = build_interpolant(SchemeId(2, 1), g, np.ones(7), 5)
    with pytest.raises(ValueError):
        oracle_discrete_caputo(itp, 1.2)
    with pytest.raises(ValueError):
        build_interpolant(SchemeId(2, 1), g, np.ones(3), 5)
    with pytest.raises(ValueError):
        build_interpolant(SchemeId(2, 1), g, np.ones(7), 2.7)


def test_package_import_defers_scipy(child_env):
    # The oracle's Gauss-Jacobi rule is the only scipy user; it imports on first use.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fracstep; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_interpolant_builds_its_layout_once():
    # value and derivative read the layout on every call, so it is built once
    # for the oracle to stay linear in n
    itp = build_interpolant((3, 2), GridSpec(T=1.0, M=16), np.ones(17), 16)
    assert itp.layout is itp.layout
    assert itp.layout == piece_layout(3, 2, 16)
