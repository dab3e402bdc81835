"""Tests for the scheme weight tables: closed forms, consistency, limits."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fracstep import (
    ALL_SCHEMES,
    GridSpec,
    SchemeId,
    Trajectory,
    WeightConsistencyError,
    apply_discrete_caputo,
    build_interpolant,
    oracle_discrete_caputo,
    weight_table,
)
from fracstep import kernel, weights

ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)


def test_scheme_id_validation():
    assert SchemeId(2, 1).label == "(2,1)"
    assert len(ALL_SCHEMES) == 6
    for bad in ((0, 1), (1, 2), (4, 1), (3, 4)):
        with pytest.raises(ValueError):
            SchemeId(*bad)
    with pytest.raises(ValueError):
        SchemeId(1.0, 1)
    with pytest.raises(ValueError):
        SchemeId(True, 1)


def test_degree_one_closed_form():
    # omega_n = ((n+1)^(1-a) - 2 n^(1-a) + (n-1)^(1-a)) / Gamma(2-a) for n >= 1,
    # omega_0 = 1 / Gamma(2-a): the classical first-order weights.
    for alpha in ALPHAS:
        omega = weight_table(SchemeId(1, 1), alpha, 64).omega
        g = math.gamma(2.0 - alpha)
        assert omega[0] == pytest.approx(1.0 / g, rel=1e-14)
        for n in range(1, 65):
            ref = ((n + 1.0) ** (1 - alpha) - 2.0 * n ** (1 - alpha)
                   + (n - 1.0) ** (1 - alpha)) / g
            # the reference second difference cancels ~4 digits at large n
            assert omega[n] == pytest.approx(ref, rel=1e-11, abs=1e-15), (alpha, n)
        # starting weight w_{m,0} = -I_m closes the rows
        for m in (1, 2, 17, 64):
            w = weight_table(SchemeId(1, 1), alpha, m).starting_row(m)
            ref = -((m + 1.0) ** (1 - alpha) - m ** (1 - alpha)) / g
            assert w[0] == pytest.approx(ref, rel=1e-12)


def test_rows_sum_to_zero():
    for s in ALL_SCHEMES:
        for alpha in ALPHAS:
            tab = weight_table(s, alpha, 128)
            partial = np.cumsum(tab.omega)
            for n in range(s.k, 129):
                residual = partial[n] + sum(tab.starting[n])
                assert abs(residual) <= 1e-12, (s.label, alpha, n)


def test_omega0_positive():
    # omega_0 > 0 makes every implicit step solvable; the later weights are
    # not dominated by it for k = 3 (the alpha -> 1 limit is BDF-like, where
    # |omega_1| exceeds omega_0), so only positivity is structural.
    for s in ALL_SCHEMES:
        for alpha in ALPHAS:
            omega = weight_table(s, alpha, 32).omega
            assert omega[0] > 0.0


def test_partial_sums_positive_decreasing():
    # omega(xi) = (1-xi)^alpha psi(xi) with psi(1) = 1 forces the partial sums
    # (phi coefficients) to decay like n^(-alpha) while staying positive.
    for s in ALL_SCHEMES:
        phi = np.cumsum(weight_table(s, 0.5, 6000).omega)
        tail = phi[100:]
        assert tail.min() > 0.0
        assert np.all(np.diff(tail) <= 1e-15)
        assert phi[-1] < 1e-2


def test_limit_alpha_near_one_is_bdf():
    # as alpha -> 1 the degree-1 scheme collapses to backward Euler
    omega = weight_table(SchemeId(1, 1), 0.999, 8).omega
    assert omega[0] == pytest.approx(1.0, abs=5e-3)
    assert omega[1] == pytest.approx(-1.0, abs=5e-3)
    assert np.abs(omega[2:]).max() < 5e-3


def test_tables_match_oracle_at_long_range():
    # The whole row at n = 200, starting columns included: a random sample
    # vector, and a unit sample on u_0, which only omega_n and w_{n,0} see.
    M = 200
    g = GridSpec(T=1.0, M=M)
    rng = np.random.default_rng(5)
    random = rng.standard_normal(M + 1) + 1j * rng.standard_normal(M + 1)
    unit = np.zeros(M + 1, dtype=complex)
    unit[0] = 1.0
    for s in ALL_SCHEMES:
        for alpha in (0.3, 0.7):
            tab = weight_table(s, alpha, M)
            budget = 1e-8 * g.dt ** -alpha
            for samples in (random, unit):
                direct = apply_discrete_caputo(tab, Trajectory(grid=g, values=samples), M)
                orac = oracle_discrete_caputo(build_interpolant(s, g, samples, M), alpha)
                assert abs(direct - orac) <= budget, (s.label, alpha, abs(direct - orac))


def test_weight_table_cache_returns_same_object():
    a = weight_table(SchemeId(2, 2), 0.5, 100)
    b = weight_table((2, 2), 0.5, 100)
    assert a is b
    assert not a.omega.flags.writeable


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
def test_weight_table_is_prefix_of_longer_table(scheme):
    # a table up to n holds the first rows of any longer table, bit for bit
    for alpha in (0.05, 0.3, 0.5, 0.7, 0.95):
        long = weight_table(scheme, alpha, 2000)
        for n in (scheme.k, 5, 17, 300, 1999):
            tab = weight_table(scheme, alpha, n)
            assert np.array_equal(tab.omega, long.omega[: n + 1]), (alpha, n)
            assert np.array_equal(tab.starting, long.starting[: n + 1]), (alpha, n)


def _clear_caches():
    kernel._moment_batch.cache_clear()
    weights._build.cache_clear()


def test_tables_do_not_depend_on_build_order():
    # the moment cache serves slices and extensions; no order may change a bit
    alphas, lengths = (0.05, 0.3, 0.5, 0.7, 0.95), (3, 40, 2000)
    jobs = [(s, a, n) for s in ALL_SCHEMES for a in alphas for n in lengths]
    cold = {}
    for s, a, n in jobs:
        _clear_caches()
        cold[s, a, n] = weight_table(s, a, n)
    for order in (sorted(jobs, key=lambda j: j[2]), sorted(jobs, key=lambda j: -j[2])):
        _clear_caches()
        for s, a, n in order:
            t = weight_table(s, a, n)
            assert np.array_equal(t.omega, cold[s, a, n].omega), (s.label, a, n)
            assert np.array_equal(t.starting, cold[s, a, n].starting), (s.label, a, n)


def test_concurrent_builds_match_serial():
    alpha = 0.37
    jobs = [(s, n) for n in (2500, 40, 6000, 7, 1200) for s in ALL_SCHEMES]
    _clear_caches()
    serial = [weight_table(s, alpha, n) for s, n in jobs]
    _clear_caches()
    with ThreadPoolExecutor(max_workers=4) as pool:
        tables = list(pool.map(lambda job: weight_table(job[0], alpha, job[1]), jobs))
    for (s, n), t, ref in zip(jobs, tables, serial):
        assert np.array_equal(t.omega, ref.omega), (s.label, n)
        assert np.array_equal(t.starting, ref.starting), (s.label, n)
    J = kernel._moment_batch(alpha)[0]   # the published moments are whole and untouched
    assert not J.flags.writeable
    assert J.shape[1] >= 6001
    assert np.array_equal(J[:, 1:], kernel._moments_gauss(alpha, np.arange(1, J.shape[1])))


def test_starting_row_accessor_bounds():
    tab = weight_table(SchemeId(3, 1), 0.4, 16)
    assert len(tab.starting_row(3)) == 3
    with pytest.raises(ValueError):
        tab.starting_row(2)
    with pytest.raises(ValueError):
        tab.starting_row(17)
    with pytest.raises(ValueError):
        weight_table(SchemeId(2, 1), 0.4, 1).starting_row(1)
    with pytest.raises(ValueError):
        tab.starting_row(3.5)
    with pytest.raises(ValueError):
        weight_table(SchemeId(1, 1), 0.4, 4).starting_row(True)


def test_degenerate_table_lengths():
    tab = weight_table(SchemeId(3, 3), 0.5, 0)
    assert tab.omega.shape == (1,)
    assert tab.n_max == 0
    tab2 = weight_table(SchemeId(2, 1), 0.5, 1)
    assert tab2.omega.shape == (2,)


def test_weight_table_argument_validation():
    with pytest.raises(ValueError):
        weight_table(SchemeId(1, 1), 1.0, 4)
    with pytest.raises(ValueError):
        weight_table(SchemeId(1, 1), 0.5, -1)
    with pytest.raises(ValueError):
        weight_table(SchemeId(1, 1), 0.5, True)
    for bad in ("nonsense", (1.5, 1), (1,), (True, 1)):
        with pytest.raises(ValueError):
            weight_table(bad, 0.5, 4)


def test_consistency_error_type_exists():
    assert issubclass(WeightConsistencyError, RuntimeError)
