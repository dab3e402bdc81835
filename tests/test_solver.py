"""Tests for the implicit fractional-step solver."""

import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest

from fracstep import (
    GridSpec,
    NewtonConfig,
    NewtonDivergedError,
    PivotBreakdownError,
    ProblemSpec,
    SchemeId,
    linear_complex,
    mlf_decay,
    nonlinear_square,
    solve,
    weight_table,
)
from fracstep.harness import fit_order
from fracstep.operator import apply_discrete_caputo, compensated_cdot
from fracstep.solver import _DENSE_ROWS, _LEAF, _LINEAR_LEAF, _newton_step, bootstrap_starts


def test_quadratic_scheme_reference_cell():
    # Mittag-Leffler decay, alpha = 0.5, quadratic scheme, 40 steps on [0, 1].
    report = solve(mlf_decay(0.5), (2, 2), GridSpec(T=1.0, M=40))
    assert abs(report.final_error - 5.76449e-04) <= 1e-4 * 5.76449e-04
    assert not report.blowup


def test_hold_first_value_reference_cells():
    """Replication mode pins u_1 = u_0; it reproduces runs primed that way."""
    held = solve(mlf_decay(0.5), (1, 1), GridSpec(T=1.0, M=20), starting="hold")
    assert abs(held.final_error - 3.59879e-02) <= 1e-4 * 3.59879e-02

    lin = solve(linear_complex(0.5, -1.0), (1, 1), GridSpec(T=1.0, M=128),
                starting="hold")
    assert abs(lin.final_error - 1.59038e-04) <= 1e-4 * 1.59038e-04


def test_hold_first_value_costs_accuracy():
    # The pinned first step roughly triples the endpoint error here.
    grid = GridSpec(T=1.0, M=20)
    held = solve(mlf_decay(0.5), (1, 1), grid, starting="hold")
    faithful = solve(mlf_decay(0.5), (1, 1), grid)
    ratio = held.final_error / faithful.final_error
    assert 2.0 < ratio < 4.0


def test_hold_first_value_only_for_degree_one():
    with pytest.raises(ValueError):
        solve(linear_complex(0.3, -1.0), (2, 1), GridSpec(T=1.0, M=8),
              starting="hold")


def test_hold_first_value_single_step_grid():
    report = solve(linear_complex(0.5, -1.0), (1, 1), GridSpec(T=0.1, M=1),
                   starting="hold")
    assert report.trajectory.values[1] == report.trajectory.values[0]


def test_linear_path_matches_forced_newton():
    problem = linear_complex(0.5, -1.0)
    grid = GridSpec(T=1.0, M=16)
    direct = solve(problem, (2, 1), grid)
    # Without the declared linear structure lam the same problem, forcing and
    # all, steps by Newton.
    newton = solve(dataclasses.replace(problem, lam=None), (2, 1), grid,
                   newton=NewtonConfig(tol=1e-15))
    dev = np.max(np.abs(direct.trajectory.values - newton.trajectory.values))
    assert dev <= 1e-12
    assert direct.newton_iters.max() == 0
    assert newton.newton_iters.max() >= 1


def test_newton_jacobian_and_finite_differences_agree():
    problem = nonlinear_square(0.5, 1.0)
    assert problem.rhs_du is not None
    grid = GridSpec(T=1.0, M=16)
    with_jac = solve(problem, (2, 2), grid)
    without = solve(dataclasses.replace(problem, rhs_du=None), (2, 2), grid)
    dev = np.max(np.abs(with_jac.trajectory.values - without.trajectory.values))
    assert dev <= 1e-10


def test_pivot_breakdown_detected():
    grid = GridSpec(T=1.0, M=8)
    omega0 = float(weight_table(SchemeId(1, 1), 0.5, 8).omega[0])
    lam = omega0 / grid.dt ** 0.5
    problem = ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: lam * u, lam=lam)
    with pytest.raises(PivotBreakdownError):
        solve(problem, (1, 1), grid)


def test_newton_divergence_reported():
    M = 4
    with pytest.raises(NewtonDivergedError) as info:
        solve(nonlinear_square(0.5, 1.0), (2, 2), GridSpec(T=1.0, M=M),
              newton=NewtonConfig(tol=1e-13, max_iter=1))
    step = info.value.step
    assert isinstance(step, int)
    assert 2 <= step <= M
    assert f"step {step} " in str(info.value)


def _reference_solve(problem, scheme, grid, head=None, newton=None):
    """Stepping with an exactly rounded history sum.

    head holds the values before the first step, by default the exact solution
    at t_0..t_{k-1}.  A problem with lam takes the closed-form step, reading
    its forcing (if any) node by node; any other states its whole right-hand
    side in rhs (no forcing) and takes the solver's own Newton step.
    """
    table = weight_table(scheme, problem.alpha, grid.M)
    k, h = table.scheme.k, grid.dt
    ha = h ** problem.alpha
    omega0 = float(table.omega[0])
    if head is None:
        head = [problem.exact(j * h) for j in range(k)]
    u = np.array(list(head) + [0.0] * (grid.M + 1 - len(head)), dtype=complex)
    for n in range(len(head), grid.M + 1):
        w = np.concatenate((table.omega[n:0:-1], table.starting[n]))
        H = compensated_cdot(w, np.concatenate((u[:n], u[:k])))
        if problem.lam is not None:
            g = 0.0 if problem.forcing is None else problem.forcing(n * h)
            u[n] = (ha * g - H) / (omega0 - ha * problem.lam)
        else:
            u[n] = _newton_step(problem.rhs, problem.rhs_du, n, n * h, complex(u[n - 1]),
                                omega0, ha, H, newton, 0j)[0]
    return u


@pytest.mark.parametrize("problem, scheme", [
    (mlf_decay(0.5), (3, 3)),
    (linear_complex(0.5, -1.0), (2, 1)),
    (linear_complex(0.3, 2.0 + 1.0j), (3, 2)),
])
def test_history_sum_matches_exactly_rounded_reference(problem, scheme):
    grid = GridSpec(T=1.0, M=2048)
    got = solve(problem, scheme, grid, starting="exact").trajectory.values
    ref = _reference_solve(problem, scheme, grid)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_blowup_flagged_not_raised():
    problem = ProblemSpec(alpha=0.5, u0=0.0, rhs=lambda t, u: 0j, lam=0.0,
                          forcing=lambda t: np.full(t.shape, 1e35))
    report = solve(problem, (1, 1), GridSpec(T=1.0, M=8))
    assert report.blowup
    assert report.max_abs_u > 1e30
    assert report.final_error is None
    # Values stay finite here: the flag alone records the overflow.
    assert np.all(np.isfinite(report.trajectory.values))


def test_nonfinite_step_truncates_trajectory():
    problem = ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: 0j, lam=0.0,
                          forcing=lambda t: np.where(t > 0.3, math.inf, 0.0))
    report = solve(problem, (1, 1), GridSpec(T=1.0, M=8))
    assert report.blowup
    values = report.trajectory.values
    bad = np.flatnonzero(~np.isfinite(values))
    assert bad.size >= 2
    assert np.all(np.isnan(values[bad[0] + 1:]))


def test_solver_is_deterministic():
    grid = GridSpec(T=1.0, M=32)
    a = solve(nonlinear_square(0.3, 1.0j), (3, 2), grid)
    b = solve(nonlinear_square(0.3, 1.0j), (3, 2), grid)
    assert np.array_equal(a.trajectory.values, b.trajectory.values)
    assert np.array_equal(a.newton_iters, b.newton_iters)


def test_bootstrap_starting_values():
    problem = linear_complex(0.5, -1.0)
    assert bootstrap_starts(problem, (1, 1), GridSpec(T=1.0, M=8)) == ()
    starts = bootstrap_starts(problem, (3, 3), GridSpec(T=1.0, M=64))
    assert len(starts) == 2
    exact = [problem.exact(j / 64.0) for j in (1, 2)]
    assert max(abs(s - e) for s, e in zip(starts, exact)) < 1e-3


def test_bootstrap_run_converges():
    problem = linear_complex(0.5, -1.0)
    M_list = [32, 64, 128, 256]
    errs = [solve(problem, (2, 2), GridSpec(T=1.0, M=M), starting="bootstrap").final_error
            for M in M_list]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-7
    assert fit_order(M_list, errs) > 0.8


def test_starting_mode_validation():
    problem = linear_complex(0.5, -1.0)
    with pytest.raises(ValueError):
        solve(problem, (2, 1), GridSpec(T=1.0, M=8), starting="interpolate")
    no_exact = ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: -u, lam=-1.0)
    with pytest.raises(ValueError):
        solve(no_exact, (2, 1), GridSpec(T=1.0, M=8), starting="exact")
    # Without an exact solution the default falls back to bootstrapping.
    report = solve(no_exact, (2, 1), GridSpec(T=1.0, M=8))
    assert report.final_error is None


def test_grid_shorter_than_scheme_rejected():
    with pytest.raises(ValueError):
        solve(linear_complex(0.5, -1.0), (3, 3), GridSpec(T=1.0, M=2))


def test_newton_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iter=0)
    with pytest.raises(ValueError):
        NewtonConfig(tol="x")


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(alpha=1.2, u0=1.0, rhs=lambda t, u: -u)
    with pytest.raises(ValueError):
        ProblemSpec(alpha=0.5, u0=math.inf, rhs=lambda t, u: -u)
    with pytest.raises(ValueError):
        ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: -u,
                    exact=lambda t: 2.0 + t)
    assert [f.name for f in dataclasses.fields(ProblemSpec)] == [
        "alpha", "u0", "rhs", "rhs_du", "lam", "exact", "forcing"]


@pytest.mark.parametrize("rhs", [lambda t, u: -u * u, lambda t, u: 1.0 - u, lambda t, u: math.sin(t) - u],
                         ids=["nonlinear", "constant_part", "time_dependent_part"])
def test_lam_rejects_an_rhs_other_than_lam_u(rhs):
    # with lam the step is the closed form for lam*u: a nonlinear rhs would be
    # solved as linear, and a u-free part belongs in forcing
    with pytest.raises(ValueError, match="belongs in forcing"):
        ProblemSpec(alpha=0.5, u0=1.0, rhs=rhs, lam=-1.0)


@pytest.mark.parametrize("make", [lambda: mlf_decay(0.5), lambda: linear_complex(0.5, -1.0 + 0.5j),
                                  lambda: nonlinear_square(0.5, -1.0),
                                  lambda: ProblemSpec(alpha=0.5, u0=1j, rhs=lambda t, u: (2 - 3j) * u, lam=2 - 3j),
                                  lambda: ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: 0j, lam=0.0)],
                         ids=["mlf_decay", "linear_complex", "nonlinear_square", "complex_lam", "zero_lam"])
def test_lam_accepts_rhs_equal_to_lam_u(make):
    make()


def test_report_error_array():
    problem = linear_complex(0.5, -1.0)
    grid = GridSpec(T=1.0, M=8)
    report = solve(problem, (1, 1), grid)
    u_M = report.trajectory.values[-1]
    assert report.final_error == float(np.abs(u_M - problem.exact(grid.times()[-1])))


@pytest.mark.parametrize("M", [64, 128])
def test_exact_solution_sampled_for_starts_and_endpoint_only(M):
    problem = mlf_decay(0.5)
    calls = []

    def exact(t):
        calls.append(t)
        return problem.exact(t)

    counted = dataclasses.replace(problem, exact=exact)
    calls.clear()  # ProblemSpec checks exact(0) when it is built
    grid = GridSpec(T=1.0, M=M)
    solve(counted, (3, 3), grid)
    assert calls == [grid.dt, 2 * grid.dt, grid.times()[-1]]


ALL_SCHEMES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("problem", [mlf_decay(0.5), linear_complex(0.5, -1.0 + 0.5j),
                                     nonlinear_square(0.5, -1.0), nonlinear_square(0.5, 1j)],
                         ids=["mlf_decay", "linear_complex", "nonlinear_real", "nonlinear_imag"])
def test_declared_forcing_matches_per_node_rhs(problem, scheme, per_node):
    # Newton: the forcing folded into rhs, one scalar call per node; the closed
    # form, whose rhs must be lam*u: the forcing called once per node on scalars.
    # NumPy's ** and libm's pow may differ in the last bit, nothing more
    grid = GridSpec(T=1.0, M=96)
    vector = solve(problem, scheme, grid).trajectory.values
    scalar = dataclasses.replace(problem, forcing=lambda t: np.array([problem.forcing(x) for x in t.tolist()]))
    folded = solve(per_node(problem) if problem.lam is None else scalar, scheme, grid).trajectory.values
    assert np.all(np.abs(vector - folded) <= 1e-15 * np.abs(folded))


@pytest.mark.parametrize("lam", [True, False], ids=["lam", "no_lam"])
@pytest.mark.parametrize("forcing", [True, False], ids=["forcing", "no_forcing"])
def test_lam_and_forcing_combine_freely(lam, forcing, per_node):
    # lam selects the closed-form step and needs rhs = lam*u, so a forcing
    # folded into rhs is rejected with lam; the three other declarations of
    # the same problem give the same trajectory.
    problem = linear_complex(0.5, -1.0 + 0.5j)
    reference = solve(problem, (2, 2), GridSpec(T=1.0, M=64)).trajectory.values
    variant = problem if forcing else per_node(problem)   # per_node drops lam
    if lam and not forcing:
        with pytest.raises(ValueError, match="belongs in forcing"):
            dataclasses.replace(variant, lam=problem.lam)
        return
    if not lam:
        variant = dataclasses.replace(variant, lam=None)
    got = solve(variant, (2, 2), GridSpec(T=1.0, M=64), newton=NewtonConfig(tol=1e-15))
    assert np.max(np.abs(got.trajectory.values - reference)) <= 1e-12
    assert (got.newton_iters.max() == 0) == lam


@pytest.mark.parametrize("make, scalar_calls", [(lambda: mlf_decay(0.5), 3),
                                                (lambda: linear_complex(0.5, -1.0 + 0.5j), 0)],
                         ids=["mlf_decay", "linear_complex"])
def test_linear_builtin_evaluates_forcing_once_on_the_grid(monkeypatch, make, scalar_calls):
    from fracstep import harness

    calls = []
    series = harness.mittag_leffler

    def counted(alpha, beta, z):
        calls.append(np.shape(z) if isinstance(z, np.ndarray) else None)
        return series(alpha, beta, z)

    problem = make()   # built first: ProblemSpec checks exact(0)
    monkeypatch.setattr(harness, "mittag_leffler", counted)
    solve(problem, (3, 3), GridSpec(T=1.0, M=64))
    # the forcing at t_1..t_64; the exact solution at t_1, t_2 and t_64
    assert [c for c in calls if c is not None] == [(64,)]
    assert calls.count(None) == scalar_calls


def test_forcing_must_match_the_grid_shape():
    short = ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: -u, lam=-1.0,
                        forcing=lambda t: np.zeros(3))
    with pytest.raises(ValueError, match="forcing returned shape"):
        solve(short, (1, 1), GridSpec(T=1.0, M=8))


def test_forcing_errors_surface_before_the_first_step():
    calls = []

    def forcing(t):
        calls.append(t.size)
        raise ArithmeticError("forcing failed")

    problem = ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: -u, lam=-1.0, forcing=forcing)
    with pytest.raises(ArithmeticError):
        solve(problem, (1, 1), GridSpec(T=1.0, M=8))
    assert calls == [8]   # one call, for t_1..t_8


# Grids that end at the edges of the blocked history: around the first leaf of
# _LEAF steps and the first far blocks, around a dense level of _DENSE_ROWS
# targets, at the first FFT block (3 * _DENSE_ROWS clips the level-2D block to
# D + 1 targets) and past a full FFT block; then the same edges of the
# closed-form step's leaves of _LINEAR_LEAF steps.
_B, _D, _L = _LEAF, _DENSE_ROWS, _LINEAR_LEAF
BLOCK_M = [_B - 1, _B, _B + 1, 2 * _B, 2 * _B + 1, _D - 1, _D, _D + 1, 3 * _D - 1, 3 * _D, 4 * _D + 1,
           _L - 1, _L, _L + 1, 2 * _L - 1, 2 * _L, 2 * _L + 1, 4 * _L + 1]


def _block_grids(k):
    return [GridSpec(T=1.0, M=M) for M in sorted({k, *BLOCK_M}) if M >= k]


def _rel_dev(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_blocked_history_matches_exactly_rounded_reference(scheme):
    problem = linear_complex(0.5, -1.0 + 0.5j)
    for grid in _block_grids(scheme[0]):
        got = solve(problem, scheme, grid, starting="exact").trajectory.values
        ref = _reference_solve(problem, scheme, grid)
        assert _rel_dev(got, ref) <= 1e-13, grid.M


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_blocked_history_on_the_newton_path(scheme, per_node):
    cfg = NewtonConfig(tol=1e-15)
    nonlinear = nonlinear_square(0.5, -1.0 + 0.5j)
    linear = linear_complex(0.5, -1.0 + 0.5j)
    for grid in _block_grids(scheme[0]):
        got = solve(nonlinear, scheme, grid, newton=cfg).trajectory.values
        ref = _reference_solve(per_node(nonlinear), scheme, grid, newton=cfg)
        assert _rel_dev(got, ref) <= 1e-13, grid.M
        # the same history under both steps: a linear spec without lam steps by Newton
        direct = solve(linear, scheme, grid).trajectory.values
        newton = solve(dataclasses.replace(linear, lam=None), scheme, grid, newton=cfg)
        assert np.max(np.abs(newton.trajectory.values - direct)) <= 1e-12, grid.M


@pytest.mark.parametrize("starting, scheme", [("hold", (1, 1)), ("bootstrap", (2, 2)),
                                              ("bootstrap", (3, 1))])
def test_blocked_history_under_each_starting_mode(starting, scheme):
    problem = linear_complex(0.5, -1.0 + 0.5j)
    k = scheme[0]
    for grid in _block_grids(k):
        if starting == "hold":
            head = [problem.u0, problem.u0]   # stepping begins at n = 2
        else:   # the (1,1) scheme on the prefix grid of k - 1 < _LEAF steps
            prefix = GridSpec(T=grid.dt * (k - 1), M=k - 1)
            head = _reference_solve(problem, (1, 1), prefix)
        got = solve(problem, scheme, grid, starting=starting).trajectory.values
        ref = _reference_solve(problem, scheme, grid, head=head)
        assert _rel_dev(got, ref) <= 1e-13, grid.M


def test_newton_from_the_extrapolated_start_takes_two_iterations():
    # From 3 u_{n-1} - 3 u_{n-2} + u_{n-3} one update reaches the tolerance and
    # a second confirms it; from u_{n-1} this solve averaged over three.
    grid = GridSpec(T=1.0, M=1024)
    report = solve(nonlinear_square(0.5, -1.0), (3, 3), grid, newton=NewtonConfig(tol=1e-15))
    assert report.newton_iters[3:].mean() <= 2.1


@pytest.mark.parametrize("starting", [None, "hold"])
def test_newton_start_on_the_first_steps(starting, per_node):
    # (1,1) steps from n = 1 with one past value, and from n = 2 with two
    # under hold: the start is constant, then linear, then quadratic.
    cfg = NewtonConfig(tol=1e-15)
    problem = nonlinear_square(0.5, -1.0 + 0.5j)
    for M in (1, 2, 3, 4, _B + 1):
        if starting == "hold" and M < 2:
            continue
        grid = GridSpec(T=1.0, M=M)
        report = solve(problem, (1, 1), grid, starting=starting, newton=cfg)
        head = [problem.u0, problem.u0] if starting == "hold" else None
        ref = _reference_solve(per_node(problem), (1, 1), grid, head=head, newton=cfg)
        assert _rel_dev(report.trajectory.values, ref) <= 1e-13, M
        first = 2 if starting == "hold" else 1
        assert np.all(report.newton_iters[first:] >= 1)


@pytest.mark.parametrize("problem, scheme, M, starting, u_M", [
    (linear_complex(0.5, -1.0 + 0.5j), (2, 1), 40, None,
     ("0x1.78b4afab3a626p-2", "-0x1.6faf1e7540000p-21")),
    (mlf_decay(0.3), (3, 3), 600, None, ("0x1.d3a35a5ba5291p-2", "0x0.0p+0")),
    (linear_complex(0.5, -1.0), (1, 1), 20, "hold", ("0x1.7b97ebcf544cbp-2", "0x0.0p+0")),
    (linear_complex(0.7, 2j), (2, 2), 40, "bootstrap",
     ("0x1.78ad7317a2dc0p-2", "-0x1.148ba0f1c2000p-18")),
    (mlf_decay(0.3), (3, 3), 1025, None, ("0x1.d39a67f074af6p-2", "0x0.0p+0")),
], ids=["two_leaves", "fft_block", "hold", "bootstrap", "fft_block_at_1025"])
def test_linear_path_endpoint_bits(problem, scheme, M, starting, u_M):
    # The closed-form step reads nothing of the Newton path, so a change to
    # Newton must leave these endpoints bit for bit.  Each leaf is one
    # convolution with the reciprocal series.  The pins were taken on NumPy
    # 2.4.6, OpenBLAS 0.3.31 and Python 3.11.7, x86-64: the dense history
    # blocks and the starting terms are still that build's BLAS products, and
    # the long blocks its FFT, so another build may move these last bits.  The
    # exact solution is real: the small imaginary parts are the scheme's error,
    # formed by cancellation in each leaf's convolution, so their trailing bits
    # are zero.  M = 600 has no FFT block (its block at step 512 is a dense
    # product); M = 1025 has one, which transforms the real and imaginary parts
    # apart, so the real problem stays real, and its forcing runs the array
    # Mittag-Leffler loop on 1025 points.
    end = complex(solve(problem, scheme, GridSpec(T=1.0, M=M), starting=starting).trajectory.values[-1])
    assert (end.real.hex(), end.imag.hex()) == u_M


@pytest.mark.parametrize("problem, scheme, M, starting, u_M", [
    (nonlinear_square(0.5, -1.0 + 0.5j), (2, 1), 40, None,
     ("0x1.4a976b4c19c51p-2", "0x1.69374a46dabaep-3")),
    (nonlinear_square(0.3, -1.0), (3, 3), 1025, None,
     ("0x1.78b56362cf5f4p-2", "0x0.0p+0")),
    (nonlinear_square(0.5, -1.0), (1, 1), 20, "hold", ("0x1.7b6195437618ap-2", "0x0.0p+0")),
    (nonlinear_square(0.7, 1j), (2, 2), 40, "bootstrap",
     ("0x1.14a238cbcfa06p-1", "0x1.aed4244869400p-1")),
], ids=["two_leaves", "fft_block", "hold", "bootstrap"])
def test_newton_path_endpoint_bits(problem, scheme, M, starting, u_M):
    # The Newton step keeps its leaves of _LEAF steps in the history that it
    # shares with the closed-form step, so a change to the closed form must
    # leave these endpoints bit for bit.  Same build caveat as the linear pin.
    # M = 1025 reaches an FFT block (512 targets from step 512), which keeps
    # the real problem's imaginary part exactly zero.
    end = complex(solve(problem, scheme, GridSpec(T=1.0, M=M), starting=starting).trajectory.values[-1])
    assert (end.real.hex(), end.imag.hex()) == u_M


@pytest.mark.parametrize("M", [1025, 4096])
@pytest.mark.parametrize("problem", [mlf_decay(0.3), nonlinear_square(0.3, -1.0)], ids=["linear", "newton"])
def test_a_real_problem_stays_real_through_the_fft_blocks(problem, M):
    # the FFT blocks transform the real and imaginary parts apart, so real
    # data gives no rounding noise in the imaginary part
    values = solve(problem, (3, 3), GridSpec(T=1.0, M=M)).trajectory.values
    assert np.all(values.imag == 0.0)


def _other_thread_ticks():
    """utime + stime of each thread of this process but the main one, by thread id."""
    ticks = {}
    for task in Path("/proc/self/task").iterdir():
        if int(task.name) == os.getpid():
            continue
        try:
            fields = (task / "stat").read_text().rpartition(")")[2].split()
        except OSError:   # the thread has exited
            continue
        ticks[task.name] = int(fields[11]) + int(fields[12])   # fields 14 and 15 of stat
    return ticks


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_linear_solves_leave_the_blas_pool_idle():
    # A BLAS that threads a product wakes its worker pool, which can cost
    # milliseconds against microseconds for the product itself.  The six long
    # linear solves of the benchmark must run on the calling thread alone.
    problems = [(mlf_decay(0.5), (3, 3)), (linear_complex(0.5, -1.0), (2, 1))]

    def one_pass():
        for problem, scheme in problems:
            for M in (2048, 4096, 8192):
                solve(problem, scheme, GridSpec(T=1.0, M=M))

    one_pass()
    before = _other_thread_ticks()
    for _ in range(5):
        one_pass()
    after = _other_thread_ticks()
    assert sum(v - before.get(tid, 0) for tid, v in after.items()) <= 1


@pytest.mark.parametrize("bad", [_B + 3, 2 * _B, _D, 2 * _L + 5, 2 * _L],
                         ids=["in_a_leaf", "at_a_leaf_start", "at_a_dense_level",
                              "in_a_linear_leaf", "at_a_linear_leaf_start"])
def test_nonfinite_step_at_the_edges_of_the_blocks(bad):
    grid = GridSpec(T=1.0, M=2 * _D)
    cut = (bad - 0.5) * grid.dt

    def rhs(t, u):
        return (math.inf if t > cut else 1.0) - u

    def linear(forcing):
        return ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: -u, lam=-1.0, forcing=forcing)

    clean = solve(linear(np.ones_like), (2, 1), grid)
    report = solve(linear(lambda t: np.where(t > cut, math.inf, 1.0)), (2, 1), grid)
    values = report.trajectory.values
    assert report.blowup
    assert np.array_equal(values[:bad], clean.trajectory.values[:bad])
    assert not np.isfinite(values[bad])
    assert np.all(np.isnan(values[bad + 1:]))
    # under Newton the same rhs value is an error that names the step
    with pytest.raises(ValueError, match=f"non-finite value .* at step {bad} "):
        solve(ProblemSpec(alpha=0.5, u0=1.0, rhs=rhs), (2, 1), grid)


def test_linear_overflow_from_finite_inputs():
    # D^0.5 u = 27 u grows like exp(27^2 t): past the first leaves, |u| passes
    # the largest double inside a leaf's product, with every input finite
    problem = ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: 27.0 * u, lam=27.0)
    grid = GridSpec(T=1.0, M=512)
    report = solve(problem, (1, 1), grid)
    values = report.trajectory.values
    bad = np.flatnonzero(~np.isfinite(values))[0]
    assert _L < bad < grid.M
    assert report.blowup
    assert np.all(np.isnan(values[bad + 1:]))
    with np.errstate(over="ignore", invalid="ignore"):   # the reference overflows too
        ref = _reference_solve(problem, (1, 1), grid, head=[problem.u0])
    assert _rel_dev(values[:bad], ref[:bad]) <= 1e-13
    assert not np.signbit(values[:bad].imag).any()   # a real problem keeps +0.0


def test_newton_names_a_nonfinite_rhs_du_value():
    problem = ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: -u * u, rhs_du=lambda t, u: math.nan)
    with pytest.raises(ValueError, match="rhs_du returned a non-finite value nan at step 1 "):
        solve(problem, (1, 1), GridSpec(T=1.0, M=8))


def test_blocked_history_satisfies_the_scheme_at_2_to_the_15():
    # At M = 2^15 an exactly rounded solve is too slow; instead the returned
    # trajectory must satisfy the scheme, D u_n = rhs(t_n, u_n) + forcing(t_n),
    # with D u_n one compensated sum (apply_discrete_caputo), at block edges,
    # the last step and a few random n.
    problem, scheme = mlf_decay(0.5), (3, 3)
    grid = GridSpec(T=1.0, M=2 ** 15)
    traj = solve(problem, scheme, grid).trajectory
    table = weight_table(scheme, problem.alpha, grid.M)
    u, t = traj.values, grid.times()
    M = grid.M
    edges = {3, _B - 1, _B, 2 * _B + 1, _D, _D + 1, 3 * _D, 4 * _D, 2 ** 12 + 1, 2 ** 14 - 1, 2 ** 14,
             2 ** 14 + 1, 3 * 2 ** 13, M - _B, M - 1, M}
    ns = sorted(edges | set(np.random.default_rng(15).integers(3, M, 4).tolist()))
    forcing = problem.forcing(t[ns])
    worst = 0.0
    for n, g in zip(ns, forcing):
        lhs = apply_discrete_caputo(table, traj, n)
        # the size of the sum's terms, in the units of D u_n
        scale = grid.dt ** -problem.alpha * (np.abs(table.omega[n::-1] * u[: n + 1]).sum()
                                             + np.abs(table.starting[n] * u[:3]).sum())
        worst = max(worst, abs(lhs - (problem.rhs(t[n], u[n]) + g)) / scale)
    assert worst <= 1e-14


@pytest.mark.parametrize("scheme, starting", [((1, 1), None), ((3, 2), None), ((1, 1), "hold")],
                         ids=["k_1", "k_3", "hold"])
def test_forcing_is_evaluated_once_on_t_1_to_t_M(scheme, starting):
    # the same nodes whatever the scheme and the starting mode
    calls = []

    def forcing(t):
        calls.append(t)
        return np.zeros(t.shape)

    grid = GridSpec(T=1.0, M=16)
    problem = ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: 0j, lam=0.0,
                          exact=lambda t: 1.0 + 0.0j, forcing=forcing)
    solve(problem, scheme, grid, starting=starting)
    assert len(calls) == 1
    assert np.array_equal(calls[0], grid.times()[1:])


def test_newton_raises_on_a_zero_jacobian():
    grid = GridSpec(T=1.0, M=8)
    slope = weight_table((1, 1), 0.5, grid.M).omega[0] / grid.dt ** 0.5   # J = omega_0 - dt^alpha * slope = 0
    problem = ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: -u * u, rhs_du=lambda t, u: slope)
    with pytest.raises(NewtonDivergedError) as info:
        solve(problem, (1, 1), grid)
    assert info.value.step == 1


@pytest.mark.parametrize("radius", [0.0, 1e-6], ids=["at_the_probe", "at_the_next_iterate"])
def test_newton_names_a_nonfinite_rhs_value_after_the_start(radius):
    # rhs is finite at the start u_0 = 1 and nan farther than radius from it:
    # at the finite-difference probe u_0 + 3e-8, or else at the next iterate
    problem = ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: -u if abs(u - 1.0) <= radius else math.nan)
    with pytest.raises(ValueError, match=r"rhs returned a non-finite value \(nan\+0j\) at step 1 "):
        solve(problem, (1, 1), GridSpec(T=1.0, M=8))
