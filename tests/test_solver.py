"""Tests for the implicit fractional-step solver."""

import dataclasses
import math

import numpy as np
import pytest

from fracstep import (
    GridSpec,
    NewtonConfig,
    NewtonDivergedError,
    PivotBreakdownError,
    ProblemSpec,
    SchemeId,
    bootstrap_starts,
    fit_order,
    linear_complex,
    mlf_decay,
    nonlinear_square,
    solve,
    weight_table,
)
from fracstep.operator import compensated_cdot


def test_quadratic_scheme_reference_cell():
    # Mittag-Leffler decay, alpha = 0.5, quadratic scheme, 40 steps on [0, 1].
    report = solve(mlf_decay(0.5), (2, 2), GridSpec(T=1.0, M=40))
    assert abs(report.final_error - 5.76449e-04) <= 1e-4 * 5.76449e-04
    assert not report.blowup


def test_hold_first_value_reference_cells():
    """Replication mode pins u_1 = u_0; it reproduces runs primed that way."""
    held = solve(mlf_decay(0.5), (1, 1), GridSpec(T=1.0, M=20), hold_first_value=True)
    assert abs(held.final_error - 3.59879e-02) <= 1e-4 * 3.59879e-02

    lin = solve(linear_complex(0.5, -1.0), (1, 1), GridSpec(T=1.0, M=128),
                hold_first_value=True)
    assert abs(lin.final_error - 1.59038e-04) <= 1e-4 * 1.59038e-04


def test_hold_first_value_costs_accuracy():
    # The pinned first step roughly triples the endpoint error here.
    grid = GridSpec(T=1.0, M=20)
    held = solve(mlf_decay(0.5), (1, 1), grid, hold_first_value=True)
    faithful = solve(mlf_decay(0.5), (1, 1), grid)
    ratio = held.final_error / faithful.final_error
    assert 2.0 < ratio < 4.0


def test_hold_first_value_only_for_degree_one():
    with pytest.raises(ValueError):
        solve(linear_complex(0.3, -1.0), (2, 1), GridSpec(T=1.0, M=8),
              hold_first_value=True)


def test_hold_first_value_single_step_grid():
    report = solve(linear_complex(0.5, -1.0), (1, 1), GridSpec(T=0.1, M=1),
                   hold_first_value=True)
    assert report.trajectory.values[1] == report.trajectory.values[0]


def test_linear_path_matches_forced_newton():
    problem = linear_complex(0.5, -1.0)
    grid = GridSpec(T=1.0, M=16)
    direct = solve(problem, (2, 1), grid)
    newton = solve(problem, (2, 1), grid, force_newton=True,
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


def _reference_linear_solve(problem, scheme, grid):
    """Exact-started closed-form stepping with an exactly rounded history sum."""
    table = weight_table(scheme, problem.alpha, grid.M)
    k, h = table.scheme.k, grid.dt
    ha = h ** problem.alpha
    denom = table.omega[0] - ha * problem.lam
    u = np.array([problem.exact(j * h) for j in range(k)] + [0.0] * (grid.M + 1 - k),
                 dtype=complex)
    for n in range(k, grid.M + 1):
        w = np.concatenate((table.omega[n:0:-1], table.starting[n]))
        H = compensated_cdot(w, np.concatenate((u[:n], u[:k])))
        u[n] = (ha * problem.rhs(n * h, 0.0) - H) / denom
    return u


@pytest.mark.parametrize("problem, scheme", [
    (mlf_decay(0.5), (3, 3)),
    (linear_complex(0.5, -1.0), (2, 1)),
    (linear_complex(0.3, 2.0 + 1.0j), (3, 2)),
])
def test_history_sum_matches_exactly_rounded_reference(problem, scheme):
    grid = GridSpec(T=1.0, M=2048)
    got = solve(problem, scheme, grid, starting="exact").trajectory.values
    ref = _reference_linear_solve(problem, scheme, grid)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_blowup_flagged_not_raised():
    problem = ProblemSpec(alpha=0.5, u0=0.0, rhs=lambda t, u: 1e35, lam=0.0)
    report = solve(problem, (1, 1), GridSpec(T=1.0, M=8))
    assert report.blowup
    assert report.max_abs_u > 1e30
    assert report.final_error is None
    # Values stay finite here: the flag alone records the overflow.
    assert np.all(np.isfinite(report.trajectory.values))


def test_nonfinite_step_truncates_trajectory():
    problem = ProblemSpec(alpha=0.5, u0=1.0,
                          rhs=lambda t, u: math.inf if t > 0.3 else 0.0,
                          lam=0.0)
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
    assert report.errors is None
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
        NewtonConfig(fd_step_scale=1.5)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(alpha=1.2, u0=1.0, rhs=lambda t, u: -u)
    with pytest.raises(ValueError):
        ProblemSpec(alpha=0.5, u0=math.inf, rhs=lambda t, u: -u)
    with pytest.raises(ValueError):
        ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: -u,
                    exact=lambda t: 2.0 + t)


def test_report_error_array():
    report = solve(linear_complex(0.5, -1.0), (1, 1), GridSpec(T=1.0, M=8))
    assert report.errors is not None
    assert report.errors.shape == (9,)
    assert report.final_error == report.errors[-1]
    with pytest.raises(ValueError):
        report.errors[0] = 0.0
