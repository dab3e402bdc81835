"""Tests for builtin problems, study drivers, configuration, and CSV formats."""

import io
import json
import math

import numpy as np
import pytest

from fracstep import (
    ConfigError,
    ConvergenceRow,
    GridSpec,
    NewtonConfig,
    ProblemSpec,
    SchemeId,
    build_interpolant,
    linear_complex,
    load_config,
    mlf_decay,
    nonlinear_square,
    oracle_discrete_caputo,
    run_convergence,
    run_truncation_study,
    solve,
)
from fracstep import harness
from fracstep.harness import (
    fit_order,
    format_complex,
    parse_complex,
    parse_config,
    read_convergence_csv,
    read_trajectory_csv,
    write_convergence_csv,
    write_trajectory_csv,
)

# ---------------------------------------------------------------------------
# builtin problems


def test_mlf_decay_structure(per_node):
    p = mlf_decay(0.4)
    assert p.lam == 0.0
    assert p.u0 == 1.0
    assert p.exact(0.0) == 1.0
    # The right-hand side is pure-time and equals minus the solution.
    full = per_node(p)
    for t in (0.0, 0.3, 1.0):
        assert full.rhs(t, 123.4j) == -p.exact(t)


@pytest.mark.parametrize("alpha", [0.05, 0.07])
def test_mlf_decay_solves_at_small_order(alpha):
    # E_{alpha,1}(-t^alpha) on t in [0, 1] stays within the series' accuracy budget
    report = solve(mlf_decay(alpha), (2, 2), GridSpec(T=1.0, M=64))
    assert not report.blowup
    assert 1e-5 < report.final_error < 1e-3


def test_nonlinear_square_jacobian():
    p = nonlinear_square(0.6, 0.5j)
    for u in (0.0, 1.5, 2.0 - 1.0j):
        assert p.rhs_du(0.3, u) == -2.0 * u


def test_nonlinear_square_forcing_evaluated_once_per_solve(monkeypatch):
    # Newton evaluates rhs = -u^2 several times at each t_n; the forcing's
    # Mittag-Leffler term is one array call over t_1..t_M before the first step.
    calls = []
    original = harness.mittag_leffler

    def counting(alpha, beta, z):
        calls.append(np.shape(z) if isinstance(z, np.ndarray) else None)
        return original(alpha, beta, z)

    monkeypatch.setattr(harness, "mittag_leffler", counting)
    M, k = 64, 2
    report = solve(nonlinear_square(0.5, -1.0), (2, 2), GridSpec(T=1.0, M=M), starting="exact")
    assert report.newton_iters.sum() > M - k + 1
    assert calls == [(M,)]


@pytest.mark.parametrize("problem", [linear_complex(0.6, -1.0 + 0.5j),
                                     nonlinear_square(0.6, 0.5 + 0.5j)])
def test_manufactured_forcing_consistency(problem, per_node):
    """The forcing must make the stated exact solution solve the equation.

    Checked against the quadrature oracle applied to the exact solution: the
    discrete fractional derivative of the sampled solution has to track
    rhs(t, u(t)) up to the cubic interpolation error.
    """
    grid = GridSpec(T=1.0, M=48)
    full = per_node(problem)
    samples = np.array([problem.exact(t) for t in grid.times()])
    for n in (8, 24, 48):
        itp = build_interpolant(SchemeId(3, 3), grid, samples, n)
        lhs = oracle_discrete_caputo(itp, problem.alpha)
        rhs = full.rhs(grid.node(n), problem.exact(grid.node(n)))
        assert abs(lhs - rhs) < 2e-6


# ---------------------------------------------------------------------------
# convergence driver


def test_run_convergence_row_order_and_rates():
    rows = run_convergence(mlf_decay, [(2, 1), (1, 1)], [0.7, 0.3], [16, 8])
    keys = [(r.k, r.i, r.alpha, r.M) for r in rows]
    # schemes and alphas keep caller order, M is sorted ascending
    assert keys == [(2, 1, 0.7, 8), (2, 1, 0.7, 16), (2, 1, 0.3, 8), (2, 1, 0.3, 16),
                    (1, 1, 0.7, 8), (1, 1, 0.7, 16), (1, 1, 0.3, 8), (1, 1, 0.3, 16)]
    for first, second in zip(rows[::2], rows[1::2]):
        assert first.rate is None
        assert second.rate == pytest.approx(math.log2(first.abs_err / second.abs_err))


def test_run_convergence_blowup_rows():
    def factory(alpha):
        return ProblemSpec(alpha=alpha, u0=0.0, rhs=lambda t, u: 0j, lam=0.0,
                           exact=lambda t: 0.0 + 0.0j, forcing=lambda t: np.full(t.shape, 1e35))

    rows = run_convergence(factory, [(1, 1)], [0.5], [8, 16])
    assert all(r.blowup for r in rows)
    assert all(r.rate is None for r in rows)
    # blown runs report the overflow magnitude, not an error
    assert all(r.abs_err > 1e30 for r in rows)


@pytest.mark.parametrize("schemes, alphas, M_list, repeated", [
    ([(1, 1)], [0.5, 0.5], [8, 16], "alpha"),
    ([(1, 1)], [0.5], [8, 8], "M_list"),
    ([(1, 1)], [0.5, 0.5], [8, 8], "alpha"),
    ([[1, 1], SchemeId(1, 1)], [0.5], [8, 16], "schemes"),
], ids=["alpha", "M", "both", "scheme"])
def test_run_convergence_rejects_repeats(schemes, alphas, M_list, repeated):
    # a repeated M would read log2(err/err) = 0 as a measured rate; a label and
    # a SchemeId of the same scheme repeat it
    with pytest.raises(ConfigError, match=f"{repeated} repeats"):
        run_convergence(mlf_decay, schemes, alphas, M_list)


def _counting_mlf(monkeypatch):
    """The shapes of the array arguments of harness.mittag_leffler, one per call."""
    calls = []
    original = harness.mittag_leffler

    def counting(alpha, beta, z):
        calls.append(np.shape(z))
        return original(alpha, beta, z)

    monkeypatch.setattr(harness, "mittag_leffler", counting)
    return calls


@pytest.mark.parametrize("schemes, starting", [([(1, 1), (3, 3), (2, 1)], None),
                                               ([(1, 1)], "hold")], ids=["k_1_2_3", "hold"])
def test_run_convergence_evaluates_the_forcing_once_per_alpha_and_grid(monkeypatch, schemes, starting):
    # Each scheme starts stepping at its own node (k, or 2 under hold), and
    # each reads its tail of the one forcing array on t_1..t_M: the rows are
    # bit for bit those of solving each cell on its own.
    alphas, M_list = [0.3, 0.7], [8, 16, 32]
    newton = NewtonConfig(tol=1e-15)

    def factory(a):
        return nonlinear_square(a, -1.0 + 0.5j)

    calls = _counting_mlf(monkeypatch)
    rows = run_convergence(factory, schemes, alphas, M_list, starting=starting, newton=newton)
    assert sorted(calls) == sorted((M,) for _ in alphas for M in M_list)
    assert len(rows) == len(schemes) * len(alphas) * len(M_list)
    for r in rows:
        direct = solve(factory(r.alpha), (r.k, r.i), GridSpec(T=1.0, M=r.M),
                       starting=starting, newton=newton)
        assert r.abs_err == direct.final_error, (r.k, r.i, r.alpha, r.M)


def test_run_convergence_forcing_is_evaluated_inside_the_first_solve(monkeypatch):
    # Lazily: so the first solve of each (alpha, M) carries its forcing's cost
    calls = _counting_mlf(monkeypatch)
    seen = []
    original = harness.solve

    def recording(*args, **kwargs):
        before = len(calls)
        report = original(*args, **kwargs)
        seen.append(len(calls) - before)
        return report

    monkeypatch.setattr(harness, "solve", recording)
    run_convergence(lambda a: nonlinear_square(a, -1.0), [(2, 1), (1, 1)], [0.5], [8, 16])
    assert seen == [1, 1, 0, 0]


def test_grid_forcing_falls_back_off_the_grid_tail():
    forcing = nonlinear_square(0.5, 1j).forcing
    grid = GridSpec(T=1.0, M=16)
    t = grid.times()
    cached = harness._GridForcing(forcing, grid)
    for tail in (t[1:], t[2:], t[3:], t[16:]):
        assert np.array_equal(cached(tail), forcing(tail))
    # not a tail of t_1..t_M: the forcing's own values
    for other in (t, t[1:5], t[::2], np.array([0.25]), 0.25):
        assert np.array_equal(cached(other), forcing(other))


# ---------------------------------------------------------------------------
# truncation driver


def test_truncation_study_fields_and_decay():
    samples = run_truncation_study((1, 1), 0.5, 2, [8, 16, 32])
    assert [s.M for s in samples] == [8, 16, 32]
    for s in samples:
        assert (s.k, s.i, s.alpha) == (1, 1, 0.5)
        assert s.max_abs >= s.origin_max > 0.0
        assert s.max_abs >= s.tail_max > 0.0
    assert samples[0].max_abs > samples[1].max_abs > samples[2].max_abs


def test_truncation_study_degree_validation():
    with pytest.raises(ConfigError):
        run_truncation_study((1, 1), 0.5, 7, [8])
    with pytest.raises(ConfigError):
        run_truncation_study((1, 1), 0.5, -1, [8])


def test_drivers_reject_non_integer_step_counts():
    # a step count is never rounded: 8.7 is not the grid M = 8
    with pytest.raises(ConfigError):
        run_truncation_study((1, 1), 0.5, 2, [8.7])
    with pytest.raises(ValueError):
        run_convergence(mlf_decay, [(1, 1)], [0.5], [8.7, 16])


def test_fit_order_recovers_exact_power():
    M_list = [16, 32, 64, 128]
    errs = [3.7 * M ** -1.7 for M in M_list]
    assert fit_order(M_list, errs) == pytest.approx(1.7, abs=1e-12)


# ---------------------------------------------------------------------------
# complex parsing and formatting


@pytest.mark.parametrize("text, expected", [
    ("2.5", 2.5 + 0.0j),
    ("-3e-2", -0.03 + 0.0j),
    ("i", 1.0j),
    ("-i", -1.0j),
    ("+i", 1.0j),
    ("2i", 2.0j),
    ("-2.5i", -2.5j),
    ("1+2i", 1.0 + 2.0j),
    ("1-2i", 1.0 - 2.0j),
    ("1e-3+2.5e-1i", 0.001 + 0.25j),
    (" 1 + 2i ", 1.0 + 2.0j),
    (3, 3.0 + 0.0j),
    (0.5, 0.5 + 0.0j),
])
def test_parse_complex(text, expected):
    assert parse_complex(text) == expected


@pytest.mark.parametrize("text", ["abc", "1+2j", "i2", "1++2i", "", None, [1, 2]])
def test_parse_complex_rejects(text):
    with pytest.raises(ConfigError):
        parse_complex(text)


def test_format_complex_round_trips():
    for z in (1.5 - 2.25j, 3.0 + 0.0j, -0.125j, 1e-17 + 1e3j):
        assert parse_complex(format_complex(z)) == z


# ---------------------------------------------------------------------------
# configuration parsing


def _good_config():
    return {
        "problem": {"tag": "mlf_decay"},
        "alpha": [0.3, 0.7],
        "schemes": [[1, 1], [2, 2]],
        "grid": {"T": 1.0, "M_list": [40, 20, 80]},
    }


def test_parse_config_happy_path():
    cfg = parse_config(_good_config())
    assert cfg.alphas == (0.3, 0.7)
    assert cfg.schemes == (SchemeId(1, 1), SchemeId(2, 2))
    assert cfg.M_list == (20, 40, 80)
    assert cfg.single_M is None
    assert cfg.T == 1.0
    assert cfg.starting is None
    assert cfg.newton is None
    assert cfg.problem_for is mlf_decay
    problem = cfg.problem_for(0.3)
    assert problem.alpha == 0.3


def test_parse_config_single_m_and_options():
    raw = {
        "problem": {"tag": "linear_complex", "lambda": "1+2i"},
        "alpha": 0.5,
        "schemes": [[1, 1]],
        "grid": {"T": 2.0, "M": 64},
        "starting": "hold",
        "newton": {"tol": 1e-12, "max_iter": 20},
    }
    cfg = parse_config(raw)
    assert cfg.single_M == 64
    assert cfg.M_list == (64,)
    assert cfg.alphas == (0.5,)
    assert cfg.newton.tol == 1e-12
    assert cfg.newton.max_iter == 20
    assert cfg.starting == "hold"
    assert cfg.problem_for(0.5).lam == 1.0 + 2.0j


def test_parse_config_expression_problem():
    raw = {
        "problem": {"rhs": {"expr": "-u + cos(t)"}, "exact": {"expr": "exp(-t)"}},
        "alpha": 0.5,
        "schemes": [[2, 1]],
        "grid": {"T": 1.0, "M": 8},
    }
    cfg = parse_config(raw)
    p = cfg.problem_for(0.5)
    assert p.u0 == 1.0  # evaluated from exact at t = 0
    assert p.rhs(0.0, 2.0) == pytest.approx(-1.0)
    assert p.exact(1.0) == pytest.approx(math.exp(-1.0))

    raw["problem"] = {"rhs": {"expr": "-u"}, "u0": "1+0i"}
    p2 = parse_config(raw).problem_for(0.5)
    assert p2.u0 == 1.0
    assert p2.exact is None


@pytest.mark.parametrize("mangle", [
    lambda raw: raw.update(extra=1),
    lambda raw: raw.pop("grid"),
    lambda raw: raw.update(problem=5),
    lambda raw: raw.update(problem={"tag": "unknown"}),
    lambda raw: raw.update(problem={"tag": "mlf_decay", "lambda": "1"}),
    lambda raw: raw.update(problem={"tag": "linear_complex"}),
    lambda raw: raw.update(problem={"tag": "nonlinear_square"}),
    lambda raw: raw.update(problem={"exact": {"expr": "1"}}),
    lambda raw: raw.update(problem={"rhs": {"expr": "-u"}}),
    lambda raw: raw.update(problem={"rhs": {"source": "-u"}, "u0": 1}),
    lambda raw: raw.update(alpha=1.5),
    lambda raw: raw.update(alpha=[0.5, 0.0]),
    lambda raw: raw.update(schemes=[]),
    lambda raw: raw.update(schemes=[[1]]),
    lambda raw: raw.update(schemes=[[4, 1]]),
    lambda raw: raw.update(schemes=[[2, 3]]),
    lambda raw: raw.update(grid=[1.0]),
    lambda raw: raw.update(grid={"M": 8}),
    lambda raw: raw.update(grid={"T": -1.0, "M": 8}),
    lambda raw: raw.update(grid={"T": 1.0}),
    lambda raw: raw.update(grid={"T": 1.0, "M": 8, "M_list": [8]}),
    lambda raw: raw.update(grid={"T": 1.0, "M": 0}),
    lambda raw: raw.update(grid={"T": 1.0, "M": 8.5}),
    lambda raw: raw.update(grid={"T": 1.0, "M_list": []}),
    lambda raw: raw.update(grid={"T": 1.0, "M_list": [8, 0]}),
    lambda raw: raw.update(starting="middle"),
    lambda raw: raw.update(hold_first_value=True),  # not a configuration key
    lambda raw: raw.update(starting="hold"),  # schemes include k = 2
    lambda raw: raw.update(newton=[1e-12]),
    lambda raw: raw.update(newton={"tol": 1e-12, "damping": 0.5}),
    lambda raw: raw.update(newton={"tol": 0.0}),
    lambda raw: raw.update(schemes=[[2.7, 1]]),
    lambda raw: raw.update(schemes=[["2", "1"]]),
    lambda raw: raw.update(schemes=[[True, 1]]),
    lambda raw: raw.update(grid={"T": True, "M": 8}),
    lambda raw: raw.update(grid={"T": math.inf, "M": 8}),
    lambda raw: raw.update(grid={"T": 1.0, "M": True}),
    lambda raw: raw.update(grid={"T": 1.0, "M_list": [8, True]}),
    lambda raw: raw.update(newton={"max_iter": True}),
    lambda raw: raw.update(problem={"tag": "linear_complex", "lambda": True}),
    lambda raw: raw.update(problem={"tag": "linear_complex", "lambda": False}),
    lambda raw: raw.update(problem={"tag": "nonlinear_square", "mu": True}),
    lambda raw: raw.update(problem={"tag": "nonlinear_square", "mu": False}),
    lambda raw: raw.update(problem={"rhs": {"expr": "-u"}, "u0": True}),
    lambda raw: raw.update(problem={"rhs": {"expr": "-u"}, "u0": False}),
    lambda raw: raw.update(alpha=[0.5, 0.5]),
    lambda raw: raw.update(grid={"T": 1.0, "M_list": [32, 64, 64]}),
    lambda raw: raw.update(newton={"tol": "x"}),
    lambda raw: raw.update(alpha=[]),
    lambda raw: raw.update(problem={"tag": []}),
    lambda raw: raw.update(problem={"tag": {}}),
    lambda raw: raw.update(problem={"rhs": {"expr": "-u"}, "exact": {"expr": "exp(-t)+u"}}),
    lambda raw: raw.update(alpha=10 ** 400),
    lambda raw: raw.update(grid={"T": 10 ** 400, "M_list": [8, 16]}),
    lambda raw: raw.update(newton={"tol": 10 ** 400}),
    lambda raw: raw.update(problem={"tag": "linear_complex", "lambda": 10 ** 400}),
    lambda raw: raw.update(problem={"rhs": {"expr": "-u"}, "u0": -10 ** 400}),
    lambda raw: raw.update(problem={"rhs": {"expr": "1 2"}, "u0": 1}),
    lambda raw: raw.update(problem={"rhs": {"expr": "-u"}, "exact": {"expr": "exp(("}}),
    lambda raw: raw.update(problem={"rhs": {"expr": "-u"}, "exact": {"expr": "exp(1/t)"}}),
    lambda raw: raw.update(schemes=[[1, 1], [2, 2], [1, 1]]),
])
def test_parse_config_rejects(mangle):
    raw = _good_config()
    mangle(raw)
    with pytest.raises(ConfigError):
        parse_config(raw)


@pytest.mark.parametrize("problem, message", [
    ({"rhs": {"expr": "-u"}, "exact": {"expr": "exp(1e300*1e300)"}},
     "problem.exact at t = 0: the value must have finite components, got (inf+0j)"),
    ({"rhs": {"expr": "-u"}, "exact": {"expr": "exp(1e300*1e300)"}, "u0": 1},
     "problem.exact at t = 0: the value must have finite components, got (inf+0j)"),
    ({"rhs": {"expr": "-u"}, "exact": {"expr": "2+t"}, "u0": 1},
     "exact(0) = (2+0j) does not match u0 = (1+0j)"),
], ids=["nonfinite", "nonfinite_with_u0", "mismatch"])
def test_parse_config_checks_exact_at_the_origin(problem, message):
    # at parse time, not later from ProblemSpec when a problem is built
    raw = _good_config()
    raw["problem"] = problem
    with pytest.raises(ConfigError) as info:
        parse_config(raw)
    assert str(info.value) == message


@pytest.mark.parametrize("key, value, named", [("alpha", [0.3, 0.7, 0.3], "0.3"),
                                                ("grid", {"T": 1.0, "M_list": [32, 64, 64]}, "64")])
def test_parse_config_names_a_repeated_value(key, value, named):
    raw = _good_config()
    raw[key] = value
    with pytest.raises(ConfigError, match=f"repeats the value {named}$"):
        parse_config(raw)


def test_parse_config_not_an_object():
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_good_config()))
    assert load_config(path) == parse_config(_good_config())

    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)

    with pytest.raises(OSError):
        load_config(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# CSV round trips


def test_convergence_csv_round_trip():
    rows = [
        ConvergenceRow(alpha=0.5, k=2, i=1, M=20, abs_err=1.27599e-3, rate=None),
        ConvergenceRow(alpha=0.5, k=2, i=1, M=40, abs_err=5.84522e-4, rate=1.1263),
    ]
    buf = io.StringIO()
    write_convergence_csv(rows, buf)
    buf.seek(0)
    back = read_convergence_csv(buf)
    assert back == rows


def test_convergence_csv_header_check():
    with pytest.raises(ConfigError):
        read_convergence_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_trajectory_csv_round_trip():
    problem = linear_complex(0.5, -1.0)
    report = solve(problem, (1, 1), GridSpec(T=1.0, M=4))
    buf = io.StringIO()
    write_trajectory_csv(report, buf, exact=problem.exact)
    buf.seek(0)
    recs = read_trajectory_csv(buf)
    assert len(recs) == 5
    assert recs[0]["n"] == 0
    assert recs[0]["u"] == 1.0 + 0.0j
    assert recs[-1]["t"] == 1.0
    for rec, u, t in zip(recs, report.trajectory.values, report.trajectory.grid.times()):
        assert rec["exact"] is not None
        assert rec["abs_err"] == pytest.approx(abs(u - problem.exact(t)), abs=1e-15)


def test_trajectory_csv_without_exact():
    problem = ProblemSpec(alpha=0.5, u0=1.0, rhs=lambda t, u: -u, lam=-1.0)
    report = solve(problem, (1, 1), GridSpec(T=1.0, M=4))
    buf = io.StringIO()
    write_trajectory_csv(report, buf)
    buf.seek(0)
    recs = read_trajectory_csv(buf)
    assert all(rec["exact"] is None and rec["abs_err"] is None for rec in recs)


def test_trajectory_csv_header_check():
    with pytest.raises(ConfigError):
        read_trajectory_csv(io.StringIO("n,t\n"))


@pytest.mark.parametrize("u0, lam, forcing", [
    (1.0, -1.0, lambda t: np.where(t > 0.5, math.nan, 0.0)),   # a non-finite step
    (0.0, 0.0, lambda t: np.full(t.shape, 1e35)),              # past the overflow threshold
], ids=["nonfinite", "overflow"])
def test_convergence_csv_round_trips_blowup_rows(u0, lam, forcing):
    # a blown-up cell's abs_err is its largest |u_n|, which without the flag
    # reads back as an ordinary error
    def factory(alpha):
        return ProblemSpec(alpha=alpha, u0=u0, rhs=lambda t, u: lam * u, lam=lam,
                           exact=lambda t: complex(u0), forcing=forcing)

    rows = run_convergence(factory, [(1, 1)], [0.5], [8, 16])
    assert all(r.blowup for r in rows)
    buf = io.StringIO()
    write_convergence_csv(rows, buf)
    buf.seek(0)
    assert read_convergence_csv(buf) == rows
