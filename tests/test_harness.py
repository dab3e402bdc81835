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
    ProblemSpec,
    SchemeId,
    build_interpolant,
    fit_order,
    linear_complex,
    load_config,
    mlf_decay,
    nonlinear_square,
    oracle_discrete_caputo,
    parse_config,
    run_convergence,
    run_truncation_study,
    solve,
)
from fracstep import harness
from fracstep.harness import (
    format_complex,
    parse_complex,
    read_convergence_csv,
    read_trajectory_csv,
    write_convergence_csv,
    write_trajectory_csv,
)

# ---------------------------------------------------------------------------
# builtin problems


def test_mlf_decay_structure():
    p = mlf_decay(0.4)
    assert p.lam == 0.0
    assert p.u0 == 1.0
    assert p.exact(0.0) == 1.0
    # The right-hand side is pure-time and equals minus the solution.
    for t in (0.0, 0.3, 1.0):
        assert p.rhs(t, 123.4j) == -p.exact(t)


def test_nonlinear_square_jacobian():
    p = nonlinear_square(0.6, 0.5j)
    for u in (0.0, 1.5, 2.0 - 1.0j):
        assert p.rhs_du(0.3, u) == -2.0 * u


def test_nonlinear_square_forcing_evaluated_once_per_step(monkeypatch):
    # Newton calls rhs several times at each t_n; the forcing's
    # Mittag-Leffler term is computed once per step.
    calls = []
    original = harness.mittag_leffler

    def counting(alpha, beta, z):
        calls.append(z)
        return original(alpha, beta, z)

    monkeypatch.setattr(harness, "mittag_leffler", counting)
    M, k = 64, 2
    report = solve(nonlinear_square(0.5, -1.0), (2, 2), GridSpec(T=1.0, M=M), starting="exact")
    assert report.newton_iters.sum() > M - k + 1
    assert len(calls) == M - k + 1


@pytest.mark.parametrize("problem", [linear_complex(0.6, -1.0 + 0.5j),
                                     nonlinear_square(0.6, 0.5 + 0.5j)])
def test_manufactured_forcing_consistency(problem):
    """The forcing must make the stated exact solution solve the equation.

    Checked against the quadrature oracle applied to the exact solution: the
    discrete fractional derivative of the sampled solution has to track
    rhs(t, u(t)) up to the cubic interpolation error.
    """
    grid = GridSpec(T=1.0, M=48)
    samples = np.array([problem.exact(t) for t in grid.times()])
    for n in (8, 24, 48):
        itp = build_interpolant(SchemeId(3, 3), grid, samples, n)
        lhs = oracle_discrete_caputo(itp, problem.alpha)
        rhs = problem.rhs(grid.node(n), problem.exact(grid.node(n)))
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


def test_run_convergence_thread_count_invariant():
    serial = run_convergence(mlf_decay, [(1, 1), (2, 2)], [0.5], [8, 16, 32])
    threaded = run_convergence(mlf_decay, [(1, 1), (2, 2)], [0.5], [8, 16, 32], threads=4)
    assert serial == threaded
    with pytest.raises(ConfigError):
        run_convergence(mlf_decay, [(1, 1)], [0.5], [8], threads=0)


def test_run_convergence_blowup_rows():
    def factory(alpha):
        return ProblemSpec(alpha=alpha, u0=0.0, rhs=lambda t, u: 1e35, lam=0.0,
                           exact=lambda t: 0.0 + 0.0j)

    rows = run_convergence(factory, [(1, 1)], [0.5], [8, 16])
    assert all(r.blowup for r in rows)
    assert all(r.rate is None for r in rows)
    # blown runs report the overflow magnitude, not an error
    assert all(r.abs_err > 1e30 for r in rows)


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
    assert cfg.problem_label == "mlf_decay"
    assert cfg.hold_first_value is False
    problem = cfg.problem_for(0.3)
    assert problem.alpha == 0.3


def test_parse_config_single_m_and_options():
    raw = {
        "problem": {"tag": "linear_complex", "lambda": "1+2i"},
        "alpha": 0.5,
        "schemes": [[1, 1]],
        "grid": {"T": 2.0, "M": 64},
        "starting": "exact",
        "newton": {"tol": 1e-12, "max_iter": 20},
        "hold_first_value": True,
    }
    cfg = parse_config(raw)
    assert cfg.single_M == 64
    assert cfg.M_list == (64,)
    assert cfg.alphas == (0.5,)
    assert cfg.newton.tol == 1e-12
    assert cfg.newton.max_iter == 20
    assert cfg.hold_first_value is True
    assert cfg.problem_for(0.5).lam == 1.0 + 2.0j


def test_parse_config_expression_problem():
    raw = {
        "problem": {"rhs": {"expr": "-u + cos(t)"}, "exact": {"expr": "exp(-t)"}},
        "alpha": 0.5,
        "schemes": [[2, 1]],
        "grid": {"T": 1.0, "M": 8},
    }
    cfg = parse_config(raw)
    assert cfg.problem_label == "expr"
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
    lambda raw: raw.update(hold_first_value="yes"),
    lambda raw: raw.update(hold_first_value=True),  # schemes include k = 2
    lambda raw: raw.update(newton=[1e-12]),
    lambda raw: raw.update(newton={"tol": 1e-12, "damping": 0.5}),
    lambda raw: raw.update(newton={"tol": 0.0}),
])
def test_parse_config_rejects(mangle):
    raw = _good_config()
    mangle(raw)
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_parse_config_not_an_object():
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_good_config()))
    cfg = load_config(path)
    assert cfg.problem_label == "mlf_decay"

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
    for rec, err in zip(recs, report.errors):
        assert rec["exact"] is not None
        assert rec["abs_err"] == pytest.approx(err, abs=1e-15)


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
