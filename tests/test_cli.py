"""End-to-end tests of the command-line interface (in-process via main)."""

import json
import subprocess
import sys

import pytest

from fracstep import ALL_SCHEMES, GridSpec, boundary_locus, solve
from fracstep import cli
from fracstep.cli import main
from fracstep.harness import (format_complex, problem_factory, read_convergence_csv,
                              read_trajectory_csv)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_weights_stdout(capsys):
    rc, out, err = run_cli(capsys, "weights", "--k", "1", "--i", "1",
                           "--alpha", "0.5", "--n-max", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,omega"
    # omega_0 = I_0 = 1/Gamma(1.5)
    assert lines[1] == "0,1.1283791670955126"
    blank = lines.index("")
    assert lines[blank + 1] == "n,j,w"
    assert len(lines[blank + 2:]) == 4  # starting rows for n = 1..4, j = 0


def test_weights_dump_kernel(capsys):
    rc, out, err = run_cli(capsys, "weights", "--k", "1", "--i", "1",
                           "--alpha", "0.5", "--n-max", "2",
                           "--dump-kernel", "--q", "1", "--r", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "0,1.1283791670955126"
    assert len(lines) == 4


def test_weights_dump_kernel_needs_q_and_r(capsys):
    rc, out, err = run_cli(capsys, "weights", "--k", "1", "--i", "1",
                           "--alpha", "0.5", "--n-max", "2", "--dump-kernel")
    assert rc == 2
    assert "fracstep: error:" in err


def test_weights_rejects_bad_scheme(capsys):
    rc, out, err = run_cli(capsys, "weights", "--k", "1", "--i", "2",
                           "--alpha", "0.5", "--n-max", "2")
    assert rc == 2
    assert "fracstep: error:" in err


def test_weights_rejects_bad_alpha(capsys):
    rc, out, err = run_cli(capsys, "weights", "--k", "1", "--i", "1",
                           "--alpha", "1.5", "--n-max", "2")
    assert rc == 2
    assert "alpha" in err


def test_member_origin(capsys):
    rc, out, err = run_cli(capsys, "member", "--k", "1", "--i", "1",
                           "--alpha", "0.5", "--z", "0")
    assert rc == 0
    assert out.strip() == "outside,0.0"


def test_member_inside_point(capsys):
    rc, out, err = run_cli(capsys, "member", "--k", "1", "--i", "1",
                           "--alpha", "0.5", "--z", "-1")
    assert rc == 0
    verdict, margin = out.strip().split(",")
    assert verdict == "inside"
    assert float(margin) > 0.5


def test_member_far_point(capsys):
    # far past 1e154, where a product of two points taken relative to z overflows
    rc, out, err = run_cli(capsys, "member", "--k", "1", "--i", "1",
                           "--alpha", "0.5", "--z", "1e200+1e200i")
    assert rc == 0
    assert out.strip() == "inside,1.414213562373095e+200"


def test_member_boundary_exit_code(capsys):
    z = complex(boundary_locus((1, 1), 0.5, samples=2048).points[37])
    rc, out, err = run_cli(capsys, "member", "--k", "1", "--i", "1",
                           "--alpha", "0.5", "--z", format_complex(z))
    assert rc == 2
    assert out.startswith("boundary,")


def test_member_rejects_malformed_point(capsys):
    rc, out, err = run_cli(capsys, "member", "--k", "1", "--i", "1",
                           "--alpha", "0.5", "--z", "zz")
    assert rc == 2
    assert "fracstep: error:" in err


def test_mlf_values(capsys):
    rc, out, err = run_cli(capsys, "mlf", "--alpha", "1", "--beta", "1", "--z", "1")
    assert rc == 0
    re_text, im_text = out.strip().split(",")
    assert float(re_text) == pytest.approx(2.718281828459045, rel=1e-14)
    assert im_text == "0.0"

    rc, out, err = run_cli(capsys, "mlf", "--alpha", "3", "--beta", "1", "--z", "1")
    assert rc == 2
    assert "fracstep: error:" in err


def test_truncation_stdout(capsys):
    rc, out, err = run_cli(capsys, "truncation", "--k", "1", "--i", "1",
                           "--alpha", "0.5", "--degree", "2", "--M-list", "8,16")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k,i,alpha,M,max_abs,origin_max,tail_max"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[:4] == ["1", "1", "0.5", "8"]
    assert float(first[4]) > float(lines[2].split(",")[4])


def test_truncation_rejects_bad_m_list(capsys):
    rc, out, err = run_cli(capsys, "truncation", "--k", "1", "--i", "1",
                           "--alpha", "0.5", "--degree", "2", "--M-list", "8,x")
    assert rc == 2
    assert "comma-separated integers" in err


def test_truncation_rejects_m_below_k(capsys):
    rc, out, err = run_cli(capsys, "truncation", "--k", "3", "--i", "3",
                           "--alpha", "0.5", "--degree", "2", "--M-list", "2")
    assert rc == 2
    assert "M must be at least k = 3, got M = 2" in err
    assert out == ""


def test_locus_stdout(capsys):
    rc, out, err = run_cli(capsys, "locus", "--k", "2", "--i", "1",
                           "--alpha", "0.5", "--terms", "200", "--samples", "16")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "theta,re,im"
    assert len(lines) == 18  # closed curve repeats the first point
    assert lines[1].split(",")[0] == "0.0"


def test_locus_defaults_are_the_library_defaults(capsys):
    rc, out, err = run_cli(capsys, "locus", "--k", "2", "--i", "1", "--alpha", "0.5")
    assert rc == 0
    curve = boundary_locus((2, 1), 0.5)
    rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
    assert rows == [(theta, z.real, z.imag) for theta, z in zip(curve.thetas, curve.points)]


def _solve_config(tmp_path, **overrides):
    raw = {
        "problem": {"tag": "linear_complex", "lambda": "-1"},
        "alpha": 0.5,
        "schemes": [[2, 1]],
        "grid": {"T": 1.0, "M": 16},
    }
    raw.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("command", ["solve", "converge"])
@pytest.mark.parametrize("problem, message", [
    ({"rhs": {"expr": "-u"}, "exact": {"expr": "exp(1e300*1e300)"}},
     "problem.exact at t = 0: the value must have finite components"),
    ({"rhs": {"expr": "-u"}, "exact": {"expr": "2+t"}, "u0": 1},
     "exact(0) = (2+0j) does not match u0 = (1+0j)"),
], ids=["nonfinite", "mismatch"])
def test_config_exact_at_the_origin_is_a_config_error(tmp_path, capsys, command, problem, message):
    cfg = _solve_config(tmp_path, problem=problem)
    rc, out, err = run_cli(capsys, command, "--config", str(cfg), "-o", str(tmp_path / "out.csv"))
    assert rc == 2
    assert err.startswith("fracstep: error: ") and message in err
    assert not (tmp_path / "out.csv").exists()


def test_solve_writes_trajectory(tmp_path, capsys):
    cfg = _solve_config(tmp_path)
    out_path = tmp_path / "traj.csv"
    rc, out, err = run_cli(capsys, "solve", "--config", str(cfg), "-o", str(out_path))
    assert rc == 0
    assert out == ""
    with open(out_path) as fh:
        recs = read_trajectory_csv(fh)
    assert len(recs) == 17
    assert recs[0]["u"] == 1.0 + 0.0j
    assert all(rec["abs_err"] is not None for rec in recs)


@pytest.mark.parametrize("problem", [{"tag": "linear_complex", "lambda": "-1+0.5i"},
                                     {"tag": "nonlinear_square", "mu": "i"}],
                         ids=["linear_complex", "nonlinear_square"])
def test_solve_and_converge_print_one_endpoint_error(tmp_path, capsys, problem):
    """The solve CSV's last abs_err, final_error and the converge row agree bit for bit."""
    schemes, M_list = [[s.k, s.i] for s in ALL_SCHEMES], [33, 257, 1025]
    cfg = _solve_config(tmp_path, problem=problem, schemes=schemes,
                        grid={"T": 1.0, "M_list": M_list})
    rc, out, err = run_cli(capsys, "converge", "--config", str(cfg), "-o", str(tmp_path / "rates.csv"))
    assert rc == 0
    with open(tmp_path / "rates.csv") as fh:
        table = {(r.k, r.i, r.M): r.abs_err for r in read_convergence_csv(fh)}
    spec = problem_factory(problem)(0.5)
    mismatches = []
    for k, i in schemes:
        for M in M_list:
            cfg = _solve_config(tmp_path, problem=problem, schemes=[[k, i]], grid={"T": 1.0, "M": M})
            rc, out, err = run_cli(capsys, "solve", "--config", str(cfg), "-o", str(tmp_path / "traj.csv"))
            assert rc == 0
            with open(tmp_path / "traj.csv") as fh:
                last = read_trajectory_csv(fh)[-1]["abs_err"]
            final = solve(spec, (k, i), GridSpec(T=1.0, M=M)).final_error
            if not last == final == table[k, i, M]:
                mismatches.append((k, i, M, last, final, table[k, i, M]))
    assert mismatches == []


def test_solve_rejects_m_list_config(tmp_path, capsys):
    cfg = _solve_config(tmp_path, grid={"T": 1.0, "M_list": [8, 16]})
    rc, out, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert rc == 2
    assert "solve needs grid.M" in err


def test_solve_rejects_multiple_schemes(tmp_path, capsys):
    cfg = _solve_config(tmp_path, schemes=[[1, 1], [2, 1]])
    rc, out, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert rc == 2
    assert "exactly one scheme" in err


def test_solve_warns_on_blowup(tmp_path, capsys):
    cfg = _solve_config(tmp_path, problem={"rhs": {"expr": "1e35"}, "u0": "0"},
                        schemes=[[1, 1]], grid={"T": 1.0, "M": 8})
    rc, out, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert rc == 0
    assert "warning: blowup detected" in err


def test_converge_writes_table(tmp_path, capsys):
    cfg = _solve_config(tmp_path, grid={"T": 1.0, "M_list": [16, 8]})
    out_path = tmp_path / "rates.csv"
    rc, out, err = run_cli(capsys, "converge", "--config", str(cfg), "-o", str(out_path))
    assert rc == 0
    with open(out_path) as fh:
        rows = read_convergence_csv(fh)
    assert [(r.M, r.rate is None) for r in rows] == [(8, True), (16, False)]


def test_converge_without_exact_solution_is_runtime_error(tmp_path, capsys):
    cfg = _solve_config(tmp_path, problem={"rhs": {"expr": "-u"}, "u0": "1"},
                        schemes=[[1, 1]], grid={"T": 1.0, "M_list": [8, 16]})
    out_path = tmp_path / "rates.csv"
    rc, out, err = run_cli(capsys, "converge", "--config", str(cfg), "-o", str(out_path))
    assert rc == 2
    assert "fracstep: error:" in err
    assert not out_path.exists()


def test_missing_config_file_is_runtime_error(tmp_path, capsys):
    rc, out, err = run_cli(capsys, "solve", "--config", str(tmp_path / "none.json"))
    assert rc == 2
    assert "fracstep: error:" in err


def test_atomic_write_leaves_no_file(tmp_path, capsys):
    cfg = _solve_config(tmp_path)
    target = tmp_path / "no_such_dir" / "out.csv"
    rc, out, err = run_cli(capsys, "solve", "--config", str(cfg), "-o", str(target))
    assert rc == 2
    assert not target.exists()
    assert not target.parent.exists()


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--k", "1", "--i", "1", "--n-max", "4"])  # missing --alpha
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_module_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "fracstep", "mlf", "--alpha", "1", "--beta", "1", "--z", "0"],
        capture_output=True, text=True, timeout=60, env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1.0,0.0"


def test_solve_reports_a_nonfinite_rhs_value(tmp_path, child_env):
    # exp(1e999*i) evaluates to nan+nanj without raising; Newton must not run on it
    cfg = _solve_config(tmp_path, problem={"rhs": {"expr": "exp(1e999*i) - u"}, "u0": "1"},
                        schemes=[[1, 1]], grid={"T": 1.0, "M": 8})
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "fracstep", "solve", "--config", str(cfg)],
        capture_output=True, text=True, timeout=60, env=child_env,
    )
    assert proc.returncode == 2
    assert proc.stderr == ("fracstep: error: rhs returned a non-finite value (nan+nanj) "
                           "at step 1 (t = 0.125)\n")


def test_weights_dump_kernel_checks_the_scheme(capsys):
    rc, out, err = run_cli(capsys, "weights", "--k", "9", "--i", "9", "--alpha", "0.5",
                           "--n-max", "2", "--dump-kernel", "--q", "1", "--r", "1")
    assert rc == 2
    assert "fracstep: error:" in err and out == ""


def test_weights_rejects_q_and_r_without_dump_kernel(capsys):
    rc, out, err = run_cli(capsys, "weights", "--k", "1", "--i", "1", "--alpha", "0.5",
                           "--n-max", "2", "--q", "7")
    assert rc == 2
    assert "fracstep: error:" in err and out == ""


def test_solve_rejects_int_past_the_float_range(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"problem": {"tag": "mlf_decay"}, "alpha": 1' + "0" * 400 +
                   ', "schemes": [[2, 1]], "grid": {"T": 1.0, "M": 16}}')
    rc, out, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert rc == 2
    assert "fracstep: error:" in err


@pytest.mark.parametrize("rhs, rc", [
    ("re(" * 255 + "-u" + ")" * 255, 0),  # exactly at the nesting bound of 256
    ("0+" * 30000 + "u", 2),
], ids=["at_bound", "long_sum"])
def test_solve_expression_nesting_bound(tmp_path, capsys, rhs, rc):
    cfg = _solve_config(tmp_path, problem={"rhs": {"expr": rhs}, "u0": "1"})
    got, out, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert got == rc
    if rc == 0:
        assert len(out.splitlines()) == 18
    else:
        assert "nested deeper than 256 levels" in err


def test_write_atomic_leaves_the_target_when_render_fails(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("before\n")

    def render(fh):
        fh.write("partial")
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        cli._write_atomic(str(target), render)
    assert target.read_text() == "before\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]   # the temp file is gone


def test_truncation_rejects_an_empty_m_list(capsys):
    rc, out, err = run_cli(capsys, "truncation", "--k", "1", "--i", "1",
                           "--alpha", "0.5", "--degree", "2", "--M-list", ",")
    assert rc == 2
    assert "--M-list expects at least one integer" in err
