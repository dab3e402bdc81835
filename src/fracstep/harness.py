"""Reproduction harness: benchmark problems, convergence tables, truncation studies.

The three builtin problems all have closed-form solutions on [0, 1]:

  mlf_decay          D^alpha u = -E_alpha(-t^alpha),        u = E_alpha(-t^alpha)
  linear_complex     D^alpha u = lam*u + g(t),              u = exp(-t)
  nonlinear_square   D^alpha u = -u^2 + g(t),               u = exp(mu*t)

with g chosen so the stated u solves the equation (E_{1,2-alpha} terms).
Convergence runs record the endpoint error |u(t_M) - u_M| and the dyadic rate
log2(err_{M/2} / err_M); blowup rows record the overflow magnitude instead.
"""

import cmath
import csv
import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr as exprmod
from .operator import GridSpec, Trajectory, apply_discrete_caputo
from .oracle import caputo_monomial
from .solver import NewtonConfig, ProblemSpec, SolveReport, solve
from .special import mittag_leffler, require_finite_complex
from .weights import SchemeId, weight_table

__all__ = [
    "ConfigError",
    "mlf_decay",
    "linear_complex",
    "nonlinear_square",
    "problem_factory",
    "ConvergenceRow",
    "run_convergence",
    "TruncationSample",
    "run_truncation_study",
    "fit_order",
    "RunConfig",
    "parse_config",
    "load_config",
    "write_convergence_csv",
    "read_convergence_csv",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "format_float",
    "parse_complex",
    "format_complex",
]


class ConfigError(ValueError):
    """Malformed run configuration."""


# ---------------------------------------------------------------------------
# builtin problems

def mlf_decay(alpha: float) -> ProblemSpec:
    """Pure-time right-hand side whose solution is the Mittag-Leffler decay."""

    def exact(t: float) -> complex:
        return mittag_leffler(alpha, 1.0, -(t ** alpha))

    def rhs(t: float, u: complex) -> complex:
        return -mittag_leffler(alpha, 1.0, -(t ** alpha))

    return ProblemSpec(alpha=alpha, u0=1.0 + 0.0j, rhs=rhs, lam=0.0 + 0.0j, exact=exact,
                       name="mlf_decay")


def linear_complex(alpha: float, lam) -> ProblemSpec:
    """D^alpha u = lam*u + g with exact solution exp(-t); lam may be complex."""
    lam = require_finite_complex(lam, "lam")

    def exact(t: float) -> complex:
        return cmath.exp(complex(-t))

    def forcing(t: float) -> complex:
        if t == 0.0:
            return -lam  # t^(1-alpha) vanishes, exp(0) = 1
        return -(t ** (1.0 - alpha)) * mittag_leffler(1.0, 2.0 - alpha, -t) - lam * cmath.exp(complex(-t))

    def rhs(t: float, u: complex) -> complex:
        return lam * u + forcing(t)

    return ProblemSpec(alpha=alpha, u0=1.0 + 0.0j, rhs=rhs, lam=lam, exact=exact,
                       name="linear_complex")


def nonlinear_square(alpha: float, mu) -> ProblemSpec:
    """D^alpha u = -u^2 + g with exact solution exp(mu*t); mu may be complex."""
    mu = require_finite_complex(mu, "mu")

    def exact(t: float) -> complex:
        return cmath.exp(mu * t)

    # Newton evaluates rhs several times at one t; the forcing is computed once.
    @functools.lru_cache(maxsize=1)
    def forcing(t: float) -> complex:
        if t == 0.0:
            return 1.0 + 0.0j  # the mu * t^(1-alpha) * E term vanishes at 0
        return mu * (t ** (1.0 - alpha)) * mittag_leffler(1.0, 2.0 - alpha, mu * t) + cmath.exp(2.0 * mu * t)

    def rhs(t: float, u: complex) -> complex:
        return -u * u + forcing(t)

    def rhs_du(t: float, u: complex) -> complex:
        return -2.0 * u

    return ProblemSpec(alpha=alpha, u0=1.0 + 0.0j, rhs=rhs, rhs_du=rhs_du, exact=exact,
                       name="nonlinear_square")


# ---------------------------------------------------------------------------
# convergence study

@dataclass(frozen=True)
class ConvergenceRow:
    alpha: float
    k: int
    i: int
    M: int
    abs_err: float
    rate: Optional[float]
    blowup: bool = False


def _endpoint(problem: ProblemSpec, scheme: SchemeId, M: int, T: float,
              starting: Optional[str], newton: Optional[NewtonConfig],
              hold_first_value: bool):
    report = solve(problem, scheme, GridSpec(T=T, M=M), starting=starting, newton=newton,
                   hold_first_value=hold_first_value)
    if report.blowup:
        return report.max_abs_u, True
    return float(report.errors[-1]), False


def run_convergence(
    problem_for: Callable[[float], ProblemSpec],
    schemes: Sequence,
    alphas: Sequence[float],
    M_list: Sequence[int],
    T: float = 1.0,
    starting: Optional[str] = None,
    newton: Optional[NewtonConfig] = None,
    threads: int = 1,
    hold_first_value: bool = False,
) -> list:
    """Endpoint errors and dyadic rates over the (scheme, alpha, M) lattice.

    Rows are ordered by (scheme, alpha, M) regardless of the executor, so the
    output is byte-stable for any thread count.
    """
    schemes = [s if isinstance(s, SchemeId) else SchemeId(*s) for s in schemes]
    M_list = sorted(int(M) for M in M_list)
    if not (isinstance(threads, int) and threads >= 1):
        raise ConfigError(f"threads must be a positive integer, got {threads!r}")
    tasks = [(s, float(a), M) for s in schemes for a in alphas for M in M_list]

    def work(task):
        s, a, M = task
        return _endpoint(problem_for(a), s, M, T, starting, newton, hold_first_value)

    if threads == 1:
        results = [work(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, tasks))

    by_key = {t: r for t, r in zip(tasks, results)}
    rows = []
    for s in schemes:
        for a in alphas:
            prev_err = None
            for M in M_list:
                err, blown = by_key[(s, float(a), M)]
                rate = None
                if not blown and prev_err is not None and err > 0.0 and prev_err > 0.0:
                    rate = math.log2(prev_err / err)
                rows.append(ConvergenceRow(alpha=float(a), k=s.k, i=s.i, M=M,
                                           abs_err=err, rate=rate, blowup=blown))
                prev_err = None if blown else err
    return rows


# ---------------------------------------------------------------------------
# truncation study

@dataclass(frozen=True)
class TruncationSample:
    k: int
    i: int
    alpha: float
    M: int
    max_abs: float      # max over all n >= k
    origin_max: float   # max over n in [k, 2k]
    tail_max: float     # max over n in [M/2, M]


def run_truncation_study(scheme, alpha: float, degree: int, M_list: Sequence[int],
                         T: float = 1.0) -> list:
    """tau_n = D(t^degree)_n - analytic Caputo value, tracked over M."""
    s = scheme if isinstance(scheme, SchemeId) else SchemeId(*scheme)
    if not (isinstance(degree, int) and 0 <= degree <= 6):
        raise ConfigError(f"monomial degree must be an integer in [0, 6], got {degree!r}")
    out = []
    for M in sorted(int(M) for M in M_list):
        grid = GridSpec(T=T, M=M)
        ts = grid.times()
        traj = Trajectory(grid=grid, values=(ts ** degree).astype(complex))
        table = weight_table(s, alpha, M)
        tau = np.empty(M + 1 - s.k)
        for n in range(s.k, M + 1):
            ref = caputo_monomial(degree, alpha, ts[n])
            tau[n - s.k] = abs(apply_discrete_caputo(table, traj, n) - ref)
        near = tau[: s.k + 1]                      # n = k .. 2k
        tail = tau[max(M // 2 - s.k, 0):]          # n = M/2 .. M
        out.append(TruncationSample(k=s.k, i=s.i, alpha=float(alpha), M=M,
                                    max_abs=float(tau.max()),
                                    origin_max=float(near.max()),
                                    tail_max=float(tail.max())))
    return out


def fit_order(M_list: Sequence[int], errs: Sequence[float]) -> float:
    """Least-squares order p in err ~ C * M^(-p)."""
    x = np.log2(np.asarray(M_list, dtype=float))
    y = np.log2(np.asarray(errs, dtype=float))
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope)


# ---------------------------------------------------------------------------
# configuration

_TOP_KEYS = {"problem", "alpha", "schemes", "grid", "starting", "newton", "hold_first_value"}
_PROBLEM_TAG_KEYS = {
    "mlf_decay": {"tag"},
    "linear_complex": {"tag", "lambda"},
    "nonlinear_square": {"tag", "mu"},
}
_EXPR_PROBLEM_KEYS = {"rhs", "exact", "u0"}
_GRID_KEYS = {"T", "M", "M_list"}
_NEWTON_KEYS = {"tol", "max_iter"}


@dataclass(frozen=True)
class RunConfig:
    problem_for: Callable[[float], ProblemSpec]
    alphas: tuple
    schemes: tuple
    T: float
    M_list: tuple
    single_M: Optional[int]
    starting: Optional[str]
    newton: Optional[NewtonConfig]
    problem_label: str
    hold_first_value: bool = False


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} field(s): {', '.join(sorted(unknown))}")


def parse_complex(text) -> complex:
    """Parse 'RE', 'IMi', or 'RE+IMi' (also accepts plain numbers)."""
    if isinstance(text, (int, float)):
        return complex(text)
    if not isinstance(text, str):
        raise ConfigError(f"not a complex value: {text!r}")
    s = text.strip().replace(" ", "")
    unum = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
    num = rf"[+-]?{unum}"
    import re as _re
    if _re.fullmatch(num, s):
        return complex(float(s), 0.0)
    m = _re.fullmatch(rf"({num})([+-])({unum})?i", s)
    if m:
        return complex(float(m.group(1)), float(m.group(2) + (m.group(3) or "1")))
    m = _re.fullmatch(rf"([+-]?)({unum})?i", s)
    if m:
        return complex(0.0, float((m.group(1) or "") + (m.group(2) or "1")))
    raise ConfigError(f"cannot parse complex value {text!r} (expected RE, IMi or RE+IMi)")


def format_complex(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{format_float(z.real)}{sign}{format_float(abs(z.imag))}i"


def _expression_problem(spec: dict) -> Callable[[float], ProblemSpec]:
    _reject_unknown(spec, _EXPR_PROBLEM_KEYS, "problem")
    if "rhs" not in spec:
        raise ConfigError("expression problem needs an 'rhs' entry")
    for key in ("rhs", "exact"):
        if key in spec:
            entry = spec[key]
            if not (isinstance(entry, dict) and set(entry) == {"expr"} and isinstance(entry["expr"], str)):
                raise ConfigError(f"problem.{key} must be an object {{\"expr\": \"...\"}}")
    rhs_ast = exprmod.parse(spec["rhs"]["expr"])
    exact_ast = exprmod.parse(spec["exact"]["expr"]) if "exact" in spec else None
    if "u0" in spec:
        u0 = parse_complex(spec["u0"])
    elif exact_ast is not None:
        u0 = exprmod.evaluate(exact_ast, t=0.0)
    else:
        raise ConfigError("expression problem needs 'u0' when no exact solution is given")

    def factory(alpha: float) -> ProblemSpec:
        def rhs(t, u):
            return exprmod.evaluate(rhs_ast, t=t, u=u)

        exact = None
        if exact_ast is not None:
            def exact(t):
                return exprmod.evaluate(exact_ast, t=t)

        return ProblemSpec(alpha=alpha, u0=u0, rhs=rhs, exact=exact, name="expr")

    return factory


def problem_factory(spec: dict):
    """(factory, label) from the config 'problem' object."""
    if not isinstance(spec, dict):
        raise ConfigError(f"problem must be an object, got {type(spec).__name__}")
    if "tag" in spec:
        tag = spec["tag"]
        if tag not in _PROBLEM_TAG_KEYS:
            raise ConfigError(f"unknown problem tag {tag!r}")
        _reject_unknown(spec, _PROBLEM_TAG_KEYS[tag], "problem")
        if tag == "mlf_decay":
            return mlf_decay, tag
        if tag == "linear_complex":
            if "lambda" not in spec:
                raise ConfigError("linear_complex needs a 'lambda' value")
            lam = parse_complex(spec["lambda"])
            return (lambda a: linear_complex(a, lam)), tag
        if "mu" not in spec:
            raise ConfigError("nonlinear_square needs a 'mu' value")
        mu = parse_complex(spec["mu"])
        return (lambda a: nonlinear_square(a, mu)), tag
    return _expression_problem(spec), "expr"


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "configuration")
    for key in ("problem", "alpha", "schemes", "grid"):
        if key not in raw:
            raise ConfigError(f"configuration is missing '{key}'")

    factory, label = problem_factory(raw["problem"])

    alpha_raw = raw["alpha"]
    alphas = alpha_raw if isinstance(alpha_raw, list) else [alpha_raw]
    for a in alphas:
        if not (isinstance(a, (int, float)) and 0.0 < a < 1.0):
            raise ConfigError(f"alpha values must lie in (0, 1), got {a!r}")

    schemes_raw = raw["schemes"]
    if not (isinstance(schemes_raw, list) and schemes_raw):
        raise ConfigError("schemes must be a nonempty list of [k, i] pairs")
    schemes = []
    for entry in schemes_raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ConfigError(f"scheme entries must be [k, i] pairs, got {entry!r}")
        try:
            schemes.append(SchemeId(int(entry[0]), int(entry[1])))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    grid = raw["grid"]
    if not isinstance(grid, dict):
        raise ConfigError("grid must be an object")
    _reject_unknown(grid, _GRID_KEYS, "grid")
    if "T" not in grid or not (isinstance(grid["T"], (int, float)) and grid["T"] > 0):
        raise ConfigError("grid.T must be a positive number")
    if ("M" in grid) == ("M_list" in grid):
        raise ConfigError("grid needs exactly one of 'M' or 'M_list'")
    single_M = None
    if "M" in grid:
        if not (isinstance(grid["M"], int) and grid["M"] >= 1):
            raise ConfigError("grid.M must be a positive integer")
        single_M = grid["M"]
        M_list = (grid["M"],)
    else:
        entries = grid["M_list"]
        if not (isinstance(entries, list) and entries
                and all(isinstance(M, int) and M >= 1 for M in entries)):
            raise ConfigError("grid.M_list must be a nonempty list of positive integers")
        M_list = tuple(sorted(entries))

    starting = raw.get("starting")
    if starting is not None and starting not in ("exact", "bootstrap"):
        raise ConfigError(f"starting must be 'exact' or 'bootstrap', got {starting!r}")

    hold = raw.get("hold_first_value", False)
    if not isinstance(hold, bool):
        raise ConfigError("hold_first_value must be a boolean")
    if hold and any(s.k != 1 for s in schemes):
        raise ConfigError("hold_first_value applies only to k = 1 schemes")

    newton = None
    if "newton" in raw:
        nraw = raw["newton"]
        if not isinstance(nraw, dict):
            raise ConfigError("newton must be an object")
        _reject_unknown(nraw, _NEWTON_KEYS, "newton")
        try:
            newton = NewtonConfig(tol=nraw.get("tol", 1e-13), max_iter=nraw.get("max_iter", 50))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    return RunConfig(problem_for=factory, alphas=tuple(float(a) for a in alphas),
                     schemes=tuple(schemes), T=float(grid["T"]), M_list=M_list,
                     single_M=single_M, starting=starting, newton=newton,
                     problem_label=label, hold_first_value=hold)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    return parse_config(raw)


# ---------------------------------------------------------------------------
# CSV round-trip helpers

def format_float(x: float) -> str:
    """Shortest digit string that round-trips the double exactly."""
    return repr(float(x))


def write_convergence_csv(rows, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["alpha", "k", "i", "M", "abs_err", "rate"])
    for row in rows:
        writer.writerow([
            format_float(row.alpha), row.k, row.i, row.M,
            format_float(row.abs_err),
            "" if row.rate is None else format_float(row.rate),
        ])


def read_convergence_csv(fh) -> list:
    reader = csv.reader(fh)
    header = next(reader)
    if header != ["alpha", "k", "i", "M", "abs_err", "rate"]:
        raise ConfigError(f"unexpected convergence CSV header: {header}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        rows.append(ConvergenceRow(
            alpha=float(rec[0]), k=int(rec[1]), i=int(rec[2]), M=int(rec[3]),
            abs_err=float(rec[4]), rate=None if rec[5] == "" else float(rec[5]),
        ))
    return rows


def write_trajectory_csv(report: SolveReport, fh, exact: Optional[Callable] = None) -> None:
    grid = report.trajectory.grid
    values = report.trajectory.values
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["n", "t", "u_re", "u_im", "exact_re", "exact_im", "abs_err"])
    for n in range(grid.M + 1):
        t = grid.node(n)
        u = values[n]
        rec = [n, format_float(t), format_float(u.real), format_float(u.imag)]
        if exact is not None:
            ref = complex(exact(t))
            rec += [format_float(ref.real), format_float(ref.imag), format_float(abs(u - ref))]
        elif report.errors is not None:
            rec += ["", "", format_float(report.errors[n])]
        else:
            rec += ["", "", ""]
        writer.writerow(rec)


def read_trajectory_csv(fh) -> list:
    reader = csv.reader(fh)
    header = next(reader)
    if header != ["n", "t", "u_re", "u_im", "exact_re", "exact_im", "abs_err"]:
        raise ConfigError(f"unexpected trajectory CSV header: {header}")
    out = []
    for rec in reader:
        if not rec:
            continue
        out.append({
            "n": int(rec[0]),
            "t": float(rec[1]),
            "u": complex(float(rec[2]), float(rec[3])),
            "exact": None if rec[4] == "" else complex(float(rec[4]), float(rec[5])),
            "abs_err": None if rec[6] == "" else float(rec[6]),
        })
    return out
