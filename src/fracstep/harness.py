"""Reproduction harness: benchmark problems, convergence tables, truncation studies.

The three builtin problems all have closed-form solutions on [0, 1]:

  mlf_decay          D^alpha u = g(t),                      u = E_alpha(-t^alpha)
  linear_complex     D^alpha u = lam*u + g(t),              u = exp(-t)
  nonlinear_square   D^alpha u = -u^2 + g(t),               u = exp(mu*t)

with the forcing g chosen so the stated u solves the equation (g =
-E_alpha(-t^alpha) for the decay, E_{1,2-alpha} terms for the others).
Convergence runs record the endpoint error |u(t_M) - u_M| and the dyadic rate
log2(err_{M/2} / err_M); blowup rows record the largest finite |u_n| instead.

parse_config checks a configuration's structure (JSON shape, unknown keys,
problem tags, repeated values) itself and leaves the value rules to the
library's checks: require_alpha, ProblemSpec (built once, for the first
alpha), SchemeId, GridSpec, NewtonConfig and the solver's starting-mode rule;
a ValueError from any of them becomes a ConfigError.
"""

import cmath
import csv
import json
import math
import re
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr as exprmod
from .operator import GridSpec, Trajectory, apply_discrete_caputo
from .oracle import caputo_monomial
from .solver import NewtonConfig, ProblemSpec, SolveReport, _check_starting, solve
from .special import mittag_leffler, require_alpha, require_count, require_finite_complex
from .weights import _as_scheme, weight_table

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
    "write_csv",
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
    alpha = require_alpha(alpha)   # a float, so the closures compute in double precision

    def exact(t: float) -> complex:
        return mittag_leffler(alpha, 1.0, -(t ** alpha))

    def forcing(t):   # a float or an ndarray of t
        return -mittag_leffler(alpha, 1.0, -(t ** alpha))

    def rhs(t: float, u: complex) -> complex:
        return 0j

    return ProblemSpec(alpha=alpha, u0=1.0 + 0.0j, rhs=rhs, lam=0.0 + 0.0j, exact=exact,
                       forcing=forcing)


def linear_complex(alpha: float, lam) -> ProblemSpec:
    """D^alpha u = lam*u + g with exact solution exp(-t); lam may be complex."""
    alpha, lam = require_alpha(alpha), require_finite_complex(lam, "lam")

    def exact(t: float) -> complex:
        return cmath.exp(complex(-t))

    def forcing(t):   # a float or an ndarray of t; at t = 0 it is -lam
        return -(t ** (1.0 - alpha)) * mittag_leffler(1.0, 2.0 - alpha, -t) - lam * np.exp(-t)

    def rhs(t: float, u: complex) -> complex:
        return lam * u

    return ProblemSpec(alpha=alpha, u0=1.0 + 0.0j, rhs=rhs, lam=lam, exact=exact,
                       forcing=forcing)


def nonlinear_square(alpha: float, mu) -> ProblemSpec:
    """D^alpha u = -u^2 + g with exact solution exp(mu*t); mu may be complex."""
    alpha, mu = require_alpha(alpha), require_finite_complex(mu, "mu")

    def exact(t: float) -> complex:
        return cmath.exp(mu * t)

    def forcing(t):   # a float or an ndarray of t; exactly 1 at t = 0
        return mu * (t ** (1.0 - alpha)) * mittag_leffler(1.0, 2.0 - alpha, mu * t) + np.exp(2.0 * mu * t)

    def rhs(t: float, u: complex) -> complex:
        return -u * u

    def rhs_du(t: float, u: complex) -> complex:
        return -2.0 * u

    return ProblemSpec(alpha=alpha, u0=1.0 + 0.0j, rhs=rhs, rhs_du=rhs_du, exact=exact,
                       forcing=forcing)


# ---------------------------------------------------------------------------
# convergence study

class _GridForcing:
    """forcing, with its values on t_1..t_M of one grid kept from the first such call.

    solve asks for exactly those nodes; any other t goes to forcing.
    """

    def __init__(self, forcing, grid):
        self._forcing, self._times, self._values = forcing, grid.times()[1:], None

    def __call__(self, t):
        if not (isinstance(t, np.ndarray) and np.array_equal(t, self._times)):
            return self._forcing(t)
        if self._values is None:
            self._values = self._forcing(self._times)
        return self._values


def _on_grid(problem: ProblemSpec, grid: GridSpec) -> ProblemSpec:
    """problem with its forcing, if any, evaluated once on the grid's nodes."""
    if problem.forcing is None:
        return problem
    return replace(problem, forcing=_GridForcing(problem.forcing, grid))


@dataclass(frozen=True)
class ConvergenceRow:
    alpha: float
    k: int
    i: int
    M: int
    abs_err: float
    rate: Optional[float]
    blowup: bool = False


def run_convergence(
    problem_for: Callable[[float], ProblemSpec],
    schemes: Sequence,
    alphas: Sequence[float],
    M_list: Sequence[int],
    T: float = 1.0,
    starting: Optional[str] = None,
    newton: Optional[NewtonConfig] = None,
) -> list:
    """Endpoint errors and dyadic rates over the (scheme, alpha, M) lattice.

    Rows keep the caller's order of schemes and alphas; M runs ascending.
    A repeated scheme, alpha or M raises ConfigError: it would repeat rows,
    and a repeated M would report log2(err/err) = 0 as a measured rate.  Every
    solve asks for a declared forcing on t_1..t_M, so it is evaluated once
    per (alpha, M), inside that grid's first solve.
    """
    _reject_repeats(alphas, "alpha")
    _reject_repeats(M_list, "M_list")
    schemes = [_as_scheme(s) for s in schemes]
    _reject_repeats(schemes, "schemes")
    grids = sorted((GridSpec(T=T, M=M) for M in M_list), key=lambda g: g.M)
    problems = {float(a): problem_for(float(a)) for a in alphas}
    if any(p.exact is None for p in problems.values()):
        raise ValueError("a convergence run needs a problem with an exact solution")
    cells = {(a, grid.M): _on_grid(p, grid) for a, p in problems.items() for grid in grids}
    rows = []
    for s in schemes:
        for a in alphas:
            prev_err = None
            for grid in grids:
                report = solve(cells[float(a), grid.M], s, grid, starting=starting, newton=newton)
                blown = report.blowup
                err = report.max_abs_u if blown else report.final_error
                rate = None
                if not blown and prev_err is not None and err > 0.0 and prev_err > 0.0:
                    rate = math.log2(prev_err / err)
                rows.append(ConvergenceRow(alpha=float(a), k=s.k, i=s.i, M=grid.M,
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


def run_truncation_study(scheme, alpha: float, degree: int, M_list: Sequence[int]) -> list:
    """tau_n = D(t^degree)_n - analytic Caputo value on [0, 1] (T = 1), tracked over M."""
    s = _as_scheme(scheme)
    try:
        degree = require_count(degree, "degree", 0, 6)
        grids = sorted((GridSpec(T=1.0, M=M) for M in M_list), key=lambda g: g.M)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if grids and grids[0].M < s.k:
        raise ConfigError(f"M must be at least k = {s.k}, got M = {grids[0].M}")
    out = []
    for grid in grids:
        M = grid.M
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

_TOP_KEYS = {"problem", "alpha", "schemes", "grid", "starting", "newton"}
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


def _reject_repeats(values, where):
    seen = set()
    for v in values:
        if v in seen:
            raise ConfigError(f"{where} repeats the value {v!r}")
        seen.add(v)


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} field(s): {', '.join(sorted(unknown))}")


def parse_complex(text) -> complex:
    """Parse 'RE', 'IMi', or 'RE+IMi' (also accepts plain numbers)."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        try:
            return complex(text)
        except OverflowError:
            raise ConfigError(f"not a complex value: {text!r}") from None
    if not isinstance(text, str):
        raise ConfigError(f"not a complex value: {text!r}")
    s = text.strip().replace(" ", "")
    unum = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
    num = rf"[+-]?{unum}"
    if re.fullmatch(num, s):
        return complex(float(s), 0.0)
    m = re.fullmatch(rf"({num})([+-])({unum})?i", s)
    if m:
        return complex(float(m.group(1)), float(m.group(2) + (m.group(3) or "1")))
    m = re.fullmatch(rf"([+-]?)({unum})?i", s)
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
    asts = {}
    for key in ("rhs", "exact"):
        if key in spec:
            entry = spec[key]
            if not (isinstance(entry, dict) and set(entry) == {"expr"} and isinstance(entry["expr"], str)):
                raise ConfigError(f"problem.{key} must be an object {{\"expr\": \"...\"}}")
            try:
                asts[key] = exprmod.parse(entry["expr"])
            except exprmod.ExprSyntaxError as exc:
                raise ConfigError(f"problem.{key}: {exc}") from None
    rhs_ast, exact_ast = asts["rhs"], asts.get("exact")
    if exact_ast is not None and "u" in exprmod.variables(exact_ast):
        raise ConfigError("problem.exact must be a function of t alone; it reads u")
    at0 = None
    if exact_ast is not None:
        try:
            at0 = require_finite_complex(exprmod.evaluate(exact_ast, t=0.0), "the value")
        except ValueError as exc:
            raise ConfigError(f"problem.exact at t = 0: {exc}") from None
    if "u0" in spec:
        u0 = parse_complex(spec["u0"])   # ProblemSpec checks it against at0
    elif at0 is not None:
        u0 = at0
    else:
        raise ConfigError("expression problem needs 'u0' when no exact solution is given")

    def factory(alpha: float) -> ProblemSpec:
        def rhs(t, u):
            return exprmod.evaluate(rhs_ast, t=t, u=u)

        exact = None
        if exact_ast is not None:
            def exact(t):
                return exprmod.evaluate(exact_ast, t=t)

        return ProblemSpec(alpha=alpha, u0=u0, rhs=rhs, exact=exact)

    return factory


def _builtin_problems() -> dict:
    """tag -> (factory, key of its complex parameter or None).

    Built on each call, so a factory replaced on this module (say, wrapped to
    time it) is the one a config gets.
    """
    return {
        "mlf_decay": (mlf_decay, None),
        "linear_complex": (linear_complex, "lambda"),
        "nonlinear_square": (nonlinear_square, "mu"),
    }


def problem_factory(spec: dict):
    """Problem factory alpha -> ProblemSpec from the config 'problem' object."""
    if not isinstance(spec, dict):
        raise ConfigError(f"problem must be an object, got {type(spec).__name__}")
    if "tag" not in spec:
        return _expression_problem(spec)
    tag, builtins = spec["tag"], _builtin_problems()
    if not (isinstance(tag, str) and tag in builtins):
        raise ConfigError(f"unknown problem tag {tag!r}")
    make, key = builtins[tag]
    _reject_unknown(spec, {"tag", key} - {None}, "problem")
    if key is None:
        return make
    if key not in spec:
        raise ConfigError(f"{tag} needs a '{key}' value")
    param = parse_complex(spec[key])
    return lambda a: make(a, param)


def parse_config(raw: dict) -> RunConfig:
    """RunConfig from a decoded JSON object; any invalid entry raises ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "configuration")
    for key in ("problem", "alpha", "schemes", "grid"):
        if key not in raw:
            raise ConfigError(f"configuration is missing '{key}'")

    factory = problem_factory(raw["problem"])

    alpha_raw = raw["alpha"]
    alpha_list = alpha_raw if isinstance(alpha_raw, list) else [alpha_raw]
    if not alpha_list:
        raise ConfigError("alpha must be a number or a nonempty list of numbers")
    schemes_raw = raw["schemes"]
    if not (isinstance(schemes_raw, list) and schemes_raw):
        raise ConfigError("schemes must be a nonempty list of [k, i] pairs")

    grid = raw["grid"]
    if not isinstance(grid, dict):
        raise ConfigError("grid must be an object")
    _reject_unknown(grid, _GRID_KEYS, "grid")
    if ("M" in grid) == ("M_list" in grid):
        raise ConfigError("grid needs exactly one of 'M' or 'M_list'")
    M_raw = [grid["M"]] if "M" in grid else grid["M_list"]
    if not (isinstance(M_raw, list) and M_raw):
        raise ConfigError("grid.M_list must be a nonempty list")

    starting = raw.get("starting")
    nraw = raw.get("newton", {})
    if not isinstance(nraw, dict):
        raise ConfigError("newton must be an object")
    _reject_unknown(nraw, _NEWTON_KEYS, "newton")

    # the value rules belong to the library's constructors; a violation is a config error
    try:
        alphas = tuple(require_alpha(a) for a in alpha_list)
        factory(alphas[0])   # the problem's own rules, such as exact(0) = u0
        schemes = tuple(_as_scheme(entry) for entry in schemes_raw)
        for s in schemes:
            _check_starting(starting, s.k)
        grids = [GridSpec(T=grid.get("T"), M=M) for M in M_raw]
        newton = NewtonConfig(**nraw) if "newton" in raw else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    M_list = tuple(sorted(g.M for g in grids))
    _reject_repeats(alphas, "alpha")
    _reject_repeats(schemes, "schemes")
    _reject_repeats(M_list, "grid.M_list")

    return RunConfig(problem_for=factory, alphas=alphas, schemes=schemes,
                     T=grids[0].T, M_list=M_list,
                     single_M=M_list[0] if "M" in grid else None, starting=starting,
                     newton=newton)


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


def _csv_cell(v):
    if v is None:
        return ""
    return format_float(v) if isinstance(v, (float, np.floating)) else v


def write_csv(fh, header, rows) -> None:
    """One CSV table: floats by format_float, None as an empty cell, lines ending in newline."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)


def _csv_records(fh, header, what):
    """The nonempty records after a header that must equal header."""
    reader = csv.reader(fh)
    found = next(reader)
    if found != header:
        raise ConfigError(f"unexpected {what} CSV header: {found}")
    return (rec for rec in reader if rec)


_CONVERGENCE_HEADER = ["alpha", "k", "i", "M", "abs_err", "rate", "blowup"]
_TRAJECTORY_HEADER = ["n", "t", "u_re", "u_im", "exact_re", "exact_im", "abs_err"]


def write_convergence_csv(rows, fh) -> None:
    write_csv(fh, _CONVERGENCE_HEADER,
              ((r.alpha, r.k, r.i, r.M, r.abs_err, r.rate, int(r.blowup)) for r in rows))


def read_convergence_csv(fh) -> list:
    return [
        ConvergenceRow(alpha=float(rec[0]), k=int(rec[1]), i=int(rec[2]), M=int(rec[3]),
                       abs_err=float(rec[4]), rate=None if rec[5] == "" else float(rec[5]),
                       blowup=bool(int(rec[6])))
        for rec in _csv_records(fh, _CONVERGENCE_HEADER, "convergence")
    ]


def write_trajectory_csv(report: SolveReport, fh, exact: Optional[Callable] = None) -> None:
    grid = report.trajectory.grid
    values = report.trajectory.values

    def row(n):
        t = grid.node(n)
        u = values[n]
        if exact is None:
            return [n, t, u.real, u.imag, None, None, None]
        ref = complex(exact(t))
        return [n, t, u.real, u.imag, ref.real, ref.imag, abs(u - ref)]

    write_csv(fh, _TRAJECTORY_HEADER, (row(n) for n in range(grid.M + 1)))


def read_trajectory_csv(fh) -> list:
    return [
        {
            "n": int(rec[0]),
            "t": float(rec[1]),
            "u": complex(float(rec[2]), float(rec[3])),
            "exact": None if rec[4] == "" else complex(float(rec[4]), float(rec[5])),
            "abs_err": None if rec[6] == "" else float(rec[6]),
        }
        for rec in _csv_records(fh, _TRAJECTORY_HEADER, "trajectory")
    ]
