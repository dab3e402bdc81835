"""Command-line front end.

Subcommands: weights, solve, converge, truncation, locus, member, mlf.
Usage mistakes exit with status 1, failed computations with status 2; output
files are written atomically (temp file in the target directory, then rename)
so an aborted run never leaves a partial file behind.
"""

import argparse
import os
import sys
import tempfile

from .harness import (
    ConfigError,
    format_float,
    load_config,
    parse_complex,
    run_convergence,
    run_truncation_study,
    write_convergence_csv,
    write_csv,
    write_trajectory_csv,
)
from .kernel import kernel_table
from .operator import GridSpec
from .solver import NewtonDivergedError, PivotBreakdownError, solve
from .special import MittagLefflerError, mittag_leffler
from .stability import boundary_locus, in_stability_region
from .weights import SchemeId, WeightConsistencyError, weight_table

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_atomic(path, render) -> None:
    """render(fh) into a sibling temp file, then rename over the target."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".fracstep-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            render(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(path, render) -> None:
    if path is None or path == "-":
        render(sys.stdout)
    else:
        _write_atomic(path, render)


def _add_scheme_args(p) -> None:
    p.add_argument("--k", type=int, required=True, help="polynomial degree, 1..3")
    p.add_argument("--i", type=int, required=True, help="evaluation offset, 1..k")


def _add_alpha_arg(p) -> None:
    p.add_argument("--alpha", type=float, required=True, help="fractional order in (0, 1)")


def _scheme_of(args) -> SchemeId:
    return SchemeId(args.k, args.i)


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_weights(args) -> int:
    scheme = _scheme_of(args)
    if args.dump_kernel:
        if args.q is None or args.r is None:
            raise ValueError("--dump-kernel needs both --q and --r")
        rows = enumerate(kernel_table(args.alpha, args.q, args.r, args.n_max))
        _emit(args.output, lambda fh: write_csv(fh, ["n", "value"], rows))
        return 0
    if args.q is not None or args.r is not None:
        raise ValueError("--q and --r apply only with --dump-kernel")
    table = weight_table(scheme, args.alpha, args.n_max)

    def render(fh):
        write_csv(fh, ["n", "omega"], ((n, table.omega[n]) for n in range(args.n_max + 1)))
        fh.write("\n")
        write_csv(fh, ["n", "j", "w"], ((n, j, w) for n in range(scheme.k, args.n_max + 1)
                                        for j, w in enumerate(table.starting[n])))

    _emit(args.output, render)
    return 0


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if cfg.single_M is None:
        raise ConfigError("solve needs grid.M (a single step count), not M_list")
    if len(cfg.schemes) != 1 or len(cfg.alphas) != 1:
        raise ConfigError("solve needs exactly one scheme and one alpha")
    problem = cfg.problem_for(cfg.alphas[0])
    report = solve(problem, cfg.schemes[0], GridSpec(T=cfg.T, M=cfg.single_M),
                   starting=cfg.starting, newton=cfg.newton)
    _emit(args.output, lambda fh: write_trajectory_csv(report, fh, exact=problem.exact))
    if report.blowup:
        print(f"warning: blowup detected, max |u| = {report.max_abs_u:.6e}", file=sys.stderr)
    return 0


def _cmd_converge(args) -> int:
    cfg = load_config(args.config)
    rows = run_convergence(cfg.problem_for, cfg.schemes, cfg.alphas, cfg.M_list,
                           T=cfg.T, starting=cfg.starting, newton=cfg.newton)
    _emit(args.output, lambda fh: write_convergence_csv(rows, fh))
    return 0


def _cmd_truncation(args) -> int:
    M_list = _parse_int_list(args.M_list, "--M-list")
    samples = run_truncation_study(_scheme_of(args), args.alpha, args.degree, M_list)
    header = ["k", "i", "alpha", "M", "max_abs", "origin_max", "tail_max"]
    rows = [(s.k, s.i, s.alpha, s.M, s.max_abs, s.origin_max, s.tail_max) for s in samples]
    _emit(args.output, lambda fh: write_csv(fh, header, rows))
    return 0


def _cmd_locus(args) -> int:
    given = {key: getattr(args, key) for key in ("terms", "samples") if getattr(args, key) is not None}
    curve = boundary_locus(_scheme_of(args), args.alpha, **given)
    rows = [(theta, z.real, z.imag) for theta, z in zip(curve.thetas, curve.points)]
    _emit(args.output, lambda fh: write_csv(fh, ["theta", "re", "im"], rows))
    return 0


def _cmd_member(args) -> int:
    verdict = in_stability_region(_scheme_of(args), args.alpha, parse_complex(args.z))
    print(f"{verdict.verdict},{format_float(verdict.margin)}")
    return 2 if verdict.verdict == "boundary" else 0


def _cmd_mlf(args) -> int:
    value = mittag_leffler(args.alpha, args.beta, parse_complex(args.z))
    print(f"{format_float(value.real)},{format_float(value.imag)}")
    return 0


def _parse_int_list(text: str, flag: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} expects at least one integer")
    return values


# ---------------------------------------------------------------------------
# parser wiring

def _build_parser() -> _Parser:
    parser = _Parser(prog="fracstep",
                     description="Fractional-order initial value problem toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="dump convolution and starting weights as CSV")
    _add_scheme_args(p)
    _add_alpha_arg(p)
    p.add_argument("--n-max", type=int, required=True, help="largest step index")
    p.add_argument("--dump-kernel", action="store_true",
                   help="dump kernel integrals for --q/--r instead of weights")
    p.add_argument("--q", type=int, help="kernel shift (with --dump-kernel)")
    p.add_argument("--r", type=int, help="kernel difference order (with --dump-kernel)")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("solve", help="integrate one problem from a JSON config")
    p.add_argument("--config", required=True, help="JSON configuration path")
    p.add_argument("-o", "--output", help="trajectory CSV path (default: stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("converge", help="error/rate table over a grid refinement")
    p.add_argument("--config", required=True, help="JSON configuration path")
    p.add_argument("-o", "--output", help="convergence CSV path (default: stdout)")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("truncation", help="operator truncation error on a monomial")
    _add_scheme_args(p)
    _add_alpha_arg(p)
    p.add_argument("--degree", type=int, required=True, help="monomial degree, 0..6")
    p.add_argument("--M-list", required=True, dest="M_list",
                   help="comma-separated step counts, e.g. 64,128,256")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_truncation)

    p = sub.add_parser("locus", help="sample the stability region boundary curve")
    _add_scheme_args(p)
    _add_alpha_arg(p)
    p.add_argument("--terms", type=int, help="series truncation length (default: the library's)")
    p.add_argument("--samples", type=int, help="number of boundary points (default: the library's)")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_locus)

    p = sub.add_parser("member", help="test one complex point against the stability region")
    _add_scheme_args(p)
    _add_alpha_arg(p)
    p.add_argument("--z", required=True, help="complex point, e.g. '-0.5+0.25i'")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("mlf", help="evaluate the two-parameter Mittag-Leffler function")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--z", required=True, help="complex argument, e.g. '-2.5' or '1+2i'")
    p.set_defaults(func=_cmd_mlf)

    return parser


_RUNTIME_ERRORS = (
    MittagLefflerError,
    WeightConsistencyError,
    NewtonDivergedError,
    PivotBreakdownError,
    ValueError,
    OSError,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _RUNTIME_ERRORS as exc:
        print(f"fracstep: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
