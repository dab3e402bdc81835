"""Implicit time stepping for D^alpha u = f(t, u), u(0) = u0, 0 < alpha < 1.

Each step solves omega_0 u_n - dt^alpha f(t_n, u_n) + H_n = 0 with H_n the
weighted history sum.  Linear right-hand sides f = lam*u + g(t) use the closed
form; everything else runs a damped-free Newton iteration.  History evaluation
is a direct O(n) convolution per step (O(M^2) per solve): one BLAS product of
the reversed weights with the (re, im) pairs of the past samples, in ordinary
rounded summation: runs repeat exactly on one machine, but may differ across BLAS builds.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .operator import GridSpec, Trajectory
from .special import require_finite_complex
from .weights import SchemeId, weight_table

__all__ = [
    "ProblemSpec",
    "NewtonConfig",
    "SolveReport",
    "NewtonDivergedError",
    "PivotBreakdownError",
    "solve",
    "bootstrap_starts",
]

_BLOWUP_THRESHOLD = 1e30
_PIVOT_REL_TOL = 1e-14


class NewtonDivergedError(RuntimeError):
    """Newton iteration failed to converge within the iteration budget."""

    def __init__(self, step, t, residual):
        super().__init__(f"Newton diverged at step {step} (t = {t!r}): |residual| = {residual:.3e}")
        self.step = step
        self.residual = residual


class PivotBreakdownError(RuntimeError):
    """The linear step pivot omega_0 - dt^alpha * lam is numerically singular."""


@dataclass(frozen=True)
class ProblemSpec:
    """A fractional IVP D^alpha u = rhs(t, u), u(0) = u0 on t >= 0.

    lam marks a linear structure rhs(t, u) = lam * u + g(t) (lam = 0 for a
    pure-time right-hand side); the solver then steps by the closed form.
    rhs_du is the u-derivative for Newton; omitted means finite differences.
    """

    alpha: float
    u0: complex
    rhs: Callable[[float, complex], complex]
    rhs_du: Optional[Callable[[float, complex], complex]] = None
    lam: Optional[complex] = None
    exact: Optional[Callable[[float], complex]] = None
    name: str = ""

    def __post_init__(self):
        if not (isinstance(self.alpha, (int, float)) and 0.0 < self.alpha < 1.0):
            raise ValueError(f"fractional order must lie in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "u0", require_finite_complex(self.u0, "u0"))
        if self.lam is not None:
            object.__setattr__(self, "lam", require_finite_complex(self.lam, "lam"))
        if self.exact is not None:
            at0 = require_finite_complex(self.exact(0.0), "exact(0)")
            if abs(at0 - self.u0) > 1e-12 * (1.0 + abs(self.u0)):
                raise ValueError(f"exact(0) = {at0} does not match u0 = {self.u0}")


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-13
    max_iter: int = 50
    fd_step_scale: float = 1.5e-8

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"newton tol must lie in (0, 1), got {self.tol!r}")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ValueError(f"newton max_iter must be a positive integer, got {self.max_iter!r}")
        if not 0.0 < self.fd_step_scale < 1.0:
            raise ValueError(f"fd_step_scale must lie in (0, 1), got {self.fd_step_scale!r}")


@dataclass(frozen=True)
class SolveReport:
    trajectory: Trajectory
    newton_iters: np.ndarray = field(repr=False)
    max_abs_u: float = 0.0
    blowup: bool = False
    errors: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def final_error(self) -> Optional[float]:
        return None if self.errors is None else float(self.errors[-1])


def _newton_step(rhs, rhs_du, n, t, guess, omega0, ha, H, cfg):
    un = guess
    f = rhs(t, un)
    for it in range(1, cfg.max_iter + 1):
        F = omega0 * un - ha * f + H
        if abs(F) <= cfg.tol:
            return un, it
        if rhs_du is not None:
            fu = rhs_du(t, un)
        else:
            step = cfg.fd_step_scale * (1.0 + abs(un))
            fu = (rhs(t, un + step) - f) / step
        J = omega0 - ha * fu
        if J == 0:
            raise NewtonDivergedError(n, t, abs(F))
        du = -F / J
        un = un + du
        f = rhs(t, un)
        if abs(du) <= cfg.tol * (1.0 + abs(un)):
            return un, it
    raise NewtonDivergedError(n, t, abs(omega0 * un - ha * f + H))


def bootstrap_starts(problem: ProblemSpec, scheme, grid: GridSpec, newton: Optional[NewtonConfig] = None):
    """Starting values u_1..u_{k-1} from the (1,1) scheme on the grid prefix."""
    scheme = scheme if isinstance(scheme, SchemeId) else SchemeId(*scheme)
    if scheme.k == 1:
        return ()
    prefix = GridSpec(T=grid.dt * (scheme.k - 1), M=scheme.k - 1)
    report = solve(problem, SchemeId(1, 1), prefix, starting="exact", newton=newton)
    return tuple(complex(v) for v in report.trajectory.values[1:])


def solve(
    problem: ProblemSpec,
    scheme,
    grid: GridSpec,
    starting: Optional[str] = None,
    newton: Optional[NewtonConfig] = None,
    force_newton: bool = False,
    hold_first_value: bool = False,
) -> SolveReport:
    """March the implicit scheme across the grid and report the trajectory.

    starting: "exact" (sample problem.exact; default when available) or
    "bootstrap" (build u_1..u_{k-1} with the (1,1) scheme).  Irrelevant for
    k = 1.  Blowup (any |u_n| > 1e30) is flagged on the report, not raised.

    hold_first_value (degree-1 schemes only): pin u_1 = u_0 and begin
    stepping at n = 2, so the first interval carries no update.  This
    replication mode matches runs whose history array was primed with the
    initial value; it costs one order of accuracy near the origin and is
    never the right choice for new computations.
    """
    scheme = scheme if isinstance(scheme, SchemeId) else SchemeId(*scheme)
    k, alpha = scheme.k, problem.alpha
    if grid.M < k:
        raise ValueError(f"grid must have at least k = {k} steps, got M = {grid.M}")
    if hold_first_value and k != 1:
        raise ValueError("hold_first_value applies only to k = 1 schemes")
    if starting is None:
        starting = "exact" if problem.exact is not None else "bootstrap"
    if starting not in ("exact", "bootstrap"):
        raise ValueError(f"starting must be 'exact' or 'bootstrap', got {starting!r}")
    if starting == "exact" and k > 1 and problem.exact is None:
        raise ValueError("exact starting values requested but the problem has no exact solution")
    cfg = newton or NewtonConfig()

    table = weight_table(scheme, alpha, grid.M)
    omega = table.omega
    omega0 = float(omega[0])
    h = grid.dt
    ha = h ** alpha

    u = np.zeros(grid.M + 1, dtype=complex)
    u[0] = problem.u0
    if k > 1:
        if starting == "exact":
            for j in range(1, k):
                u[j] = require_finite_complex(problem.exact(j * h), f"exact(t_{j})")
        else:
            u[1:k] = bootstrap_starts(problem, scheme, grid, newton=cfg)

    lam = problem.lam
    linear = lam is not None and not force_newton
    if linear:
        denom = omega0 - ha * lam
        if abs(denom) < _PIVOT_REL_TOL * abs(omega0):
            raise PivotBreakdownError(
                f"omega_0 - dt^alpha*lam = {denom} is below the breakdown threshold"
            )

    n_start = k
    if hold_first_value and grid.M >= 1:
        u[1] = u[0]
        n_start = 2

    iters = np.zeros(grid.M + 1, dtype=int)
    max_abs = max(abs(complex(v)) for v in u[:min(n_start, grid.M + 1)])
    blowup = max_abs > _BLOWUP_THRESHOLD
    rev = np.ascontiguousarray(omega[:0:-1])
    pairs = u.view(np.float64).reshape(-1, 2)
    rhs = problem.rhs
    for n in range(n_start, grid.M + 1):
        re, im = rev[-n:] @ pairs[:n] + table.starting[n] @ pairs[:k]
        H = complex(re, im)
        t = n * h
        if linear:
            # rhs(t, 0) = g(t) for the declared linear structure
            un = (ha * rhs(t, 0.0 + 0.0j) - H) / denom
        else:
            un, iters[n] = _newton_step(rhs, problem.rhs_du, n, t, u[n - 1], omega0, ha, H, cfg)
        u[n] = un
        a = abs(un)
        if not math.isfinite(a):
            blowup = True
            u[n + 1 :] = np.nan
            break
        if a > max_abs:
            max_abs = a
        if a > _BLOWUP_THRESHOLD:
            blowup = True

    errors = None
    if problem.exact is not None:
        ref = np.array([complex(problem.exact(t)) for t in grid.times()])
        errors = np.abs(u - ref)
        errors.flags.writeable = False
    iters.flags.writeable = False
    traj = Trajectory(grid=grid, values=u, validate=not blowup)
    return SolveReport(
        trajectory=traj,
        newton_iters=iters,
        max_abs_u=float(max_abs),
        blowup=blowup,
        errors=errors,
    )
