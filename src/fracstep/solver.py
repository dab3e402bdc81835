"""Implicit time stepping for D^alpha u = f(t, u), u(0) = u0, 0 < alpha < 1.

Each step solves omega_0 u_n - dt^alpha f(t_n, u_n) + H_n = 0 with H_n the
weighted history sum and f = rhs(t, u) + forcing(t).  The t-only forcing, when
a problem declares one, is evaluated on the whole grid before the first step.
A linear rhs (lam*u + rhs(t, 0)) uses the closed form; everything else runs an
undamped Newton iteration on rhs, adding the forcing at t_n to each value.
History evaluation is a direct O(n) convolution per step (O(M^2) per solve):
one BLAS product of the reversed weights with the (re, im) pairs of the past
samples, in ordinary rounded summation: runs repeat exactly on one machine, but
may differ across BLAS builds.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .operator import GridSpec, Trajectory
from .special import require_alpha, require_count, require_finite_complex, require_real
from .weights import SchemeId, _as_scheme, weight_table

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
_FD_STEP_SCALE = 1.5e-8   # finite-difference step relative to 1 + |u|


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
    """A fractional IVP D^alpha u = rhs(t, u) + forcing(t), u(0) = u0 on t >= 0.

    forcing is an optional u-free part given on an ndarray of t (it returns an
    array of the same shape); the solver evaluates it on the whole grid in one
    call, and absent means zero.  lam marks rhs(t, u) = lam * u + rhs(t, 0)
    (lam = 0 for a u-free rhs); the solver then steps by the closed form.
    rhs_du is the u-derivative of rhs for Newton; omitted means finite
    differences.
    """

    alpha: float
    u0: complex
    rhs: Callable[[float, complex], complex]
    rhs_du: Optional[Callable[[float, complex], complex]] = None
    lam: Optional[complex] = None
    exact: Optional[Callable[[float], complex]] = None
    forcing: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", require_alpha(self.alpha))
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

    def __post_init__(self):
        object.__setattr__(self, "tol", require_real(self.tol, "newton tol"))
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"newton tol must be a real number in (0, 1), got {self.tol!r}")
        object.__setattr__(self, "max_iter", require_count(self.max_iter, "max_iter", 1))


@dataclass(frozen=True)
class SolveReport:
    trajectory: Trajectory
    newton_iters: np.ndarray = field(repr=False)
    max_abs_u: float = 0.0
    blowup: bool = False
    final_error: Optional[float] = None   # |u(t_M) - u_M|; None without an exact solution


def _newton_step(rhs, rhs_du, n, t, guess, omega0, ha, H, cfg, g):
    # g is the forcing at t, added to every rhs value
    un = guess
    f = rhs(t, un) + g
    for it in range(1, cfg.max_iter + 1):
        F = omega0 * un - ha * f + H
        if abs(F) <= cfg.tol:
            return un, it
        if rhs_du is not None:
            fu = rhs_du(t, un)
        else:
            step = _FD_STEP_SCALE * (1.0 + abs(un))
            fu = (rhs(t, un + step) + g - f) / step
        J = omega0 - ha * fu
        if J == 0:
            raise NewtonDivergedError(n, t, abs(F))
        du = -F / J
        un = un + du
        f = rhs(t, un) + g
        if abs(du) <= cfg.tol * (1.0 + abs(un)):
            return un, it
    raise NewtonDivergedError(n, t, abs(omega0 * un - ha * f + H))


def _check_starting(starting, k: int) -> None:
    """Reject an unknown starting mode, or "hold" for a scheme with k != 1; None passes."""
    if starting is not None and starting not in ("exact", "bootstrap", "hold"):
        raise ValueError(f"starting must be 'exact', 'bootstrap' or 'hold', got {starting!r}")
    if starting == "hold" and k != 1:
        raise ValueError("starting 'hold' applies only to k = 1 schemes")


def bootstrap_starts(problem: ProblemSpec, scheme, grid: GridSpec, newton: Optional[NewtonConfig] = None):
    """Starting values u_1..u_{k-1} from the (1,1) scheme on the grid prefix."""
    scheme = _as_scheme(scheme)
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
) -> SolveReport:
    """March the implicit scheme across the grid and report the trajectory.

    starting: "exact" (sample problem.exact; default when available),
    "bootstrap" (build u_1..u_{k-1} with the (1,1) scheme) or "hold" (k = 1
    only: pin u_1 = u_0 and begin stepping at n = 2, so the first interval
    carries no update).  "exact" and "bootstrap" are irrelevant for k = 1.
    "hold" replicates runs whose history array was primed with the initial
    value; it costs one order of accuracy near the origin and is never the
    right choice for new computations.  Blowup (any |u_n| > 1e30) is flagged
    on the report, not raised.

    A declared forcing is evaluated on every node in one call before the first
    step, so an error in it surfaces there, and it is evaluated on the nodes
    past a non-finite step too.  rhs is evaluated at each step, once as
    rhs(t_n, 0) on the linear path and at each iterate under Newton, so rhs is
    never evaluated past a non-finite step.
    """
    scheme = _as_scheme(scheme)
    k, alpha = scheme.k, problem.alpha
    if grid.M < k:
        raise ValueError(f"grid must have at least k = {k} steps, got M = {grid.M}")
    _check_starting(starting, k)
    if starting is None:
        starting = "exact" if problem.exact is not None else "bootstrap"
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
    if starting == "hold":
        u[1] = u[0]
    elif k > 1:
        if starting == "exact":
            for j in range(1, k):
                u[j] = require_finite_complex(problem.exact(j * h), f"exact(t_{j})")
        else:
            u[1:k] = bootstrap_starts(problem, scheme, grid, newton=cfg)

    lam = problem.lam
    linear = lam is not None
    if linear:
        denom = omega0 - ha * lam
        if abs(denom) < _PIVOT_REL_TOL * abs(omega0):
            raise PivotBreakdownError(
                f"omega_0 - dt^alpha*lam = {denom} is below the breakdown threshold"
            )

    n_start = 2 if starting == "hold" else k
    g = [0j] * (grid.M + 1)   # the forcing at each t_n, read as Python complex numbers
    if problem.forcing is not None:
        ts = grid.times()[n_start:]
        gs = np.asarray(problem.forcing(ts), dtype=complex)
        if gs.shape != ts.shape:
            raise ValueError(f"forcing returned shape {gs.shape} for {ts.size} grid times")
        g[n_start:] = gs.tolist()

    iters = np.zeros(grid.M + 1, dtype=int)
    max_abs = max(abs(complex(v)) for v in u[:n_start])
    blowup = max_abs > _BLOWUP_THRESHOLD
    rev = np.ascontiguousarray(omega[:0:-1])
    pairs = u.view(np.float64).reshape(-1, 2)
    rhs, rhs_du = problem.rhs, problem.rhs_du
    for n in range(n_start, grid.M + 1):
        re, im = rev[-n:] @ pairs[:n] + table.starting[n] @ pairs[:k]
        H = complex(re, im)
        t = n * h
        if linear:
            un = (ha * (rhs(t, 0j) + g[n]) - H) / denom
        else:
            un, iters[n] = _newton_step(rhs, rhs_du, n, t, u[n - 1], omega0, ha, H, cfg, g[n])
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

    final_error = None
    if problem.exact is not None:
        # t_M as grid.times() gives it, not T: M * dt can differ from T in the last bit
        final_error = float(np.abs(u[-1] - complex(problem.exact(grid.times()[-1]))))
    iters.flags.writeable = False
    traj = Trajectory(grid=grid, values=u, validate=not blowup)
    return SolveReport(
        trajectory=traj,
        newton_iters=iters,
        max_abs_u=float(max_abs),
        blowup=blowup,
        final_error=final_error,
    )
