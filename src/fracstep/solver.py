"""Implicit time stepping for D^alpha u = f(t, u), u(0) = u0, 0 < alpha < 1.

Each step solves omega_0 u_n - dt^alpha f(t_n, u_n) + H_n = 0 with H_n the
weighted history sum and f = rhs(t, u) + forcing(t).  The t-only forcing, when
a problem declares one, is evaluated on t_1..t_M before the first step.
A linear rhs (lam*u + rhs(t, 0)) uses the closed form; everything else runs an
undamped Newton iteration on rhs, adding the forcing at t_n to each value,
from a guess extrapolated from the last steps as in the predictor of Diethelm,
Ford and Freed (Numer. Algorithms 36 (2004) 31-52).

The history sum is blocked after Hairer, Lubich and Schlichte (SIAM J. Sci.
Stat. Comput. 6 (1985) 532-541), one route for the linear and the Newton step.
The grid splits into leaves of _LEAF steps.  A step sums its lags inside its
own leaf in plain Python; everything older, and the starting terms (one
product before the first step), it reads from an array filled a block at a
time.  When a leaf begins at step c, the samples u[c-s:c], s the lowest set
bit of c, are added to the targets c..c+s-1: by a dense product with the
Toeplitz rows of omega for at most _DENSE_ROWS targets, else by an FFT.  A
solve costs O(M log^2 M) and one block per leaf.

Rounding: the FFT kernels are zero at lags below _LEAF, where the weights are
largest; those lags, from the last leaf into the next, go through a dense
product, so the FFT error scales with omega at lag _LEAF and beyond.  The
sum is ordinary rounded floating point: runs repeat bit for bit on one
machine, but another BLAS or FFT build may change the last bits.  Against the
exactly rounded history sum, trajectories at M = 2048 agree to 2e-15
relative, as the direct sum did.
"""

import math
from cmath import isfinite
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
_LEAF = 8          # lags below this are summed directly at each step; a power of two
_DENSE_ROWS = 256   # a block for at most this many targets is a dense product, else an FFT


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
    array of the same shape); the solver evaluates it on the grid's nodes
    t_1..t_M in one call, and absent means zero.  lam marks rhs(t, u) =
    lam * u + rhs(t, 0) (lam = 0 for a u-free rhs); the solver then steps by
    the closed form and reads rhs only at u = 0, so an rhs of another form
    is solved as if it were lam * u + rhs(t, 0), without a warning.  rhs_du
    is the u-derivative of rhs for Newton; omitted means finite differences.
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


def _nonfinite(name, value, n, t):
    """The ValueError for a non-finite value of the named function at step n."""
    return ValueError(f"{name} returned a non-finite value {value!r} at step {n} (t = {t!r})")


def _newton_step(rhs, rhs_du, n, t, guess, omega0, ha, H, cfg, g):
    # g is the forcing at t, added to every rhs value.  The |du| test comes
    # before rhs at the new iterate, so an accepted iterate costs no rhs call.
    un = guess
    f = rhs(t, un) + g
    if not isfinite(f):
        raise _nonfinite("rhs", f, n, t)
    for it in range(1, cfg.max_iter + 1):
        F = omega0 * un - ha * f + H
        if abs(F) <= cfg.tol:
            return un, it
        if rhs_du is not None:
            fu = rhs_du(t, un)
            if not isfinite(fu):
                raise _nonfinite("rhs_du", fu, n, t)
        else:
            step = _FD_STEP_SCALE * (1.0 + abs(un))
            fs = rhs(t, un + step) + g
            if not isfinite(fs):
                raise _nonfinite("rhs", fs, n, t)
            fu = (fs - f) / step
        J = omega0 - ha * fu
        if J == 0:
            raise NewtonDivergedError(n, t, abs(F))
        du = -F / J
        un = un + du
        if abs(du) <= cfg.tol * (1.0 + abs(un)):
            return un, it
        f = rhs(t, un) + g
        if not isfinite(f):
            raise _nonfinite("rhs", f, n, t)
    raise NewtonDivergedError(n, t, abs(omega0 * un - ha * f + H))


def _pairs(z):
    """The (re, im) float view of a complex vector, one row per entry."""
    return z.view(np.float64).reshape(-1, 2)


class _LeafHistory:
    """The history sum of each step over the samples before its leaf of _LEAF steps.

    values[n] starts as the starting terms of step n.  When the leaf at step c
    begins, add_block(c) adds the samples u[c-s:c], s the lowest set bit of c,
    to the targets c..c+s-1 (Hairer, Lubich and Schlichte 1985).  A sample j
    and a target n in different leaves meet in exactly one block, the one of
    the highest bit where j and n differ, at a lag s+i-j in 1..2s-1.
    """

    def __init__(self, omega, u, starting_terms):
        self.omega, self.u, self.values = omega, u, starting_terms
        self._u_pairs, self._value_pairs = _pairs(u), _pairs(starting_terms)
        self._rows = {}      # s -> rows omega_{s+i-j} for block targets i, samples j
        self._spectra = {}   # s -> FFT of omega at lags _LEAF..2s-1, zero below _LEAF

    def _kernel(self, s, low):
        """omega at lags 0..2s-1, zero below low and past the table."""
        ker = np.zeros(2 * s)
        top = min(2 * s, self.omega.size)
        ker[low:top] = self.omega[low:top]
        return ker

    def _block_rows(self, s, w):
        """rows[i, j] = omega_{s+i-j} for the targets i < w and the samples j < s of a block."""
        windows = sliding_window_view(self._kernel(s, 1)[::-1], s)   # windows[p, j] = ker[2s-1-p-j]
        return np.ascontiguousarray(windows[s - w : s][::-1])

    def add_block(self, c):
        s = c & -c
        w = min(s, self.values.size - c)   # targets on the grid
        if w <= _DENSE_ROWS:
            rows = self._rows.get(s)
            if rows is None:   # a level's first block has the most targets
                rows = self._rows[s] = self._block_rows(s, w)
            self._value_pairs[c : c + w] += rows[:w] @ self._u_pairs[c - s : c]
            return
        spectrum = self._spectra.get(s)
        if spectrum is None:
            spectrum = self._spectra[s] = np.fft.fft(self._kernel(s, _LEAF))
        block = np.fft.fft(self.u[c - s : c], 2 * s)
        # a circular convolution of length 2s: outputs s..2s-1 do not wrap
        self.values[c : c + w] += np.fft.ifft(block * spectrum)[s : s + w]
        # The lags below _LEAF, left out of the FFT: from the last leaf into this one
        carry = np.triu(self._block_rows(_LEAF, _LEAF), 1)
        self._value_pairs[c : c + _LEAF] += carry @ self._u_pairs[c - _LEAF : c]


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

    A declared forcing is evaluated on t_1..t_M in one call before the first
    step, whatever the scheme and starting mode, so an error in it surfaces
    there, and it is evaluated on the nodes past a non-finite step too.  rhs
    is evaluated at each step: once as rhs(t_n, 0) on the linear path; under
    Newton at the start, the quadratic extrapolation 3 u_{n-1} - 3 u_{n-2} +
    u_{n-3} (linear, then constant, on the first steps, which have fewer past
    values), and at each iterate that the update-size test does not accept.
    So rhs is never evaluated past a non-finite step.  A non-finite rhs value
    makes a non-finite step on the linear path; under Newton a non-finite rhs
    or rhs_du value raises ValueError naming the step.
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
        ts = grid.times()[1:]   # every node that any scheme or starting mode steps to
        gs = np.asarray(problem.forcing(ts), dtype=complex)
        if gs.shape != ts.shape:
            raise ValueError(f"forcing returned shape {gs.shape} for {ts.size} grid times")
        g[1:] = gs.tolist()

    iters = np.zeros(grid.M + 1, dtype=int)
    max_abs = max(abs(complex(v)) for v in u[:n_start])
    blowup = max_abs > _BLOWUP_THRESHOLD
    past = _LeafHistory(omega, u, (table.starting @ _pairs(u[:k])).view(complex).ravel())
    before = past.values[:_LEAF].tolist()
    near = [omega[j:0:-1].tolist() for j in range(_LEAF)]   # omega_j..omega_1
    c, leaf = 0, u[:n_start].tolist()   # the leaf's first step and its samples so far
    # u_{n-1}, u_{n-2}, u_{n-3} for the Newton start; the zeros are never read
    u1, u2, u3 = ([0j, 0j] + leaf)[-1:-4:-1]
    rhs, rhs_du = problem.rhs, problem.rhs_du
    for n in range(n_start, grid.M + 1):
        j = n - c
        if j == _LEAF:   # n_start < _LEAF
            u[c:n] = leaf
            c, j, leaf = n, 0, []
            past.add_block(n)
            before = past.values[n : n + _LEAF].tolist()
        H = before[j] + sum(map(mul, near[j], leaf))
        t = n * h
        if linear:
            un = (ha * (rhs(t, 0j) + g[n]) - H) / denom
        else:
            # extrapolate the last three values (fewer on the first steps)
            guess = 3.0 * (u1 - u2) + u3 if n > 2 else 2.0 * u1 - u2 if n == 2 else u1
            un, iters[n] = _newton_step(rhs, rhs_du, n, t, guess, omega0, ha, H, cfg, g[n])
            u1, u2, u3 = un, u1, u2
        leaf.append(un)
        a = abs(un)
        if not math.isfinite(a):
            blowup = True
            break
        if a > max_abs:
            max_abs = a
        if a > _BLOWUP_THRESHOLD:
            blowup = True
    end = c + len(leaf)
    u[c:end] = leaf
    u[end:] = np.nan   # past a non-finite step

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
