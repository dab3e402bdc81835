"""Implicit time stepping for D^alpha u = f(t, u), u(0) = u0, 0 < alpha < 1.

Each step solves omega_0 u_n - dt^alpha f(t_n, u_n) + H_n = 0 with H_n the
weighted history sum and f = rhs(t, u) + forcing(t).  The t-only forcing, when
a problem declares one, is evaluated on t_1..t_M before the first step.
A linear problem (rhs = lam*u) uses the closed form, a leaf of steps at a
time; everything else runs an undamped Newton iteration on rhs, adding the
forcing at t_n to each value, one step at a time, from a guess extrapolated
from the last steps as in the predictor of Diethelm, Ford and Freed (Numer.
Algorithms 36 (2004) 31-52).

The history sum is blocked after Hairer, Lubich and Schlichte (SIAM J. Sci.
Stat. Comput. 6 (1985) 532-541), one route for the linear and the Newton step.
The grid splits into leaves, of _LEAF steps under Newton and _LINEAR_LEAF for
the closed form.  A step reads the samples before its leaf, and the starting
terms (one product before the first step), from an array filled a block at a
time.  When a leaf begins at step c, the samples u[c-s:c], s the lowest set
bit of c, are added to the targets c..c+s-1: by a dense product with the
Toeplitz rows of omega for at most _DENSE_ROWS targets, else by an FFT.  A
Newton step sums the lags inside its own leaf in plain Python.  The closed
form solves a whole leaf at once: its steps satisfy a lower-triangular
Toeplitz system, omega_0 - dt^alpha lam on the diagonal and omega_1,
omega_2, ... under it, and one convolution with the reciprocal series of that
matrix's column, built once per solve, gives them all.  A solve costs
O(M log^2 M) and one block per leaf.

Rounding: the FFT kernels are zero at lags below the leaf, where the weights
are largest; those lags, from the last leaf into the next, go through a dense
product, so the FFT error scales with omega at the leaf's length and beyond.
The sum is ordinary rounded floating point: runs repeat bit for bit on one
machine, but another BLAS or FFT build may change the last bits.  Against the
exactly rounded history sum, trajectories at M = 2048 agree to 1e-15
relative; the direct sum agreed to 2e-15.
"""

import math
from cmath import isfinite
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .operator import GridSpec, Trajectory, compensated_cdot
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
_LEAF = 8          # Newton: lags below this are summed directly at each step; a power of two
_LINEAR_LEAF = 64  # the closed form: steps solved together by one convolution; a power of two
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
    t_1..t_M in one call, and absent means zero.  lam marks a linear problem,
    rhs(t, u) = lam * u (rhs = 0 with lam = 0), which the solver steps by the
    closed form without calling rhs.  Construction checks rhs against lam * u
    only at u = 0 for t = 0.5 and 1.0 and at u = |u0| + i for t = 1.0, and
    raises ValueError otherwise; a u-free part that vanishes at those probes
    passes and is dropped, so the u-free part of a linear problem must be
    stated in forcing.  rhs_du is the u-derivative of rhs for Newton; omitted
    means finite differences.
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
            lam = require_finite_complex(self.lam, "lam")
            object.__setattr__(self, "lam", lam)
            # u = 0 at two times catches a u-free part, u = |u0| + i (never 0) a nonlinear rhs
            for t, v in ((0.5, 0j), (1.0, 0j), (1.0, complex(abs(self.u0), 1.0))):
                got = complex(self.rhs(t, v))
                if not abs(got - lam * v) <= 1e-12 * (1.0 + abs(lam * v)):   # nan fails too
                    raise ValueError(f"lam = {lam} needs rhs(t, u) = lam*u, but rhs({t}, {v}) = {got}; "
                                     "a u-free part belongs in forcing")
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
    """The history sum of each step over the samples before its leaf of `leaf` steps.

    values[n] starts as the starting terms of step n.  When the leaf at step c
    begins, add_block(c) adds the samples u[c-s:c], s the lowest set bit of c,
    to the targets c..c+s-1 (Hairer, Lubich and Schlichte 1985).  A sample j
    and a target n in different leaves meet in exactly one block, the one of
    the highest bit where j and n differ, at a lag s+i-j in 1..2s-1.  leaf is
    a power of two.
    """

    def __init__(self, omega, u, starting_terms, leaf):
        self.omega, self.u, self.values, self.leaf = omega, u, starting_terms, leaf
        self._u_pairs, self._value_pairs = _pairs(u), _pairs(starting_terms)
        self._rows = {}      # s -> rows omega_{s+i-j} for block targets i, samples j
        self._spectra = {}   # s -> real FFT of omega at lags leaf..2s-1, zero below leaf, as a column
        # the lags below leaf, which the FFT leaves out: from the last leaf into the next
        self._carry = np.triu(self._block_rows(leaf, leaf), 1)

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
            spectrum = self._spectra[s] = np.fft.rfft(self._kernel(s, self.leaf))[:, None]
        # the real and imaginary parts apart, so a real problem keeps zero imaginary parts;
        # a circular convolution of length 2s: outputs s..2s-1 do not wrap
        block = np.fft.rfft(self._u_pairs[c - s : c], 2 * s, axis=0)
        self._value_pairs[c : c + w] += np.fft.irfft(block * spectrum, 2 * s, axis=0)[s : s + w]
        leaf = self.leaf
        self._value_pairs[c : c + leaf] += self._carry @ self._u_pairs[c - leaf : c]


def _reciprocal_series(pivot, below):
    """The reciprocal of the power series pivot + below[0] x + below[1] x^2 + ...,
    truncated to below.size + 1 terms.

    t_0 = 1/pivot and t_n = -(below[0] t_{n-1} + ... + below[n-1] t_0) / pivot.
    It is the first column of the inverse of the lower-triangular Toeplitz
    matrix with pivot on its diagonal and below under it.  Each sum is exactly
    rounded: every leaf reuses t, so its rounding would not average out over
    the solve.
    """
    t = np.empty(below.size + 1, dtype=complex)
    t[0] = 1 / pivot
    for n in range(1, t.size):
        t[n] = -compensated_cdot(below[:n], t[n - 1 :: -1]) / pivot
    return t


def _linear_leaves(g, ha, denom, past, n_start):
    """The closed-form steps n_start..M, a leaf at a time; returns the end of the stepped values.

    Each leaf solves T x = b for its steps, T lower-triangular Toeplitz with
    omega_0 - ha*lam on the diagonal and omega_1, omega_2, ... under it, and
    b_n = ha*g_n - H_n with g the forcing array and H_n the history sum over
    the samples before the leaf.  x is the convolution of b with the
    reciprocal series of T's column, one series for every leaf, so x_n reads
    b_0..b_n only and a non-finite b_n leaves the steps before it as they
    are.  Every step after the first non-finite one is left to the caller,
    which makes it NaN.
    """
    u, omega = past.u, past.omega
    size = min(past.leaf, u.size)
    t = _reciprocal_series(denom, omega[1:size])
    # the lags from the values before the first step, which share its leaf
    for i in range(n_start):
        past.values[n_start:size] += omega[n_start - i : size - i] * u[i]
    with np.errstate(over="ignore", invalid="ignore"):   # a blowup is flagged, not warned of
        for c in range(0, u.size, size):
            if c:
                past.add_block(c)
            lo, hi = max(c, n_start), min(c + size, u.size)
            b = np.zeros(size, dtype=complex)
            b[lo - c : hi - c] = ha * g[lo:hi] - past.values[lo:hi]
            u[lo:hi] = np.convolve(t, b)[lo - c : hi - c]
            stop = np.flatnonzero(~np.isfinite(np.abs(u[lo:hi])))
            if stop.size:
                return lo + int(stop[0]) + 1
    return u.size


def _newton_steps(problem, g, h, ha, omega0, cfg, past, n_start, iters):
    """The Newton steps n_start..M, one at a time; returns the end of the stepped values.

    A step sums its lags inside its leaf in plain Python and reads the rest
    from past.  The loop stops after a step with a non-finite |u_n|.
    """
    u, omega = past.u, past.omega
    before = past.values[:_LEAF].tolist()
    near = [omega[j:0:-1].tolist() for j in range(_LEAF)]   # omega_j..omega_1
    c, leaf = 0, u[:n_start].tolist()   # the leaf's first step and its samples so far
    # u_{n-1}, u_{n-2}, u_{n-3} for the Newton start; the zeros are never read
    u1, u2, u3 = ([0j, 0j] + leaf)[-1:-4:-1]
    rhs, rhs_du = problem.rhs, problem.rhs_du
    for n in range(n_start, u.size):
        j = n - c
        if j == _LEAF:   # n_start < _LEAF
            u[c:n] = leaf
            c, j, leaf = n, 0, []
            past.add_block(n)
            before = past.values[n : n + _LEAF].tolist()
        H = before[j] + sum(map(mul, near[j], leaf))
        # extrapolate the last three values (fewer on the first steps)
        guess = 3.0 * (u1 - u2) + u3 if n > 2 else 2.0 * u1 - u2 if n == 2 else u1
        un, iters[n] = _newton_step(rhs, rhs_du, n, n * h, guess, omega0, ha, H, cfg, g[n])
        u1, u2, u3 = un, u1, u2
        leaf.append(un)
        if not math.isfinite(abs(un)):
            break
    end = c + len(leaf)
    u[c:end] = leaf
    return end


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
    there, and it is evaluated on the nodes past a non-finite step too.  The
    linear path never calls rhs; a non-finite forcing value makes its step
    non-finite.  Under Newton rhs is evaluated at each step: at
    the start, the quadratic extrapolation 3 u_{n-1} - 3 u_{n-2} + u_{n-3}
    (linear, then constant, on the first steps, which have fewer past values),
    and at each iterate that the update-size test does not accept, so never
    past a non-finite step; a non-finite rhs or rhs_du value raises ValueError
    naming the step.  Every step after a non-finite one is NaN.
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
    g = np.zeros(grid.M + 1, dtype=complex)   # the forcing at each t_n
    if problem.forcing is not None:
        ts = grid.times()[1:]   # every node that any scheme or starting mode steps to
        gs = np.asarray(problem.forcing(ts), dtype=complex)
        if gs.shape != ts.shape:
            raise ValueError(f"forcing returned shape {gs.shape} for {ts.size} grid times")
        g[1:] = gs

    iters = np.zeros(grid.M + 1, dtype=int)
    starting_terms = (table.starting @ _pairs(u[:k])).view(complex).ravel()
    past = _LeafHistory(omega, u, starting_terms, _LINEAR_LEAF if linear else _LEAF)
    if linear:
        end = _linear_leaves(g, ha, denom, past, n_start)
    else:   # Newton reads g as Python complex numbers
        end = _newton_steps(problem, g.tolist(), h, ha, omega0, cfg, past, n_start, iters)
    u[end:] = np.nan   # past a non-finite step
    mags = np.abs(u)
    finite = np.isfinite(mags)
    max_abs = float(mags[finite].max())
    blowup = not finite.all() or max_abs > _BLOWUP_THRESHOLD

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
