"""Fractional kernel integrals behind the scheme weights.

The building block is

    I_{n,q}^r = 1/Gamma(1-alpha) * int_0^1 (n+1-s)^(-alpha) d/ds C(s-q+r-1, r) ds,

with C the generalized binomial coefficient, q the interpolation offset and r the
polynomial degree.  Everything the weight lists need reduces to power moments
J_m(n) = int_0^1 (n+1-s)^(-alpha) s^m ds for m <= 2: a Beta-function closed form
at n = 0 (endpoint singularity) and Gauss-Legendre quadrature for n >= 1.
The moments depend on alpha alone, so each alpha keeps one moment array, the
longest batch computed so far: a shorter request reads a slice of it, a
longer one computes only the missing columns.  The batches sit in an
lru_cache (_moment_batch) of 32 alphas, the least recently used dropped first.

Arguments follow the shared input rules of special: q, r, n_max, n and the
difference order are integers (require_count, so never a bool), alpha lies
in (0, 1) (require_alpha).
"""

import math
from functools import cache, lru_cache

import numpy as np

from .special import require_alpha, require_count

__all__ = ["dbinom_poly", "kernel_table", "backward_diff"]

_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_GL_S = 0.5 * (_GL_X + 1.0)   # nodes on [0, 1]
_GL_WS = 0.5 * _GL_W
_GL_WM = np.stack([_GL_WS, _GL_WS * _GL_S, _GL_WS * (_GL_S * _GL_S)])   # row m: w_j s_j^m


def dbinom_poly(q: int, r: int) -> list:
    """Coefficients (ascending powers of s) of d/ds C(s - q + r - 1, r).

    Exact integer arithmetic, returned as floats.  The result has r
    coefficients, i.e. degree r - 1.
    """
    return list(_dbinom_coeffs(require_count(q, "q", 1, 3), require_count(r, "r", 1, 3)))


@cache
def _dbinom_coeffs(q: int, r: int) -> tuple:
    # C(x, r) with x = s - q + r - 1 is prod_{l=0}^{r-1} (s - (q - r + 1 + l)) / r!
    # The roots are integers, so the coefficients are too, and int / int
    # rounds the exact quotient once.
    poly = [1]
    for l in range(r):
        root = q - r + 1 + l
        poly = [0] + poly  # multiply by s
        for m in range(len(poly) - 1):
            poly[m] -= root * poly[m + 1]
    return tuple(m * poly[m] / math.factorial(r) for m in range(1, len(poly)))


def _moments_closed_zero(alpha):
    """J_m(0) = Beta(m+1, 1-alpha) for m = 0, 1, 2."""
    g1a = math.gamma(1.0 - alpha)
    return np.array([math.gamma(m + 1.0) * g1a / math.gamma(m + 2.0 - alpha) for m in range(3)])


def _moments_gauss(alpha, ns):
    """32-point Gauss-Legendre J_m(n) for n >= 1.

    The integrand (n+1-s)^(-alpha) s^m is analytic on [0, 1] with its
    singularity at s = n+1, a distance >= 1 away, so the rule converges
    geometrically and is exact to machine precision already at n = 1.
    (An antiderivative expansion is exact on paper but loses ~5 digits to
    cancellation; quadrature is the accurate route here.)

    Each J_m(n) sums its 32 weighted nodes t_j pairwise, ((t_0 + t_1) +
    (t_2 + t_3)) + ..., in elementwise array operations, an order that does
    not depend on the other n in the batch.  So the moments up to n are bit
    for bit the first columns of any longer batch, and every kernel and weight
    table is a prefix of the longer table.  A matrix-vector product leaves the
    order to BLAS, which changes it with the number of rows.
    """
    base = ((np.asarray(ns, dtype=float) + 1.0) - _GL_S[:, None]) ** (-alpha)   # (32, len(ns))
    partial = []   # sums of 2^p adjacent terms, merged as soon as two have the same size
    for j in range(_GL_S.size):
        t = _GL_WM[:, j:j + 1] * base[j]
        size = 1
        while (j + 1) % (2 * size) == 0:
            t = partial.pop() + t
            size *= 2
        partial.append(t)
    return partial[0]


# The stability sweep cycles through 19 alphas per scheme, so fewer would never hit.
@lru_cache(maxsize=32)
def _moment_batch(alpha):
    """[J] with J alpha's longest read-only batch J[m, n] so far, n = 0..J.shape[1] - 1.

    It starts as the closed-form n = 0 column; _power_moments extends it.
    """
    J = _moments_closed_zero(alpha)[:, None]
    J.flags.writeable = False
    return [J]


def _power_moments(alpha, n_max):
    """J[m, n] for 0 <= m <= 2, 0 <= n <= n_max, read-only, from alpha's batch.

    A longer request copies the batch and appends only the missing columns;
    _moments_gauss does not depend on the batch, so the result equals a cold
    batch bit for bit.  Concurrent requests may both compute, but only a
    finished, read-only array is ever published, and never over a longer one.
    """
    batch = _moment_batch(alpha)
    J = batch[0]
    start = J.shape[1]
    if start <= n_max:
        J = np.concatenate([J, _moments_gauss(alpha, np.arange(start, n_max + 1))], axis=1)
        J.flags.writeable = False
        if batch[0].shape[1] < J.shape[1]:
            batch[0] = J
    return J[:, :n_max + 1]


def kernel_table(alpha: float, q: int, r: int, n_max: int) -> np.ndarray:
    """I_{n,q}^r for n = 0..n_max as a read-only array, with 1 <= q, r <= 3 and n_max >= 0."""
    alpha = require_alpha(alpha)
    c = dbinom_poly(q, r)
    J = _power_moments(alpha, require_count(n_max, "n_max"))
    vals = np.zeros(J.shape[1])
    for m, cm in enumerate(c):
        if cm != 0.0:
            vals += cm * J[m]
    vals /= math.gamma(1.0 - alpha)
    vals.flags.writeable = False
    return vals


def backward_diff(seq, order: int) -> np.ndarray:
    """order-th backward difference with zero padding on the left.

    out[n] = sum_j (-1)^j C(order, j) seq[n-j], reading seq[m] = 0 for m < 0,
    so e.g. backward_diff([1, 1, 1], 1) == [1, 0, 0].
    """
    order = require_count(order, "order", 1)
    a = np.asarray(seq)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("backward_diff expects a nonempty 1-d sequence")
    if not np.issubdtype(a.dtype, np.number):
        raise ValueError(f"backward_diff expects numeric entries, got dtype {a.dtype}")
    out = a.astype(np.result_type(a.dtype, float), copy=True)
    for _ in range(order):
        out[1:] = out[1:] - out[:-1]
    return out
