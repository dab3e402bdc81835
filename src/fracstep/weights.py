"""Convolution and starting weights of the discrete Caputo schemes.

Each scheme is labelled (k, i) with 1 <= i <= k <= 3: degree-k interpolation
pieces, offset i.  The discrete operator at step n is

    D u_n = dt^(-alpha) [ sum_{j<k} w_{n,j} u_j  +  sum_{j<=n} omega_{n-j} u_j ],

and this module produces the omega sequence and the starting rows w_{n,.}
by integrating the pieces that piece_layout lists against the kernel tables.
Weight tables are cached per (scheme, alpha bit pattern, length) and
validated at construction: the weights of every step must sum to zero
(exactness on constants).  The kernel tables come through kernel_table, whose
power moments sit in a per-alpha cache, so the six schemes and every table
length at one alpha share a single moment batch.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .kernel import backward_diff, dbinom_poly, kernel_table
from .special import require_alpha, require_count

__all__ = [
    "SchemeId",
    "ALL_SCHEMES",
    "WeightTable",
    "WeightConsistencyError",
    "weight_table",
    "piece_layout",
]

_CONSISTENCY_TOL = 1e-10


class WeightConsistencyError(RuntimeError):
    """Weight rows failed the sum-to-zero consistency check at construction."""


@dataclass(frozen=True, order=True)
class SchemeId:
    """Scheme label (k, i): interpolation degree k, offset i, 1 <= i <= k <= 3."""

    k: int
    i: int

    def __post_init__(self):
        k = require_count(self.k, "k", 1, 3)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "i", require_count(self.i, "i", 1, k))

    @property
    def label(self) -> str:
        return f"({self.k},{self.i})"


ALL_SCHEMES = tuple(SchemeId(k, i) for k in (1, 2, 3) for i in range(1, k + 1))


def _as_scheme(scheme) -> SchemeId:
    if isinstance(scheme, SchemeId):
        return scheme
    try:
        k, i = scheme
    except (TypeError, ValueError):
        raise ValueError(f"not a scheme label: {scheme!r}") from None
    return SchemeId(k, i)


@dataclass(frozen=True)
class WeightTable:
    """omega[0..n_max] plus starting rows w_{n,0..k-1} for k <= n <= n_max."""

    scheme: SchemeId
    alpha: float
    omega: np.ndarray      # shape (n_max+1,)
    starting: np.ndarray   # shape (n_max+1, k); rows below k are zero filler

    @property
    def n_max(self) -> int:
        return self.omega.size - 1

    def starting_row(self, n: int) -> tuple:
        n = require_count(n, "n", self.scheme.k, self.n_max)
        return tuple(float(v) for v in self.starting[n])


def piece_layout(k: int, i: int, n: int):
    """Piece (q, degree) on each subinterval I_1..I_n of the step-n interpolant.

    Head pieces (degree k-1, interpolating t_0..t_{k-1}) cover I_1..I_{k-i};
    interior pieces use offset i; tail pieces narrow the offset so the last k+1
    samples close the composite.  (k, i) = (2, 3) is accepted as the auxiliary
    interpolant with a single wide head piece; it has no weight list.
    """
    if (k, i) == (2, 3):
        return [(2, 2)] + [(1, 2)] * (require_count(n, "n", 2) - 1)
    s = SchemeId(k, i)
    k, i, n = s.k, s.i, require_count(n, "n", s.k)
    layout = []
    for j in range(1, n + 1):
        if j <= k - i:
            layout.append((k - j, k - 1))
        elif j <= n - i + 1:
            layout.append((i, k))
        else:
            layout.append((n + 1 - j, k))
    return layout


def _newton_terms(q: int, deg: int):
    """(r, l, c) with dP/ds = sum d/ds C(s-q+r-1, r) * c * u_{j+q-1-l} for the piece p_{j,q}."""
    return [(r, l, (-1) ** l * math.comb(r, l)) for r in range(1, deg + 1) for l in range(r + 1)]


def _assemble(k: int, i: int, alpha: float, n_max: int):
    """Raw (omega, starting) arrays: the Caputo integral of the step-n interpolant.

    The piece (q, deg) on I_j adds c * I^r_q[n-j] to the weight of u_{j+q-1-l}
    for each Newton term (r, l, c).  The layout at step k holds every kind of
    piece once: head pieces at fixed j; the interior piece, which fills all
    other j and so gives a Toeplitz row; and tail pieces at fixed kernel index
    n-j.  omega is that row, its lags d <= k re-summed over the interior terms
    that the tail leaves plus the tail's own; a starting column is the head
    terms minus the interior terms the row assumes at j <= k-i.
    """
    layout = piece_layout(k, i, k)
    n_head = sum(deg < k for _, deg in layout)
    n_tail = k - n_head - 1
    q_in = layout[n_head][0]
    tables = {}

    @cache
    def kernel(q, r):
        # keyed by the kernel polynomial, so equal tables (every I^1_q) cancel exactly
        c = tuple(dbinom_poly(q, r))
        if c not in tables:
            tables[c] = kernel_table(alpha, q, r, n_max + q_in - 1).values   # the largest index read
        return c

    # tail terms reach lags d <= k; without a tail the Toeplitz row already is the pieces' sum
    lags = [Counter() for _ in range(min(k, n_max) + 1 if n_tail else 0)]  # {(kernel, e): coef}
    cols = [Counter() for _ in range(k)]                   # w_{n,m}: {(kernel, j): coef} at n-j
    for r, l, c in _newton_terms(q_in, k):
        key = kernel(q_in, r)
        for d, terms in enumerate(lags):       # interior piece at kernel index e, off the tail
            e = d + q_in - 1 - l
            if e >= n_tail:
                terms[key, e] += c
        for j in range(1 - q_in, n_head + 1):  # interior terms the row assumes at j <= k-i
            m = j + q_in - 1 - l
            if m >= 0:
                cols[m][key, j] -= c
    for j, (q, deg) in enumerate(layout[:n_head], 1):
        for r, l, c in _newton_terms(q, deg):
            cols[j + q - 1 - l][kernel(q, r), j] += c
    for e, (q, deg) in enumerate(reversed(layout[n_head + 1:])):
        for r, l, c in _newton_terms(q, deg):
            d = e - q + 1 + l
            if d < len(lags):
                lags[d][kernel(q, r), e] += c

    omega = sum(backward_diff(tables[kernel(q_in, r)], r)[q_in - 1: q_in + n_max]
                for r in range(1, k + 1))
    for d, terms in enumerate(lags):  # these sums cancel heavily: compensated summation
        omega[d] = math.fsum(c * tables[key][e] for (key, e), c in terms.items())
    starting = np.zeros((n_max + 1, k))
    for m, terms in enumerate(cols if n_max >= k else ()):   # entries n - j, n = k..n_max
        starting[k:, m] = sum(c * tables[key][k - j: n_max + 1 - j]
                              for (key, j), c in terms.items() if c)
    return omega, starting


# The sweep reuses only its current (scheme, alpha) table and solves repeat no key: one per scheme.
@lru_cache(maxsize=6)
def _build(k: int, i: int, alpha: float, n_max: int) -> WeightTable:
    omega, starting = _assemble(k, i, alpha, n_max)
    if not omega[0] > 0.0:
        raise WeightConsistencyError(
            f"omega_0 must be positive for scheme ({k},{i}), alpha={alpha}, got {omega[0]}"
        )
    if n_max >= k:
        residual = np.cumsum(omega)[k:] + starting[k:].sum(axis=1)
        worst = float(np.abs(residual).max())
        if worst > _CONSISTENCY_TOL:
            raise WeightConsistencyError(
                f"weights of scheme ({k},{i}), alpha={alpha} do not sum to zero: "
                f"max residual {worst:.3e} over n <= {n_max}"
            )
    omega.flags.writeable = False
    starting.flags.writeable = False
    return WeightTable(scheme=SchemeId(k, i), alpha=alpha, omega=omega, starting=starting)


def weight_table(scheme, alpha: float, n_max: int) -> WeightTable:
    """Cached weight table for n = 0..n_max.

    The cache key uses the exact bit pattern of alpha.  The lookup is
    thread-safe: lru_cache guards the tables and the per-alpha moment
    batches, and a build publishes only finished, read-only arrays.
    """
    s = _as_scheme(scheme)
    return _build(s.k, s.i, require_alpha(alpha), require_count(n_max, "n_max"))
