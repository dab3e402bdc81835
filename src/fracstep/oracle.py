"""Quadrature oracle: the discrete Caputo operator evaluated without weights.

The schemes are definitionally dt^(-alpha)/Gamma(1-alpha) * int_0^{t_n}
(t_n - xi)^(-alpha) P'(xi) dxi for a continuous piecewise-polynomial
interpolant P of the samples.  This module builds that interpolant piece by
piece and integrates panel-wise: Gauss-Legendre away from the endpoint
singularity, Gauss-Jacobi (weight (1-s)^(-alpha)) on the final panel.  It is
deliberately independent of the weight tables so the two routes can be
checked against each other.
"""

import math
from dataclasses import astuple, dataclass
from functools import cached_property, lru_cache

import numpy as np

from .operator import GridSpec
from .special import require_alpha, require_count, require_real
from .weights import _as_scheme, piece_layout

__all__ = [
    "caputo_monomial",
    "lagrange_piece_eval",
    "PiecewiseInterpolant",
    "build_interpolant",
    "oracle_discrete_caputo",
]

_PANEL_POINTS = 30
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_PANEL_POINTS)
_GL_S = 0.5 * (_GL_X + 1.0)
_GL_WS = 0.5 * _GL_W


def caputo_monomial(m: int, alpha: float, t: float) -> float:
    """Caputo derivative of t^m, 0 <= m <= 49: Gamma(m+1)/Gamma(m+1-alpha) * t^(m-alpha)."""
    m, alpha, t = require_count(m, "m", 0, 49), require_alpha(alpha), require_real(t, "time t")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    if m == 0:
        return 0.0
    if t == 0.0:
        return 0.0 if m - alpha > 0 else math.inf
    return math.gamma(m + 1.0) / math.gamma(m + 1.0 - alpha) * t ** (m - alpha)


def _piece_nodes(j: int, q: int, deg: int) -> range:
    """Global node indices of the piece p_{j,q} of degree deg: j+q-deg-1 .. j+q-1."""
    return range(j + q - deg - 1, j + q)


def _check_piece(samples, j, q, deg):
    nodes = _piece_nodes(j, q, deg)
    if nodes.start < 0 or nodes.stop > len(samples):
        raise ValueError(
            f"piece (j={j}, q={q}, degree={deg}) needs samples {nodes.start}..{nodes.stop - 1}, "
            f"have 0..{len(samples) - 1}"
        )
    return nodes


def lagrange_piece_eval(samples, j: int, q: int, k: int, s: float) -> complex:
    """Value of the degree-k piece p_{j,q} at t_{j-1} + s*dt, in Lagrange form.

    samples is indexable by global node; s is the local coordinate (s in [0,1]
    covers the piece's own subinterval, but the polynomial extends beyond).
    """
    nodes = _check_piece(samples, j, q, k)
    x = j - 1.0 + s
    total = 0.0 + 0.0j
    for node in nodes:
        basis = 1.0
        for mm in nodes:
            if mm != node:
                basis *= (x - mm) / (node - mm)
        total += basis * complex(samples[node])
    return total


def _lagrange_derivative(samples, nodes, xs):
    """d/dx of the Lagrange interpolant at points xs (grid units)."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape, dtype=complex)
    nodes = list(nodes)
    for node in nodes:
        denom = 1.0
        for mm in nodes:
            if mm != node:
                denom *= node - mm
        dbasis = np.zeros(xs.shape)
        for l in nodes:
            if l == node:
                continue
            prod = np.ones(xs.shape)
            for mm in nodes:
                if mm != node and mm != l:
                    prod *= xs - mm
            dbasis += prod
        out += (dbasis / denom) * complex(samples[node])
    return out


@dataclass(frozen=True)
class PiecewiseInterpolant:
    """Composite interpolant of samples u_0..u_n for a scheme, one piece per subinterval."""

    k: int
    i: int
    grid: GridSpec
    samples: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        if self.samples.ndim != 1 or self.samples.size < self.n + 1:
            raise ValueError(f"need at least n+1 = {self.n + 1} samples")

    @cached_property
    def layout(self):
        return piece_layout(self.k, self.i, self.n)

    def value(self, j: int, s: float) -> complex:
        """P on subinterval I_j at local coordinate s in [0, 1]."""
        q, deg = self.layout[j - 1]
        return lagrange_piece_eval(self.samples, j, q, deg, s)

    def derivative(self, j: int, s) -> np.ndarray:
        """dP/ds on subinterval I_j at local coordinates s (array ok)."""
        q, deg = self.layout[j - 1]
        nodes = _check_piece(self.samples, j, q, deg)
        return _lagrange_derivative(self.samples, nodes, j - 1.0 + np.asarray(s, dtype=float))


def build_interpolant(scheme, grid: GridSpec, samples, n: int) -> PiecewiseInterpolant:
    """Step-n interpolant of a scheme, or of the auxiliary label (2, 3)."""
    k, i = (2, 3) if scheme == (2, 3) else astuple(_as_scheme(scheme))
    return PiecewiseInterpolant(k=k, i=i, grid=grid, samples=np.asarray(samples),
                                n=require_count(n, "n"))


@lru_cache(maxsize=16)
def _jacobi_rule(alpha: float):
    from scipy.special import roots_jacobi   # deferred: scipy is most of an import's cost
    x, w = roots_jacobi(_PANEL_POINTS, -alpha, 0.0)
    return 0.5 * (x + 1.0), w


def oracle_discrete_caputo(interp: PiecewiseInterpolant, alpha: float) -> complex:
    """Quadrature evaluation of D u_n, n = interp.n, through the composite interpolant.

    Panels j < n use Gauss-Legendre (the kernel is analytic there); the final
    panel extracts the (1-s)^(-alpha) singularity with a Gauss-Jacobi rule.
    """
    alpha = require_alpha(alpha)
    n = interp.n
    gj_s, gj_w = _jacobi_rule(alpha)
    parts_re = []
    parts_im = []
    for j in range(1, n + 1):
        if j < n:
            kern = (n - j + 1.0 - _GL_S) ** (-alpha)
            vals = interp.derivative(j, _GL_S) * kern * _GL_WS
        else:
            vals = interp.derivative(j, gj_s) * gj_w * 2.0 ** (alpha - 1.0)
        parts_re.extend(vals.real.tolist())
        parts_im.extend(vals.imag.tolist())
    acc = complex(math.fsum(parts_re), math.fsum(parts_im))
    return acc * interp.grid.dt ** (-alpha) / math.gamma(1.0 - alpha)
