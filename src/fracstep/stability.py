"""Linear stability diagnostics of the schemes.

For the test equation D^alpha u = lam * u the update is controlled by
z = lam * dt^alpha and the generating function omega(xi) = sum_n omega_n xi^n.
The stability region is the complement of the image of the closed unit disk,
which by the argument principle can be probed with a winding number around the
truncated boundary locus zeta(theta) = sum_{n<=N} omega_n e^(i n theta): one real
FFT samples the locus, and signed crossings of a ray from z count the winding.
The count reads only the few edges whose ends lie on either side of the ray's
line.  Where the samples' bounding box leaves the ray no edge to cross (z level
with no sample, or right of all of them) the winding is exactly 0, and with z
10 sampling lengths clear of the box the level is confident too: its samples
are read only for a margin that a verdict reports.

series_diagnostics exposes the factor sequences phi (partial sums of omega,
i.e. omega(xi) = (1-xi) phi(xi)) and psi (coefficients of
(1-xi)^(1-alpha) phi(xi), so omega(xi) = (1-xi)^alpha psi(xi), psi(1) = 1).
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .special import binom_series, require_alpha, require_count, require_finite_complex
from .weights import SchemeId, _as_scheme, weight_table

__all__ = [
    "LocusCurve",
    "RegionVerdict",
    "SeriesDiagnostics",
    "boundary_locus",
    "in_stability_region",
    "series_diagnostics",
]

_DEFAULT_TERMS = 6000
_ON_CURVE_TOL = 1e-12
_RESOLUTION_FACTOR = 10.0
_MAX_SAMPLES = 1 << 20
# A box distance this factor past a bound puts np.abs of every sample past it too:
# both are rounded within a few ulps of distances the box distance does not exceed.
_BOX_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class LocusCurve:
    thetas: np.ndarray
    points: np.ndarray


@dataclass(frozen=True)
class RegionVerdict:
    """Membership verdict for z: inside the stability region, outside it
    (i.e. inside the forbidden omega-image), or too close to the sampled
    locus to call (boundary)."""

    verdict: str          # "inside" | "outside" | "boundary"
    margin: float         # min distance from z to the sampled locus
    winding: Optional[int]
    samples: int


@dataclass(frozen=True)
class SeriesDiagnostics:
    phi: np.ndarray
    psi: np.ndarray


def boundary_locus(scheme, alpha: float, terms: int = _DEFAULT_TERMS, samples: int = 2048) -> LocusCurve:
    """Truncated locus zeta(2 pi m / samples), m = 0..samples: _locus_samples, closed at 2 pi."""
    s = _as_scheme(scheme)
    terms, samples = _check_terms_samples(terms, samples)
    alpha = require_alpha(alpha)
    thetas = 2.0 * math.pi * np.arange(samples + 1) / samples
    open_points = _locus_samples(s.k, s.i, alpha, terms, samples)[0]
    points = np.append(open_points, open_points[0])
    thetas.flags.writeable = False
    points.flags.writeable = False
    return LocusCurve(thetas=thetas, points=points)


@lru_cache(maxsize=8)
def _locus_samples(k: int, i: int, alpha: float, terms: int, samples: int):
    """Open sampling (m = 0..samples-1) of the truncated locus on the uniform full circle,
    with the perimeter of the closed polygon through the samples and its bounding box
    (min Re, max Re, max |Im|): the samples' imaginary parts lie in [-max |Im|, max |Im|].

    The sum zeta(theta_m) = sum_n omega_n e^(2 pi i n m / S) only sees n mod S:
    one real FFT of the coefficients folded modulo S, reversed mod S, gives
    m <= S/2, and zeta(-theta) = conj(zeta(theta)) the rest, so the box is read
    off that half.  This is the only evaluation of the locus series.

    A build keeps the 16 S bytes of the samples.  On the way it allocates the
    half spectrum (8 S bytes) and then the edge vectors of the perimeter
    (16 S bytes), a peak of 40 S bytes.  The folded coefficients are written
    into the samples' memory, which the FFT has read before the samples fill
    it, and the edge lengths into the half spectrum's once the samples hold it,
    so neither takes fresh memory.  When S < terms + 1 the fold also allocates
    the zero-padded coefficients and their S sums.
    """
    omega = weight_table(SchemeId(k, i), alpha, terms).omega
    pts = np.empty(samples, dtype=complex)
    half = np.fft.rfft(_fold_reversed(omega, pts.view(float)[:samples]))
    pts[: half.size] = half
    np.conjugate(half[samples - half.size : 0 : -1], out=pts[half.size :])
    pts.flags.writeable = False
    im = half.imag
    box = (float(half.real.min()), float(half.real.max()), max(float(im.max()), -float(im.min())) + 0.0)
    lengths = np.abs(pts[1:] - pts[:-1], out=half.view(float)[: samples - 1])
    perimeter = float(lengths.sum()) + abs(pts[0] - pts[-1])
    return pts, perimeter, box


def _fold_reversed(omega: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write f_{-m mod S} into out (S = out.size), where f_m = sum of omega_n over n = m mod S,
    and return out.  Each f_m is a sum with a +0.0 in it, so a -0.0 coefficient folds to +0.0."""
    S, n = out.size, omega.size
    if S < n:
        folded = np.concatenate([omega, np.zeros(-n % S)]).reshape(-1, S).sum(axis=0)
        out[0] = folded[0]
        out[1:] = folded[:0:-1]
    else:
        out[0] = omega[0] + 0.0
        out[1 : S - n + 1] = 0.0
        np.add(omega[:0:-1], 0.0, out=out[S - n + 1 :])
    return out


def _check_terms_samples(terms, samples, max_samples=None):
    return require_count(terms, "terms", 1), require_count(samples, "samples", 16, max_samples)


def _winding_number(rel: np.ndarray) -> int:
    """Turns of the closed polygon rel (points - z) around 0, as signed crossings of
    the ray 0 -> +Re (Hormann and Agathos 2001): +1 up, -1 down, on each edge along
    which rel.imag > 0 changes and that meets the real axis at x > 0.  Only those
    edges are read, each in Python floats (the same IEEE operations, so the same
    intercept as an array pass).  Products stay within the size of rel, so no finite
    z overflows."""
    # gathering the imaginary parts first is faster than comparing on the strided view
    up = np.ascontiguousarray(rel.imag) > 0
    edges = np.flatnonzero(up[:-1] != up[1:]).tolist()
    if up[-1] != up[0]:
        edges.append(-1)
    w = 0
    for j in edges:
        a, b = complex(rel[j]), complex(rel[j + 1])
        if a.real - a.imag / (b.imag - a.imag) * (b.real - a.real) > 0:
            w += -1 if a.imag > 0 else 1
    return w


def _box_gap(box, z: complex) -> Optional[float]:
    """Distance from z to the samples' bounding box when no edge can cross z's ray,
    else None.  With z level with no sample (y >= max Im or y < min Im) no edge
    changes side of the ray's line, and with z right of every sample (x >= max Re)
    every intercept rounds to <= 0: either way the winding is exactly 0.  Each
    sample's |Re| and |Im| relative to z round to no less than the box's dx and dy,
    so its margin is at least the returned distance to within _BOX_SLACK."""
    re_min, re_max, im_max = box
    if not (z.imag >= im_max or z.imag < -im_max or z.real >= re_max):
        return None
    dx = max(re_min - z.real, z.real - re_max, 0.0)
    dy = max(-im_max - z.imag, z.imag - im_max, 0.0)
    return math.hypot(dx, dy)


def in_stability_region(
    scheme,
    alpha: float,
    z,
    terms: int = _DEFAULT_TERMS,
    samples: int = 4096,
) -> RegionVerdict:
    """Winding-number membership test of z against the truncated locus.

    The sample count doubles until the verdict holds at two consecutive
    resolutions with the margin at least 10 sampling lengths; queries that
    stay closer than that to the sampled curve come back "boundary".
    z = 0 is the image of xi = 1 exactly and short-circuits to "outside".
    The doubling stops at 2^20 samples, so samples may be at most 2^19: a
    start needs one doubling to confirm its verdict.

    A level whose samples are read costs one subtraction, np.abs and min for
    the margin, and the winding count reads only the edges that cross the line
    of z's ray.  When the level's bounding box leaves the ray no edge to cross
    (z level with no sample, or right of all of them) its winding is 0, and
    with z 10 sampling lengths (times 1 + 1e-12 for rounding) from the box it
    is confident, exactly as if read; such a level is read only when it
    confirms a verdict, for the margin the verdict reports.  The margin of a
    level left unread enters only a final "boundary" margin.
    """
    s = _as_scheme(scheme)
    alpha = require_alpha(alpha)
    terms, samples = _check_terms_samples(terms, samples, _MAX_SAMPLES // 2)
    z = require_finite_complex(z)
    if z == 0:
        return RegionVerdict(verdict="outside", margin=0.0, winding=None, samples=0)

    S = samples
    prev: Optional[int] = None
    best_margin = math.inf
    unread = []
    while True:
        pts, perimeter, box = _locus_samples(s.k, s.i, alpha, terms, S)
        threshold = _RESOLUTION_FACTOR * (perimeter / S)
        gap = _box_gap(box, z)
        if gap is not None and prev != 0 and gap >= _BOX_SLACK * max(threshold, _ON_CURVE_TOL):
            unread.append(pts)
            prev = 0
        else:
            rel = pts - z
            margin = float(np.abs(rel).min())
            best_margin = min(best_margin, margin)
            if margin < _ON_CURVE_TOL:
                return RegionVerdict(verdict="boundary", margin=margin, winding=None, samples=S)
            w = 0 if gap is not None else _winding_number(rel)
            confident = margin >= threshold
            if confident and w == prev:
                verdict = "inside" if w == 0 else "outside"
                return RegionVerdict(verdict=verdict, margin=margin, winding=w, samples=S)
            prev = w if confident else None
        if S >= _MAX_SAMPLES:
            best_margin = min([best_margin, *(float(np.abs(p - z).min()) for p in unread)])
            return RegionVerdict(verdict="boundary", margin=best_margin, winding=None, samples=S)
        S *= 2


def series_diagnostics(scheme, alpha: float, n_max: int) -> SeriesDiagnostics:
    """phi = cumulative sums of omega; psi = (1-xi)^(1-alpha) * phi coefficients."""
    omega = weight_table(scheme, alpha, n_max).omega
    phi = np.cumsum(omega)
    g = binom_series(1.0 - alpha, n_max)
    psi = np.convolve(g, phi)[: n_max + 1]
    phi.flags.writeable = False
    psi.flags.writeable = False
    return SeriesDiagnostics(phi=phi, psi=psi)

