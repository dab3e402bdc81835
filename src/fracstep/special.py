"""Special functions used throughout: real gamma, Mittag-Leffler, binomial series.

Also the input rules the other modules share, each written once here (a
bool is never a number to any of them): require_count for the integer indices
and lengths, require_real for real scalars, require_alpha for the fractional
order in (0, 1), and require_finite_complex for complex scalars.
"""

import cmath
import functools
import math

import numpy as np

__all__ = ["MittagLefflerError", "gamma_real", "mittag_leffler", "binom_series"]

_GAMMA_X_MAX = 50.0
_MLF_MAX_TERMS = 400
_MLF_ABS_Z_MAX = 10.0
_MLF_STOP_RATIO = 1e-17
_MLF_UNIT_ROUNDOFF = 2.0 ** -53
_MLF_REL_BUDGET = 1e-13
_MLF_LOG_FORM_POWER = 1e280   # past this |z^k| the scalar loop forms terms from logs


class MittagLefflerError(ArithmeticError):
    """Mittag-Leffler series did not converge, or lost accuracy to cancellation."""


def gamma_real(x: float) -> float:
    """Gamma function restricted to 0 < x <= 50 (the range scheme weights need)."""
    x = require_real(x, "gamma_real argument")
    if not 0.0 < x <= _GAMMA_X_MAX:
        raise ValueError(f"gamma_real domain is (0, {_GAMMA_X_MAX}], got {x}")
    return math.gamma(x)


def require_finite_complex(z, name: str = "z") -> complex:
    """Coerce to complex and reject NaN/Inf components and bools."""
    if isinstance(z, (bool, np.bool_)):
        raise ValueError(f"{name} is not a complex scalar: {z!r}")
    try:
        z = complex(z)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} is not a complex scalar: {z!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must have finite components, got {z!r}")
    return z


def require_count(value, name: str, low=0, high=None) -> int:
    """value as an int, for an int or NumPy integer (never a bool) with low <= value <= high.

    low or high None leaves that side open.  Anything else raises ValueError,
    e.g. "q must be an integer with 1 <= q <= 3, got 4".
    """
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and (low is None or value >= low) and (high is None or value <= high)):
        return int(value)
    lo = "" if low is None else f"{low} <= "
    hi = "" if high is None else f" <= {high}"
    raise ValueError(f"{name} must be an integer with {lo}{name}{hi}, got {value!r}")


def require_real(x, name: str) -> float:
    """x as a float, for a finite int, float or NumPy integer or floating scalar (never a bool)."""
    if isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool):
        try:
            if math.isfinite(x):
                return float(x)
        except OverflowError:   # an int past the float range
            pass
    raise ValueError(f"{name} must be a finite real number, got {x!r}")


def require_alpha(alpha) -> float:
    """The fractional order as a float: a real number (require_real) in (0, 1), else ValueError."""
    if 0.0 < require_real(alpha, "fractional order alpha") < 1.0:
        return float(alpha)
    raise ValueError(f"fractional order alpha must lie in (0, 1), got {alpha!r}")


@functools.lru_cache(maxsize=64)
def _mlf_coefficients(alpha: float, beta: float):
    """Per term k = 0.._MLF_MAX_TERMS of the series: lgamma(alpha*k + beta),
    its inverse gamma exp(-lgamma), and the rounding weight w_k of the guard.

    lgamma is accurate relative to its value, so exp(-lgamma) times z^k
    carries about (1 + |lgamma|) u of relative rounding.  The k roundings of
    z^k = z^(k-1) * z, each uniform in [-u, u], add like a random walk of
    standard deviation sqrt(k/3) u (Higham & Mary, SIAM J. Sci. Comput. 41
    (2019) A2815).  w_k = 1 + |lgamma| + sqrt((k + 1)/3).
    """
    lgs = tuple(math.lgamma(alpha * k + beta) for k in range(_MLF_MAX_TERMS + 1))
    weights = tuple(1.0 + abs(lg) + math.sqrt((k + 1) / 3.0) for k, lg in enumerate(lgs))
    return lgs, tuple(math.exp(-lg) for lg in lgs), weights


def mittag_leffler(alpha: float, beta: float, z):
    """E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha*k + beta).

    z is a scalar, for which a complex is returned, or an ndarray, for which
    a complex array of the same shape is returned.  The array form sums the
    series for all points at once and gives the scalar loop's values, point
    by point (bit for bit on real z).

    Direct series with Neumaier-compensated accumulation.  Summation stops
    once a term falls below 1e-17 of the running sum; 400 terms is the hard
    cap.  With w_k the rounding weight of term t_k (see _mlf_coefficients),
    u * sum_k w_k |t_k| / |E| estimates the relative error; where it exceeds
    1e-13 (cancellation: large |z| off the positive axis) MittagLefflerError
    is raised rather than a value returned.  Hitting the term cap or
    overflowing a term raises it too.  For an array, any one failing point
    fails the call.

    Once |z^k| passes 1e280 the terms are formed as exp(k log z - lgamma)
    instead of z^k / Gamma.  Only the scalar loop has this log form; an array
    point that reaches it is handed to the scalar loop.

    The domain is alpha in (0, 2], beta > 0, |z| <= 10 (ValueError outside,
    for a bool in any argument, or for a non-finite z).
    """
    if not 0.0 < require_real(alpha, "mittag_leffler order") <= 2.0:
        raise ValueError(f"mittag_leffler order must lie in (0, 2], got {alpha!r}")
    if not require_real(beta, "mittag_leffler second parameter") > 0.0:
        raise ValueError(f"mittag_leffler second parameter must be positive, got {beta!r}")
    if isinstance(z, np.ndarray):
        return _mittag_leffler_array(float(alpha), float(beta), z)
    z = require_finite_complex(z)
    if abs(z) > _MLF_ABS_Z_MAX:
        raise ValueError(f"mittag_leffler requires |z| <= {_MLF_ABS_Z_MAX}, got |z| = {abs(z)}")
    if z == 0:
        return complex(1.0 / math.gamma(beta))

    # Neumaier running sums for real and imaginary parts; adding a zero part
    # leaves both unchanged, so it is skipped (every other part, on real z).
    s_re = c_re = 0.0
    s_im = c_im = 0.0
    rounding = 0.0
    log_abs_z = math.log(abs(z))
    arg_z = cmath.phase(z)
    zpow = complex(1.0)
    log_form = False
    lgs, inv_gammas, weights = _mlf_coefficients(float(alpha), float(beta))
    for k, lg in enumerate(lgs):
        if log_form:
            expo = k * log_abs_z - lg
            if expo > 700.0:
                raise MittagLefflerError(
                    f"series term overflow at k={k} for alpha={alpha}, beta={beta}, z={z}"
                )
            term = cmath.exp(complex(expo, k * arg_z))
        else:
            term = zpow * inv_gammas[k] if lg < 745.0 else complex(0.0)

        x = term.real
        if x:
            t = s_re + x
            c_re += (s_re - t) + x if abs(s_re) >= abs(x) else (x - t) + s_re
            s_re = t
        x = term.imag
        if x:
            t = s_im + x
            c_im += (s_im - t) + x if abs(s_im) >= abs(x) else (x - t) + s_im
            s_im = t

        size = abs(term)
        rounding += weights[k] * size
        total = math.hypot(s_re + c_re, s_im + c_im)
        if size <= _MLF_STOP_RATIO * total:
            if _MLF_UNIT_ROUNDOFF * rounding > _MLF_REL_BUDGET * total:
                raise _cancellation(rounding, total, alpha, beta, z)
            return complex(s_re + c_re, s_im + c_im)

        if not log_form:
            zpow *= z
            if abs(zpow) > _MLF_LOG_FORM_POWER:
                log_form = True
    raise MittagLefflerError(
        f"no convergence within {_MLF_MAX_TERMS} terms for alpha={alpha}, beta={beta}, z={z}"
    )


def _cancellation(rounding, total, alpha, beta, z):
    """The error for a sum of |E| = total whose rounding estimate passed the budget."""
    return MittagLefflerError(
        f"series cancellation: estimated relative error "
        f"{_MLF_UNIT_ROUNDOFF * rounding / total:.1e} > {_MLF_REL_BUDGET:g} "
        f"for alpha={alpha}, beta={beta}, z={z}"
    )


def _neumaier(s, c, x):
    """Elementwise Neumaier update of the running sum s and compensation c by x."""
    t = s + x
    c += np.where(np.abs(s) >= np.abs(x), (s - t) + x, (x - t) + s)
    return t, c


def _norm(parts):
    """|w| for w held as rows [re, im], or as [re] alone on the real axis."""
    return np.hypot(parts[0], parts[1]) if len(parts) == 2 else np.abs(parts[0])


def _times(p, z):
    """p * z in the rows of _norm, formed as CPython forms a complex product."""
    if len(p) == 1:
        return p * z
    return np.stack([p[0] * z[0] - p[1] * z[1], p[0] * z[1] + p[1] * z[0]])


def _mittag_leffler_array(alpha, beta, z):
    """The scalar series, run on every point of z at once.

    Each array operation is the scalar loop's operation, point by point, on
    rows [re, im] (only [re] when z is real, whose imaginary parts stay zero),
    so the results match the scalar loop.  A point leaves the working set at
    the term where the scalar loop would return.  A point whose next power
    z^(k+1) passes 1e280, where the scalar loop turns to the log form of the
    terms, leaves at that term too: it is handed to the scalar loop, whose
    value (or error) it takes.
    """
    if z.dtype.kind not in "iufc":
        raise ValueError(f"z must be a numeric array, got dtype {z.dtype}")
    z = z.astype(complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("z must have finite components at every point")
    z_max = np.abs(z).max() if z.size else 0.0
    if z_max > _MLF_ABS_Z_MAX:
        raise ValueError(f"mittag_leffler requires |z| <= {_MLF_ABS_Z_MAX}, got max |z| = {z_max}")
    out = np.full(z.shape, 1.0 / math.gamma(beta), dtype=complex)
    flat = out.reshape(-1)
    idx = np.flatnonzero(z)          # z = 0 keeps 1/Gamma(beta)
    zs = z.reshape(-1)[idx]
    rows = np.stack([zs.real, zs.imag]) if zs.imag.any() else zs.real[None, :]
    s, c = np.zeros_like(rows), np.zeros_like(rows)
    rounding = np.zeros(idx.size)
    p = np.zeros_like(rows)
    p[0] = 1.0                       # z^0
    lgs, inv_gammas, weights = _mlf_coefficients(alpha, beta)
    for k, lg in enumerate(lgs):
        if not idx.size:
            return out
        term = p * (inv_gammas[k] if lg < 745.0 else 0.0)
        s, c = _neumaier(s, c, term)
        size = _norm(term)
        rounding += weights[k] * size
        total = _norm(s + c)
        done = size <= _MLF_STOP_RATIO * total
        if done.any():
            over = done & (_MLF_UNIT_ROUNDOFF * rounding > _MLF_REL_BUDGET * total)
            if over.any():
                j = over.argmax()
                raise _cancellation(rounding[j], total[j], alpha, beta, complex(zs[j]))
        p = _times(p, rows)
        handed = ~done & (_norm(p) > _MLF_LOG_FORM_POWER)
        if done.any() or handed.any():
            for j in np.flatnonzero(handed):
                flat[idx[j]] = mittag_leffler(alpha, beta, complex(zs[j]))
            result = s[:, done] + c[:, done]
            flat.real[idx[done]] = result[0]
            if len(rows) == 2:
                flat.imag[idx[done]] = result[1]
            keep = ~(done | handed)
            idx, zs, rounding = idx[keep], zs[keep], rounding[keep]
            rows, s, c, p = rows[:, keep], s[:, keep], c[:, keep], p[:, keep]
    if not idx.size:
        return out
    raise MittagLefflerError(
        f"no convergence within {_MLF_MAX_TERMS} terms for alpha={alpha}, beta={beta}, z={zs[0]}"
    )


def binom_series(beta: float, n_max: int) -> np.ndarray:
    """Coefficients g_n of (1 - x)^beta = sum_n g_n x^n for n = 0..n_max.

    Uses the ratio recurrence g_0 = 1, g_n = g_{n-1} (n - 1 - beta) / n, which is
    stable for the |beta| < 2 range the stability diagnostics use.
    """
    beta = require_real(beta, "binom_series exponent beta")
    if not abs(beta) < 2.0:
        raise ValueError(f"binom_series requires |beta| < 2, got {beta!r}")
    n_max = require_count(n_max, "n_max")
    g = np.empty(n_max + 1)
    g[0] = 1.0
    for n in range(1, n_max + 1):
        g[n] = g[n - 1] * (n - 1.0 - beta) / n
    return g
