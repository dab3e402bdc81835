"""Scalar special functions used throughout: real gamma, Mittag-Leffler, binomial series."""

import cmath
import functools
import math

import numpy as np

__all__ = ["MittagLefflerError", "gamma_real", "mittag_leffler", "binom_series"]

_GAMMA_X_MAX = 50.0
_MLF_MAX_TERMS = 400
_MLF_ABS_Z_MAX = 10.0
_MLF_STOP_RATIO = 1e-17


class MittagLefflerError(ArithmeticError):
    """Mittag-Leffler series did not converge within the term cap."""


def gamma_real(x: float) -> float:
    """Gamma function restricted to 0 < x <= 50 (the range scheme weights need)."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise ValueError(f"gamma_real needs a finite real argument, got {x!r}")
    if not 0.0 < x <= _GAMMA_X_MAX:
        raise ValueError(f"gamma_real domain is (0, {_GAMMA_X_MAX}], got {x}")
    return math.gamma(x)


def require_finite_complex(z, name: str = "z") -> complex:
    """Coerce to complex and reject NaN/Inf components."""
    try:
        z = complex(z)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not a complex scalar: {z!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must have finite components, got {z!r}")
    return z


@functools.lru_cache(maxsize=64)
def _mlf_coefficients(alpha: float, beta: float):
    """(lgamma(alpha*k + beta), exp(-lgamma(alpha*k + beta))) for k = 0.._MLF_MAX_TERMS."""
    lgs = tuple(math.lgamma(alpha * k + beta) for k in range(_MLF_MAX_TERMS + 1))
    return lgs, tuple(math.exp(-lg) for lg in lgs)


def mittag_leffler(alpha: float, beta: float, z) -> complex:
    """E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha*k + beta).

    Direct series with Neumaier-compensated accumulation.  Summation stops
    once a term falls below 1e-17 of the running sum; 400 terms is the hard
    cap, past which MittagLefflerError is raised (the slowly converging
    corner of small alpha with large |z|).

    The domain is alpha in (0, 2], beta > 0, |z| <= 10.
    """
    if not (isinstance(alpha, (int, float)) and 0.0 < alpha <= 2.0):
        raise ValueError(f"mittag_leffler order must lie in (0, 2], got {alpha!r}")
    if not (isinstance(beta, (int, float)) and math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"mittag_leffler second parameter must be positive, got {beta!r}")
    z = require_finite_complex(z)
    if abs(z) > _MLF_ABS_Z_MAX:
        raise ValueError(f"mittag_leffler requires |z| <= {_MLF_ABS_Z_MAX}, got |z| = {abs(z)}")
    if z == 0:
        return complex(1.0 / math.gamma(beta))

    # Neumaier running sums for real and imaginary parts.
    s_re = c_re = 0.0
    s_im = c_im = 0.0
    log_abs_z = math.log(abs(z))
    arg_z = cmath.phase(z)
    zpow = complex(1.0)
    log_form = False
    lgs, inv_gammas = _mlf_coefficients(float(alpha), float(beta))
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
        t = s_re + x
        c_re += (s_re - t) + x if abs(s_re) >= abs(x) else (x - t) + s_re
        s_re = t
        x = term.imag
        t = s_im + x
        c_im += (s_im - t) + x if abs(s_im) >= abs(x) else (x - t) + s_im
        s_im = t

        if abs(term) <= _MLF_STOP_RATIO * math.hypot(s_re + c_re, s_im + c_im):
            return complex(s_re + c_re, s_im + c_im)

        if not log_form:
            zpow *= z
            if abs(zpow) > 1e280:
                log_form = True
    raise MittagLefflerError(
        f"no convergence within {_MLF_MAX_TERMS} terms for alpha={alpha}, beta={beta}, z={z}"
    )


def binom_series(beta: float, n_max: int) -> np.ndarray:
    """Coefficients g_n of (1 - x)^beta = sum_n g_n x^n for n = 0..n_max.

    Uses the ratio recurrence g_0 = 1, g_n = g_{n-1} (n - 1 - beta) / n, which is
    stable for the |beta| < 2 range the stability diagnostics use.
    """
    if not (isinstance(beta, (int, float)) and math.isfinite(beta) and abs(beta) < 2.0):
        raise ValueError(f"binom_series requires |beta| < 2, got {beta!r}")
    if not (isinstance(n_max, (int, np.integer)) and n_max >= 0):
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max!r}")
    g = np.empty(int(n_max) + 1)
    g[0] = 1.0
    for n in range(1, int(n_max) + 1):
        g[n] = g[n - 1] * (n - 1.0 - beta) / n
    return g
