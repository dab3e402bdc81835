"""Tests for the scalar special functions: gamma, Mittag-Leffler, binomial series."""

import functools
import math

import numpy as np
import pytest

from fracstep import (
    GridSpec,
    MittagLefflerError,
    NewtonConfig,
    ProblemSpec,
    binom_series,
    caputo_monomial,
    gamma_real,
    linear_complex,
    mittag_leffler,
    mlf_decay,
    nonlinear_square,
)
from fracstep.special import require_alpha, require_count, require_finite_complex, require_real

# Reference values computed with 40-digit arithmetic from the defining series.
MLF_REFERENCE = [
    (0.5, 1.0, -0.8, 0.48910058922311471 + 0.0j),
    (0.3, 0.7, 0.5 + 0.5j, 0.68866084263808147 + 1.1116896971554704j),
    (1.0, 2.0, -1.0, 0.63212055882855768 + 0.0j),
    (0.9, 1.0, -2.5, 0.11469986754557785 + 0.0j),
    (1.5, 1.0, 2.0, 3.3487008963183954 + 0.0j),
    (2.0, 1.0, -4.0, -0.41614683654714239 + 0.0j),
    (0.1, 1.0, -0.5, 0.65432446028800193 + 0.0j),
]


def test_gamma_real_matches_math_gamma():
    for x in (0.1, 0.5, 1.0, 1.5, 3.7, 12.0, 50.0):
        assert gamma_real(x) == math.gamma(x)


@pytest.mark.parametrize("x", [0.0, -1.0, 50.0001, math.nan, math.inf, True])
def test_gamma_real_rejects_out_of_domain(x):
    with pytest.raises(ValueError):
        gamma_real(x)


def test_mittag_leffler_reference_values():
    for alpha, beta, z, ref in MLF_REFERENCE:
        got = mittag_leffler(alpha, beta, z)
        assert abs(got - ref) <= 1e-13 * abs(ref), (alpha, beta, z)


def test_mittag_leffler_classical_special_cases():
    # E_{1,1}(z) = exp(z), E_{2,1}(-x^2) = cos(x), E_{1,2}(z) = (e^z - 1)/z
    assert abs(mittag_leffler(1.0, 1.0, 0.7) - math.exp(0.7)) < 1e-14
    assert abs(mittag_leffler(2.0, 1.0, -4.0) - math.cos(2.0)) < 1e-14
    assert abs(mittag_leffler(1.0, 2.0, -1.0) - (1.0 - math.exp(-1.0))) < 1e-15
    z = 0.3 + 0.4j
    assert abs(mittag_leffler(1.0, 1.0, z) - np.exp(z)) < 1e-14


def test_mittag_leffler_at_zero_is_inverse_gamma():
    for beta in (0.6, 1.0, 2.0, 3.5):
        assert mittag_leffler(0.7, beta, 0.0) == complex(1.0 / math.gamma(beta))


def test_mittag_leffler_domain_errors():
    with pytest.raises(ValueError):
        mittag_leffler(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        mittag_leffler(2.5, 1.0, 0.1)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 0.0, 0.1)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, -1.0, 0.1)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 1.0, 11.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 1.0, complex(math.nan, 0.0))
    with pytest.raises(ValueError):
        mittag_leffler(True, 1.0, 0.5)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, True, 0.5)


def test_mittag_leffler_term_cap_raises():
    # alpha = 0.1 at z = 10: the terms overflow at k = 343, before the 400-term cap.
    with pytest.raises(MittagLefflerError):
        mittag_leffler(0.1, 1.0, 10.0)


def test_binom_series_integer_exponent():
    g = binom_series(1.0, 6)
    assert np.allclose(g, [1.0, -1.0, 0, 0, 0, 0, 0], atol=1e-15)
    g = binom_series(-1.0, 6)  # 1/(1-x) has all-ones coefficients
    assert np.allclose(g, np.ones(7), atol=1e-15)


def test_binom_series_partial_sum_matches_power():
    # sum_n g_n x^n ~ (1-x)^beta with a geometric tail at |x| < 1
    for beta in (0.5, -0.5, 1.3, -1.9):
        g = binom_series(beta, 200)
        x = 0.3
        val = float(np.polyval(g[::-1], x))
        assert abs(val - (1.0 - x) ** beta) < 1e-12, beta


def test_binom_series_matches_scipy_binom():
    from scipy.special import binom as sp_binom

    for beta in (0.4, -0.7, 1.5):
        g = binom_series(beta, 30)
        ref = np.array([(-1.0) ** n * sp_binom(beta, n) for n in range(31)])
        assert np.allclose(g, ref, rtol=1e-13, atol=1e-16), beta


def test_binom_series_domain_errors():
    with pytest.raises(ValueError):
        binom_series(2.0, 4)
    with pytest.raises(ValueError):
        binom_series(math.nan, 4)
    with pytest.raises(ValueError):
        binom_series(0.5, -1)
    with pytest.raises(ValueError):
        binom_series(0.5, True)


def test_require_count_and_require_alpha():
    assert require_count(0, "n") == 0
    assert require_count(3, "q", 1, 3) == 3
    assert require_count(-7, "n", None, 4) == -7
    got = require_count(np.int64(5), "M", 1)
    assert got == 5 and type(got) is int
    for value, low, high in ((True, 0, None), (False, 0, None), (2.0, 0, None), ("2", 0, None),
                             (None, 0, None), (-1, 0, None), (0, 1, None), (4, 1, 3), (np.bool_(True), 0, None)):
        with pytest.raises(ValueError):
            require_count(value, "n", low, high)
    with pytest.raises(ValueError, match=r"q must be an integer with 1 <= q <= 3, got 4"):
        require_count(4, "q", 1, 3)
    with pytest.raises(ValueError, match=r"n <= 4"):
        require_count(5, "n", None, 4)

    got = require_alpha(0.25)
    assert got == 0.25 and type(got) is float
    assert type(require_alpha(np.float64(0.5))) is float
    assert require_alpha(np.float32(0.5)) == 0.5
    for bad in (0.0, 1.0, -0.5, 1.5, math.nan, True, False, "0.5", None):
        with pytest.raises(ValueError, match="alpha"):
            require_alpha(bad)


def test_require_real():
    for x in (0, 3, -2.5, np.int64(7), np.float64(0.25), np.float32(0.5)):
        got = require_real(x, "x")
        assert got == x and type(got) is float
    for bad in (True, False, np.bool_(True), math.nan, -math.inf, np.float32("inf"), 1j, "1", None):
        with pytest.raises(ValueError, match="horizon T must be a finite real number"):
            require_real(bad, "horizon T")
    for huge in (10 ** 400, -10 ** 400, 2 ** 1024):  # ints past the float range
        with pytest.raises(ValueError, match="horizon T must be a finite real number"):
            require_real(huge, "horizon T")


@pytest.mark.parametrize("call", [
    lambda: require_finite_complex(10 ** 400, "u0"),
    lambda: mittag_leffler(10 ** 400, 1.0, 0.5),
    lambda: mittag_leffler(0.5, 10 ** 400, 0.5),
    lambda: mittag_leffler(0.5, 1.0, -10 ** 400),
], ids=["require_finite_complex", "mlf_alpha", "mlf_beta", "mlf_z"])
def test_int_past_the_float_range_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()


# Every shared input rule: a bool is never a number, real or complex.
@pytest.mark.parametrize("call", [
    lambda b: require_finite_complex(b, "u0"),
    lambda b: mittag_leffler(0.5, 1.0, b),
    lambda b: linear_complex(0.5, b),
    lambda b: ProblemSpec(alpha=0.5, u0=b, rhs=lambda t, u: -u),
    lambda b: GridSpec(T=b, M=4),
    lambda b: require_alpha(b),
    lambda b: NewtonConfig(tol=b),
    lambda b: binom_series(b, 3),
    lambda b: caputo_monomial(1, 0.5, b),
], ids=["require_finite_complex", "mlf_z", "linear_complex_lam", "problem_u0", "grid_T", "alpha",
        "newton_tol", "binom_beta", "caputo_t"])
@pytest.mark.parametrize("flag", [True, False, np.bool_(True)], ids=["True", "False", "np_True"])
def test_bool_is_not_a_number(call, flag):
    with pytest.raises(ValueError):
        call(flag)


def test_numpy_float32_is_a_real_number():
    assert GridSpec(T=np.float32(2.0), M=4).dt == 0.5
    assert type(GridSpec(T=np.float32(2.0), M=4).T) is float
    assert NewtonConfig(tol=np.float32(0.25)).tol == 0.25
    assert ProblemSpec(alpha=np.float32(0.5), u0=1.0, rhs=lambda t, u: -u).alpha == 0.5
    assert mittag_leffler(np.float32(0.5), np.float32(1.0), -0.5) == mittag_leffler(0.5, 1.0, -0.5)
    for make in (mlf_decay, lambda a: linear_complex(a, -1.0), lambda a: nonlinear_square(a, -1.0)):
        single, double = make(np.float32(0.5)), make(0.5)
        assert single.exact(0.3) == double.exact(0.3) and single.forcing(0.3) == double.forcing(0.3)


# ---------------------------------------------------------------------------
# array input

def _scalar_loop(alpha, beta, z):
    return np.array([mittag_leffler(alpha, beta, complex(v)) for v in np.ravel(z)],
                    dtype=complex).reshape(np.shape(z))


@pytest.mark.parametrize("alpha, beta",
                         [(0.5, 1.0), (0.3, 1.7), (0.9, 1.0), (1.0, 1.5), (2.0, 0.5)])
def test_mittag_leffler_array_matches_scalar_loop(alpha, beta):
    real = -np.linspace(0.0, 1.0, 41) ** 0.7
    real = np.concatenate([real, -real])
    got = mittag_leffler(alpha, beta, real)
    assert got.dtype == complex and got.shape == real.shape
    assert np.array_equal(got, _scalar_loop(alpha, beta, real))   # bit for bit

    rng = np.random.default_rng(7)
    cplx = 1.2 * np.sqrt(rng.uniform(size=(6, 7))) * np.exp(2j * np.pi * rng.uniform(size=(6, 7)))
    got = mittag_leffler(alpha, beta, cplx)
    ref = _scalar_loop(alpha, beta, cplx)
    assert got.shape == (6, 7)
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))


def test_mittag_leffler_array_shapes():
    zero_d = mittag_leffler(0.5, 1.0, np.array(-0.8))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert zero_d[()] == mittag_leffler(0.5, 1.0, -0.8)
    empty = mittag_leffler(0.5, 1.0, np.zeros((3, 0)))
    assert empty.shape == (3, 0) and empty.dtype == complex
    grid = np.array([[0.0, -0.5], [0.25j, 1.0]])
    assert np.array_equal(mittag_leffler(0.7, 1.2, grid), _scalar_loop(0.7, 1.2, grid))
    assert mittag_leffler(0.7, 1.2, np.zeros(3, dtype=int))[0] == 1.0 / math.gamma(1.2)


def test_mittag_leffler_scalar_input_returns_complex():
    for z in (-0.5, 2, 0.3 + 0.1j, np.float64(-0.5), np.complex128(0.2j)):
        assert type(mittag_leffler(0.5, 1.0, z)) is complex


@pytest.mark.parametrize("bad",
                         [10.5, -11.0, 8.0 + 7.0j, math.nan, math.inf, complex(0.0, math.nan)])
def test_mittag_leffler_array_with_one_bad_point_raises(bad):
    z = np.linspace(-1.0, 1.0, 9).astype(complex)
    z[4] = bad
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 1.0, z)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 1.0, np.array(["-1"]))


def test_mittag_leffler_array_point_that_fails_the_series_raises():
    z = np.linspace(-1.0, 0.0, 5)
    z[2] = -5.0   # cancellation past the accuracy budget
    with pytest.raises(MittagLefflerError):
        mittag_leffler(0.5, 1.0, z)
    with pytest.raises(MittagLefflerError):   # term overflow at k = 343
        mittag_leffler(0.1, 1.0, np.array([0.5, 10.0]))


# ---------------------------------------------------------------------------
# accuracy guard, against a 60-digit series

@functools.lru_cache(maxsize=None)
def _mp_inverse_gammas(alpha, beta):
    import mpmath

    with mpmath.workdps(60):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        return tuple(mpmath.rgamma(a * k + b) for k in range(900))


def _mp_mittag_leffler(alpha, beta, z):
    """The defining series in 60-digit arithmetic, summed past its largest term to 1e-45."""
    import mpmath

    with mpmath.workdps(60):
        z = mpmath.mpc(z)
        total, power, prev = mpmath.mpc(0), mpmath.mpc(1), None
        for k, c in enumerate(_mp_inverse_gammas(alpha, beta)):
            term = power * c
            total += term
            if k > 10 and abs(term) < prev and abs(term) < mpmath.mpf(10) ** -45 * abs(total):
                return complex(total)
            prev, power = abs(term), power * z
    raise AssertionError(f"reference series did not converge at {(alpha, beta, z)}")


GUARD_ALPHAS = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
GUARD_BETAS = (0.5, 1.0, 1.5, 2.0)
GUARD_Z = [r * np.exp(1j * np.pi * th)
           for r in (0.3, 1.0, 2.5, 4.0, 6.0, 10.0) for th in (0.0, 0.25, 0.5, 0.75, 0.9)]
GUARD_Z += [-x for x in (0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0)]   # the negative real axis


@pytest.mark.parametrize("alpha", GUARD_ALPHAS)
def test_mittag_leffler_is_accurate_or_raises(alpha):
    pytest.importorskip("mpmath")
    returned = 0
    for beta in GUARD_BETAS:
        values = []
        for z in GUARD_Z:
            try:
                got = mittag_leffler(alpha, beta, z)
            except MittagLefflerError:
                continue
            ref = _mp_mittag_leffler(alpha, beta, z)
            assert abs(got - ref) <= 1e-13 * abs(ref), (alpha, beta, z)
            values.append(got)
        returned += len(values)
        if len(values) == len(GUARD_Z):
            assert np.array_equal(mittag_leffler(alpha, beta, np.array(GUARD_Z)), values)
        else:   # the array call fails where any of its points does
            with pytest.raises(MittagLefflerError):
                mittag_leffler(alpha, beta, np.array(GUARD_Z))
    assert returned > 0


def test_mittag_leffler_guard_raises_on_measured_cancellation():
    # the unguarded series returned these with relative errors 4.5e-11, 2.0e-4, 3.2e-8
    for z, alpha in ((-3.0, 0.5), (-5.0, 0.5), (-10.0, 0.9)):
        with pytest.raises(MittagLefflerError, match="cancellation"):
            mittag_leffler(alpha, 1.0, z)


def test_mittag_leffler_returns_on_unit_disc_for_builtin_parameters():
    # the builtin problems evaluate E_{alpha,1}(-t^alpha) and E_{1,2-alpha}(-t), E_{1,2-alpha}(i t)
    # on t in [0, 1]
    disc = np.exp(1j * np.linspace(0.0, np.pi, 33))
    for alpha in (0.05, 0.06, 0.07, 0.08, 0.1, 0.3, 0.5, 0.7, 0.9):
        mittag_leffler(alpha, 1.0, -np.linspace(0.0, 1.0, 65))
        mittag_leffler(1.0, 2.0 - alpha, disc)
    for alpha, beta, z, _ in MLF_REFERENCE:
        mittag_leffler(alpha, beta, np.array([z]))


@pytest.mark.parametrize("z", [3.0, np.array([0.5, 3.0])], ids=["scalar", "array"])
def test_mittag_leffler_stops_at_the_term_cap(z):
    # alpha = 0.1 at z = 3: the terms neither overflow nor fall below the
    # stopping ratio within the 400 terms
    with pytest.raises(MittagLefflerError, match="no convergence within 400 terms"):
        mittag_leffler(0.1, 1.0, z)


# ---------------------------------------------------------------------------
# array points that reach the log form

@pytest.mark.parametrize("alpha, z", [
    (0.5, np.array([-1.0, 0.5, 8.4, 0.0, 9.0])),   # 8.4 turns to the log form at k = 303
    (0.4, np.array([5.6, -0.25, 5.4])),
    (0.5, np.array([8.4 + 0j, 0.3j, -1.0])),         # complex rows
], ids=["real", "alpha_0.4", "complex"])
def test_mittag_leffler_array_log_form_points_match_scalar_loop(alpha, z):
    got = mittag_leffler(alpha, 1.0, z)
    assert np.array_equal(got, _scalar_loop(alpha, 1.0, z))   # bit for bit


def test_mittag_leffler_array_log_form_overflow_raises():
    with pytest.raises(MittagLefflerError, match="series term overflow at k=343"):
        mittag_leffler(0.1, 1.0, np.array([0.5, 10.0]))
