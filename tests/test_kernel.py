"""Tests for the kernel integrals I_{n,q}^r and their difference structure."""

import math

import numpy as np
import pytest

from fracstep import backward_diff, kernel, kernel_table
from fracstep.kernel import _moments_gauss, _power_moments, dbinom_poly

ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)

# d/ds C(s-q+r-1, r) in ascending powers of s, worked out by hand.
DBINOM_EXPECTED = {
    (1, 1): [1.0],
    (2, 1): [1.0],
    (3, 1): [1.0],
    (1, 2): [-0.5, 1.0],
    (2, 2): [-1.5, 1.0],
    (3, 2): [-2.5, 1.0],
    (1, 3): [-1.0 / 6.0, 0.0, 0.5],
    (2, 3): [1.0 / 3.0, -1.0, 0.5],
    (3, 3): [11.0 / 6.0, -2.0, 0.5],
}

# 40-digit quadrature of the defining integral, truncated to double.
KERNEL_REFERENCE = [
    (0, 1, 1, 0.5, 1.1283791670955126),
    (2, 1, 1, 0.5, 0.35864092600594897),
    (5, 2, 3, 0.3, -0.0010441897951442769),
    (3, 3, 2, 0.7, -0.27695029296373362),
    (1, 1, 2, 0.9, 0.0038906600503645737),
    (7, 2, 2, 0.1, -0.76422141024262136),
    (4, 3, 3, 0.5, 0.2626768442676448),
]


def test_dbinom_poly_hand_worked_cases():
    for (q, r), coeffs in DBINOM_EXPECTED.items():
        got = dbinom_poly(q, r)
        assert got == pytest.approx(coeffs, abs=1e-15), (q, r)


def test_dbinom_poly_against_sympy():
    sympy = pytest.importorskip("sympy")
    s = sympy.symbols("s")
    for q in (1, 2, 3):
        for r in (1, 2, 3):
            prod = sympy.prod([s - q + r - 1 - l for l in range(r)])
            deriv = sympy.Poly(sympy.diff(prod / sympy.factorial(r), s), s)
            ref = [float(c) for c in reversed(deriv.all_coeffs())]
            got = dbinom_poly(q, r)
            assert got == pytest.approx(ref, abs=1e-15), (q, r)


def test_dbinom_poly_domain():
    for bad in ((0, 1), (4, 1), (1, 0), (1, 4)):
        with pytest.raises(ValueError):
            dbinom_poly(*bad)


def test_kernel_integral_reference_values():
    for n, q, r, alpha, ref in KERNEL_REFERENCE:
        got = kernel_table(alpha, q, r, n)[n]
        assert abs(got - ref) <= 1e-13 * abs(ref), (n, q, r, alpha)


def test_kernel_integral_closed_form_r1():
    # I_n = ((n+1)^(1-a) - n^(1-a)) / Gamma(2-a) for the degree-1 case
    for alpha in ALPHAS:
        tab = kernel_table(alpha, 1, 1, 40)
        for n in range(41):
            ref = ((n + 1.0) ** (1 - alpha) - n ** (1 - alpha)) / math.gamma(2 - alpha)
            # the reference difference cancels ~2 digits at large n
            assert abs(tab[n] - ref) <= 1e-13 * abs(ref), (alpha, n)


PREFIX_ALPHAS = (0.05, 0.3, 0.5, 0.7, 0.95)


def test_power_moments_are_prefixes():
    # uncached: a moment must not depend on the other n in its batch, so the
    # cache may serve a slice of a longer batch or append a batch of new columns
    for alpha in PREFIX_ALPHAS:
        long = _moments_gauss(alpha, np.arange(1, 6001))
        for n in (1, 2, 5, 17, 33, 300, 1999):
            assert np.array_equal(_moments_gauss(alpha, np.arange(1, n + 1)), long[:, :n]), (alpha, n)
            assert np.array_equal(_moments_gauss(alpha, np.arange(n + 1, 6001)), long[:, n:]), (alpha, n)


def test_moment_cache_is_read_only_and_bounded():
    cache = kernel._moment_batch
    cache.cache_clear()
    bound = cache.cache_info().maxsize
    alphas = [0.02 + 0.96 * j / (bound + 4) for j in range(bound + 5)]
    for alpha in alphas:
        for n in (40, 7, 90):   # extend, slice, extend
            J = _power_moments(alpha, n)
            assert J.shape == (3, n + 1)
            assert not J.flags.writeable
            with pytest.raises(ValueError):
                J[0, 0] = 1.0
            assert cache.cache_info().currsize <= bound
        assert cache(alpha)[0].shape == (3, 91)
    for alpha in alphas[-3:]:
        J = cache(alpha)[0]
        assert not J.flags.writeable
        assert np.array_equal(J[:, 1:], _moments_gauss(alpha, np.arange(1, 91)))
    # least recently used dropped first: the newest bound alphas are hits, the one before a miss
    info = cache.cache_info()
    for alpha in alphas[-bound:]:
        assert cache(alpha)[0].shape == (3, 91)
    assert cache.cache_info().hits == info.hits + bound
    assert cache(alphas[-bound - 1])[0].shape == (3, 1)
    assert cache.cache_info().misses == info.misses + 1


def test_kernel_table_is_prefix_of_longer_table():
    for alpha in PREFIX_ALPHAS:
        for q, r in ((1, 1), (2, 2), (1, 3), (3, 3)):
            long = kernel_table(alpha, q, r, 2000)
            for n in (0, 1, 2, 7, 24, 300, 1999):
                tab = kernel_table(alpha, q, r, n)
                assert np.array_equal(tab, long[: n + 1]), (alpha, q, r, n)


def test_kernel_difference_identities():
    # Writing the offset-q binomial through offset-1 differences gives exact
    # linear relations between the tables; they must hold entrywise.
    for alpha in ALPHAS:
        I11 = kernel_table(alpha, 1, 1, 32)
        I12 = kernel_table(alpha, 1, 2, 32)
        I22 = kernel_table(alpha, 2, 2, 32)
        I32 = kernel_table(alpha, 3, 2, 32)
        I13 = kernel_table(alpha, 1, 3, 32)
        I23 = kernel_table(alpha, 2, 3, 32)
        I33 = kernel_table(alpha, 3, 3, 32)
        scale = np.abs(I11) + 1.0
        assert np.all(np.abs(I22 - (I12 - I11)) <= 1e-13 * scale)
        assert np.all(np.abs(I32 - (I12 - 2.0 * I11)) <= 1e-13 * scale)
        assert np.all(np.abs(I23 - (I13 - I12)) <= 1e-13 * scale)
        assert np.all(np.abs(I33 - (I13 - 2.0 * I12 + I11)) <= 1e-13 * scale)


def test_kernel_pair_identity_closed_form():
    # I_{0,1}^3 + I_{1,2}^3 = 2^(1-a) (a^2 + a) / (3 Gamma(4-a))
    for alpha in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        lhs = kernel_table(alpha, 1, 3, 0)[0] + kernel_table(alpha, 2, 3, 1)[1]
        rhs = 2.0 ** (1 - alpha) * (alpha ** 2 + alpha) / (3.0 * math.gamma(4 - alpha))
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs), alpha


def test_first_backward_difference_value():
    # I_1 - I_0 at alpha = 0.5 equals (2^(1/2) - 2) / Gamma(3/2)
    tab = kernel_table(0.5, 1, 1, 1)
    ref = (2.0 ** 0.5 - 2.0) / math.gamma(1.5)
    assert tab[1] - tab[0] == pytest.approx(ref, rel=1e-13)


def test_complete_monotonicity_r_le_q():
    # (-1)^(k+r+1) nabla^k I_{n,q}^r >= 0 for r <= q, checked over n <= 64
    for q, r in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        for alpha in ALPHAS:
            vals = kernel_table(alpha, q, r, 64)
            for k in range(4):
                d = backward_diff(vals, k) if k else vals
                signed = (-1.0) ** (k + r + 1) * d[k:]
                assert signed.min() >= -1e-14, (q, r, alpha, k)


def test_complete_monotonicity_r_gt_q():
    # (-1)^(k+q+1) nabla^k I_{n,q}^r >= 0 for r > q
    for q, r in ((1, 2), (1, 3), (2, 3)):
        for alpha in ALPHAS:
            vals = kernel_table(alpha, q, r, 64)
            for k in range(4):
                d = backward_diff(vals, k) if k else vals
                signed = (-1.0) ** (k + q + 1) * d[k:]
                assert signed.min() >= -1e-14, (q, r, alpha, k)


def test_backward_diff_basics():
    assert np.allclose(backward_diff([1.0, 1.0, 1.0], 1), [1.0, 0.0, 0.0])
    assert np.allclose(backward_diff([0.0, 1.0, 4.0, 9.0], 2)[2:], [2.0, 2.0])
    with pytest.raises(ValueError):
        backward_diff([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        backward_diff([], 1)
    with pytest.raises(ValueError):
        backward_diff(np.array(["a", "b"]), 1)
    with pytest.raises(ValueError):
        backward_diff([1.0, 2.0], True)


def test_kernel_argument_validation():
    with pytest.raises(ValueError):
        kernel_table(0.0, 1, 1, 1)
    with pytest.raises(ValueError):
        kernel_table(1.0, 1, 1, 1)
    with pytest.raises(ValueError):
        kernel_table(0.5, 1, 1, 1.5)
    with pytest.raises(ValueError):
        kernel_table(0.5, 1, 1, -1)
    with pytest.raises(ValueError):
        kernel_table(0.5, 1, 1, True)
    with pytest.raises(ValueError):
        kernel_table(0.5, True, True, 3)
