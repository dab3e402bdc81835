"""Tests for the boundary locus, membership queries, and series diagnostics."""

import functools
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from fracstep import ALL_SCHEMES, SchemeId, boundary_locus, in_stability_region, stability, weight_table
from fracstep.stability import (
    _DEFAULT_TERMS,
    _locus_samples,
    _winding_number,
    series_diagnostics,
)

# zeta(pi) = sum_n (-1)^n omega_n for the truncated locus with 6000 terms.
HALF_TURN_REFERENCE = [
    (1, 1, 0.5, 1.7156091039983028),
    (2, 2, 0.5, 2.5058905425095297),
    (3, 3, 0.5, 3.341884992481151),
    # alpha -> 1 limits approach the classical BDF values 2, 4, 20/3.
    (1, 1, 0.999, 2.0002493112235937),
    (2, 2, 0.999, 3.997525812231468),
    (3, 3, 0.999, 6.6595458347146534),
]


def test_locus_curve_is_closed():
    curve = boundary_locus((2, 1), 0.5, terms=500, samples=64)
    assert curve.points.shape == (65,)
    assert curve.thetas.shape == (65,)
    assert curve.points[-1] == curve.points[0]
    assert curve.thetas[0] == 0.0
    assert abs(curve.thetas[-1] - 2.0 * math.pi) < 1e-15
    with pytest.raises(ValueError):
        curve.points[0] = 0.0


@pytest.mark.parametrize("k, i, alpha, expected", HALF_TURN_REFERENCE)
def test_locus_half_turn_values(k, i, alpha, expected):
    curve = boundary_locus((k, i), alpha, samples=2048)
    z = curve.points[1024]
    assert abs(z.real - expected) <= 1e-12 * expected
    assert abs(z.imag) <= 1e-12


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_locus_matches_compensated_direct_sum(scheme, alpha):
    # zeta(2 pi m / S) = sum_n omega_n e^(2 pi i (n m mod S) / S), each point
    # summed term by term with math.fsum.  An odd S has no sample at theta = pi
    # and mirrors a half spectrum of the other length.
    terms = 2000
    omega = weight_table(scheme, alpha, terms).omega
    n = np.arange(terms + 1)
    for S in (64, 63):
        curve = boundary_locus(scheme, alpha, terms=terms, samples=S)
        for m in range(S):
            parts = omega * np.exp(2j * np.pi * (n * m % S) / S)
            zeta = complex(math.fsum(parts.real.tolist()), math.fsum(parts.imag.tolist()))
            assert abs(curve.points[m] - zeta) <= 1e-13 * max(1.0, abs(zeta)), (S, m)


@pytest.mark.parametrize("S", [64, 63, 4096])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_locus_halves_are_conjugate(scheme, S):
    # the folded weights are real, so zeta(2 pi - theta) = conj(zeta(theta)) to the bit,
    # and zeta at theta = 0 and pi is real with an imaginary part of +0.0
    pts, _, _ = _locus_samples(scheme.k, scheme.i, 0.5, 2000, S)
    m = np.arange(1, (S + 1) // 2)
    assert pts[S - m].tobytes() == np.conj(pts[m]).tobytes()
    assert math.copysign(1.0, pts[0].imag) == 1.0
    if S % 2 == 0:
        assert math.copysign(1.0, pts[S // 2].imag) == 1.0


def reference_fold(omega, S):
    """The coefficients folded modulo S and reversed mod S, built from whole-array copies."""
    folded = np.concatenate([omega, np.zeros((-omega.size) % S)]).reshape(-1, S).sum(axis=0)
    return np.concatenate([folded[:1], folded[:0:-1]])


def reference_locus(omega, S):
    """(samples, perimeter, box) built from whole-array temporaries, one per step."""
    half = np.fft.rfft(reference_fold(omega, S))
    pts = np.empty(S, dtype=complex)
    pts[: half.size] = half
    pts[half.size :] = np.conj(half[S - half.size : 0 : -1])
    perimeter = float(np.abs(np.diff(pts)).sum()) + abs(pts[0] - pts[-1])
    box = (float(half.real.min()), float(half.real.max()), float(np.abs(half.imag).max()))
    return pts, perimeter, box


def assert_build_is_reference(omega, k, i, terms, S):
    pts, perimeter, box = _locus_samples.__wrapped__(k, i, 0.5, terms, S)
    ref_pts, ref_perimeter, ref_box = reference_locus(omega, S)
    assert pts.tobytes() == ref_pts.tobytes(), S
    assert perimeter.hex() == ref_perimeter.hex(), S
    assert [b.hex() for b in box] == [b.hex() for b in ref_box], S


@pytest.mark.parametrize("terms", [2000, 6000])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_locus_build_matches_reference(scheme, terms):
    # the build that reuses its buffers returns the bytes of the one that copies
    omega = weight_table(scheme, 0.5, terms).omega
    for S in (16, 63, 64, 4096, terms + 1, terms + 2, 8192, 2 ** 17):
        assert_build_is_reference(omega, scheme.k, scheme.i, terms, S)


@pytest.mark.parametrize("S", [4, 7, 8, 9, 16])
def test_fold_turns_negative_zero_positive(S):
    omega = np.array([-0.0, 1.5, -0.0, -2.0, 0.25, -0.0, 3.0, -0.0])
    got = stability._fold_reversed(omega, np.full(S, np.nan))
    assert got.tobytes() == reference_fold(omega, S).tobytes()
    assert not np.signbit(got[got == 0.0]).any()


@pytest.mark.parametrize("omega", [[1.0], [-0.0, 2.0, -0.0], [3.0, -0.0, 0.0, -1.0] * 5])
def test_locus_build_keeps_signed_zeros_of_reference(monkeypatch, omega):
    # coefficients with -0.0 entries, and loci whose imaginary parts are all zeros of either sign
    omega = np.array(omega)
    monkeypatch.setattr(stability, "weight_table", lambda scheme, alpha, terms: types.SimpleNamespace(omega=omega))
    for S in (16, 17, 20, 21, 64):
        assert_build_is_reference(omega, 1, 1, omega.size - 1, S)


def test_locus_box_of_signed_zero_imaginary_parts(monkeypatch):
    # a half spectrum with Im +0.0 at m = 0 and -0.0 elsewhere still has max |Im| = +0.0
    rfft = np.fft.rfft

    def real_rfft(x):
        half = rfft(x).real + 0j
        half.imag[1:] = -0.0
        return half

    monkeypatch.setattr(np.fft, "rfft", real_rfft)
    omega = weight_table((2, 2), 0.5, 100).omega
    for S in (16, 17, 64):
        assert_build_is_reference(omega, 2, 2, 100, S)


def test_locus_build_peak_memory():
    # a cold build holds its samples (16 S bytes), the half spectrum and one edge-vector array
    S = 2 ** 17
    weight_table((2, 2), 0.5, _DEFAULT_TERMS)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _locus_samples.__wrapped__(2, 2, 0.5, _DEFAULT_TERMS, S)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * 16 * S


def angle_sum_winding(rel):
    """Turns of the closed polygon rel around 0 as the sum of its turning angles."""
    total = float(np.angle(np.roll(rel, -1) / rel).sum()) / (2.0 * math.pi)
    assert abs(total - round(total)) < 1e-9
    return round(total)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_crossing_count_matches_angle_sum(scheme, alpha):
    S = 4096
    pts, _, _ = _locus_samples(scheme.k, scheme.i, alpha, _DEFAULT_TERMS, S)
    rng = np.random.default_rng(1000 * scheme.k + 100 * scheme.i + round(10 * alpha))
    zs = 10.0 ** rng.uniform(-2.0, 2.0, 100) * np.exp(2j * np.pi * rng.uniform(size=100))
    # the ray from a real z runs through the real samples at theta = 0 and pi,
    # and the ray from a z level with a sample runs through that sample
    real_zs = [pts[m].real + d for m in (0, S // 2) for d in (-1.0, -1e-3, 1e-3)]
    level_zs = [pts[m] + d for m in (1, 700, S // 4, 3 * S // 4) for d in (-0.5, 0.5)]
    windings = []
    for z in [*zs, *real_zs, *level_zs]:
        rel = pts - z
        if np.abs(rel).min() < 1e-6:
            continue
        w = _winding_number(rel)
        assert w == angle_sum_winding(rel), z
        windings.append(w)
    assert len(windings) >= 100
    assert {0, 1} <= set(windings)


@pytest.mark.parametrize("z", [-1e160, 1e200 + 1e200j])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_far_point_is_inside_without_overflow(scheme, z):
    # far past 1e154, where a product of two points taken relative to z overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = in_stability_region(scheme, 0.5, z)
    assert (v.verdict, v.winding, v.samples) == ("inside", 0, 8192)
    assert v.margin == pytest.approx(abs(z), rel=1e-12)


MEMBERSHIP_CASES = [
    ((1, 1), 0.5, -1.0, "inside"),
    ((1, 1), 0.5, 0.05, "outside"),
    ((1, 1), 0.9, 0.1637 + 1.034j, "inside"),
    ((3, 1), 0.9, 0.1637 + 1.034j, "outside"),
    ((2, 2), 0.98, 0.2844j, "inside"),
    ((3, 3), 0.98, 1.106j, "outside"),
]


@pytest.mark.parametrize("scheme, alpha, z, expected", MEMBERSHIP_CASES)
def test_membership_spot_verdicts(scheme, alpha, z, expected):
    v = in_stability_region(scheme, alpha, z)
    assert v.verdict == expected
    assert v.margin > 0.0
    assert v.winding == (0 if expected == "inside" else 1)


@pytest.mark.parametrize("scheme, alpha, z, expected", MEMBERSHIP_CASES)
def test_cached_locus_matches_public_curve(scheme, alpha, z, expected):
    # margin and perimeter come with the cached samples; both must be those of the printed curve
    v = in_stability_region(scheme, alpha, z)
    closed = boundary_locus(scheme, alpha, samples=v.samples).points
    assert v.margin == np.abs(closed[:-1] - z).min()
    s = SchemeId(*scheme)
    _, perimeter, _ = _locus_samples(s.k, s.i, alpha, _DEFAULT_TERMS, v.samples)
    segments = np.abs(np.diff(closed))
    assert perimeter == segments[:-1].sum() + segments[-1]
    assert perimeter == pytest.approx(math.fsum(segments), rel=1e-13)


def full_evaluation(locus, z, samples=4096):
    """The membership loop reading every level locus(S) in full: the margin over all samples
    and the winding from an np.roll pass over every edge.  (verdict, winding, samples, margin)."""
    S, prev, best = samples, None, math.inf
    while True:
        pts, perimeter, _ = locus(S)
        rel = pts - z
        margin = float(np.abs(rel).min())
        best = min(best, margin)
        if margin < 1e-12:
            return "boundary", None, S, margin
        up = rel.imag > 0
        j = np.flatnonzero(up != np.roll(up, -1))
        a, b = rel[j], rel[(j + 1) % rel.size]
        x = a.real - a.imag / (b.imag - a.imag) * (b.real - a.real)
        w = int(np.where(up[j], -1, 1)[x > 0].sum())
        confident = margin >= 10.0 * (perimeter / S)
        if confident and w == prev:
            return ("inside" if w == 0 else "outside"), w, S, margin
        prev = w if confident else None
        if S >= 2 ** 20:
            return "boundary", None, S, best
        S *= 2


def edge_and_level_points(scheme, alpha, S):
    """z on the edges of the level-S box (y = max Im, y = min Im, x = max Re) and
    z level with a sample, where the box rule and the crossing rule meet."""
    pts, _, (re_min, re_max, im_max) = _locus_samples(scheme.k, scheme.i, alpha, _DEFAULT_TERMS, S)
    top = pts[np.argmax(pts.imag)]
    right = pts[np.argmax(pts.real)]
    xs = (re_min - 1.0, re_min, top.real, 0.5 * (re_min + re_max), re_max, re_max + 1e-3)
    zs = [complex(x, y) for x in xs for y in (im_max, -im_max)]
    zs += [complex(re_max, y) for y in (0.0, right.imag, 0.5 * im_max, -0.999 * im_max)]
    zs += [complex(pts[m].real + d, pts[m].imag) for m in (1, S // 8, S // 3, S - 5) for d in (-0.5, 0.5)]
    return zs


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_query_equals_full_evaluation(scheme, alpha):
    # every verdict, winding, sample count and margin bit equals the full read of every level
    # the oracle keeps its own levels: with the query's it would overrun the 8-level cache
    locus = functools.cache(lambda S: _locus_samples(scheme.k, scheme.i, alpha, _DEFAULT_TERMS, S))
    pts = locus(4096)[0]
    rng = np.random.default_rng(1000 * scheme.k + 100 * scheme.i + round(10 * alpha))
    zs = list(10.0 ** rng.uniform(-2.0, 2.0, 40) * np.exp(2j * np.pi * rng.uniform(size=40)))
    near = pts[rng.integers(4096, size=20)]
    zs += list(near + np.abs(near) * 10.0 ** rng.uniform(-1.5, -1.0, 20) * np.exp(2j * np.pi * rng.uniform(size=20)))
    zs += edge_and_level_points(scheme, alpha, 4096) + edge_and_level_points(scheme, alpha, 8192)
    zs += [1e200, -1e200, 1e200j, -1e200j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in zs:
            v = in_stability_region(scheme, alpha, z)
            got = (v.verdict, v.winding, v.samples, v.margin.hex())
            verdict, w, S, margin = full_evaluation(locus, complex(z))
            assert got == (verdict, w, S, margin.hex()), z


def test_unread_levels_count_in_boundary_margin(monkeypatch):
    # Synthetic circles about 0: at even powers of two z = 2 clears a box of radius 1.9,
    # at odd ones it lies inside radius 3.  The winding alternates 0, 1, ... up to 2^20,
    # so the query ends "boundary" with the least margin, 0.1, from the unread levels.
    def circles(k, i, alpha, terms, samples):
        r = 1.9 if samples.bit_length() % 2 else 3.0
        pts = r * np.exp(2j * np.pi * np.arange(samples) / samples)
        perimeter = float(np.abs(np.diff(pts)).sum()) + abs(pts[0] - pts[-1])
        return pts, perimeter, (float(pts.real.min()), float(pts.real.max()), float(np.abs(pts.imag).max()))

    monkeypatch.setattr(stability, "_locus_samples", circles)
    v = in_stability_region((1, 1), 0.5, 2.0)
    assert (v.verdict, v.winding, v.samples, v.margin.hex()) == (
        "boundary", None, 2 ** 20, full_evaluation(lambda S: circles(1, 1, 0.5, 0, S), 2.0)[3].hex())
    assert v.margin == pytest.approx(0.1, rel=1e-12)


def test_origin_short_circuits():
    v = in_stability_region((2, 2), 0.5, 0.0)
    assert v.verdict == "outside"
    assert v.margin == 0.0
    assert v.winding is None
    assert v.samples == 0


def test_point_on_sampled_curve_is_boundary():
    curve = boundary_locus((1, 1), 0.5, samples=2048)
    v = in_stability_region((1, 1), 0.5, complex(curve.points[37]))
    assert v.verdict == "boundary"
    assert v.margin < 1e-12


def test_psi_partial_sums_approach_one():
    for alpha in (0.25, 0.5, 0.75):
        for scheme in ALL_SCHEMES:
            diag = series_diagnostics(scheme, alpha, 4096)
            assert abs(diag.psi.sum() - 1.0) <= 1e-4


def test_phi_positive_near_unit_circle():
    thetas = 2.0 * math.pi * np.arange(64) / 64
    for alpha in (0.25, 0.5, 0.75):
        for scheme in ALL_SCHEMES:
            diag = series_diagnostics(scheme, alpha, 4096)
            worst = polyval(0.99 * np.exp(1j * thetas), diag.phi).real.min()
            assert worst > 0.0


def test_argument_validation():
    with pytest.raises(ValueError):
        boundary_locus((1, 1), 0.5, terms=0)
    with pytest.raises(ValueError):
        boundary_locus((1, 1), 0.5, terms=True)
    # alpha and terms are checked before the z = 0 shortcut
    with pytest.raises(ValueError):
        in_stability_region((1, 1), 1.5, 0)
    with pytest.raises(ValueError):
        in_stability_region((1, 1), 0.5, 0, terms=True)
    with pytest.raises(ValueError):
        boundary_locus((1, 1), 0.5, samples=15)
    with pytest.raises(ValueError):
        in_stability_region((1, 1), 0.5, -1.0, samples=8)
    with pytest.raises(ValueError):
        in_stability_region((1, 1), 0.5, float("nan"))
    with pytest.raises(ValueError):
        series_diagnostics((1, 1), 0.5, -1)


def test_membership_start_leaves_room_to_confirm():
    # the doubling stops at 2^20 samples, so a start there could never confirm a verdict
    with pytest.raises(ValueError, match="samples <= 524288"):
        in_stability_region((1, 1), 0.5, -1.0, samples=2 ** 20)
    v = in_stability_region((1, 1), 0.5, -1.0, samples=2 ** 19)
    assert v.verdict == "inside"
    assert v.samples == 2 ** 20
