"""Release acceptance suite: one printed verdict line per criterion.

Each test emits exactly one line of the form

    criterion  3 [forced-linear-k12] PASS: 60 error cells, 48 rates, 31.2s

(visible even under output capture) and then asserts the same condition,
so the printed summary always agrees with the pytest outcome.  Reference
endpoint errors and dyadic rates for the benchmark problems are embedded
below.  Tolerances: decay-problem errors to 3 significant digits and rates
within +-0.05; forced-linear errors within a factor of 2 (the last printed
digit of a complex forcing is not reproducible) with rates within +-0.05
for k <= 2 and +-0.1 for k = 3; fitted orders within the stated windows.

Three rules keep the checks above the double-precision rounding floor and
on what each scheme is built to deliver:

- criterion 4: where a reference error is below ROUNDING_FLOOR its printed
  rate is the reference run's rounding noise, so the rate there is checked
  against the design order k+1-alpha instead;
- criterion 5: k <= 2 slopes are fitted to the Richardson differences
  |e_M - 2^(k+1) e_2M| of the signed endpoint errors over M = 256..2048,
  which remove the h^(k+1) term that nearly cancels the h^(k+1-alpha) term
  at alpha = 0.1; k = 3 slopes are fitted to |e_M| over M = 64..512, where
  every error stays above the rounding floor;
- criterion 7: the i < k members interpolate t_0..t_{k-1} with degree k-1
  on their first k-i pieces, so at degree k they are compared with the
  Caputo derivative of that interpolant, t^k minus the nodal polynomial
  prod_{m<k} (t - t_m) on [0, t_{k-i}], in closed form.
"""

import cmath
import math
import time

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyval

from fracstep import (
    ALL_SCHEMES,
    GridSpec,
    NewtonConfig,
    Trajectory,
    apply_discrete_caputo,
    backward_diff,
    build_interpolant,
    caputo_monomial,
    in_stability_region,
    kernel_table,
    linear_complex,
    mlf_decay,
    nonlinear_square,
    oracle_discrete_caputo,
    run_convergence,
    run_truncation_study,
    solve,
    weight_table,
)
from fracstep.harness import fit_order
from fracstep.stability import series_diagnostics

DECAY_M = (20, 40, 80, 160, 320)
FORCED_M = (128, 256, 512, 1024, 2048)
K2_SCHEMES = ((1, 1), (2, 1), (2, 2))
K3_SCHEMES = ((3, 1), (3, 2), (3, 3))
# criterion 5 grids: at alpha = 0.1 the k = 3 errors are 4e-15..2e-14 at
# M = 1024 and 1e-16..1e-15 at M = 2048, the rounding floor, so k = 3 fits
# stop at M = 512
NONLINEAR_M_K12 = (256, 512, 1024, 2048)
NONLINEAR_M_K3 = (64, 128, 256, 512)

# endpoint errors |e_M| and dyadic rates for the pure decay problem at T = 1;
# the (1,1) rows correspond to the held-first-value replication mode
DECAY_REF = {
    (1, 1, 0.1): ((4.70994e-03, None), (2.37818e-03, 0.99), (1.21118e-03, 0.97),
                  (6.19034e-04, 0.97), (3.16763e-04, 0.97)),
    (2, 1, 0.1): ((9.55476e-04, None), (4.93426e-04, 0.95), (2.53608e-04, 0.96),
                  (1.30008e-04, 0.96), (6.65299e-05, 0.97)),
    (2, 2, 0.1): ((9.67511e-04, None), (4.96390e-04, 0.96), (2.54352e-04, 0.96),
                  (1.30197e-04, 0.97), (6.65780e-05, 0.97)),
    (1, 1, 0.5): ((3.59879e-02, None), (1.87445e-02, 0.94), (9.67807e-03, 0.95),
                  (4.95832e-03, 0.96), (2.52435e-03, 0.97)),
    (2, 1, 0.5): ((1.27599e-03, None), (5.84522e-04, 1.13), (2.79573e-04, 1.06),
                  (1.36716e-04, 1.03), (6.76067e-05, 1.02)),
    (2, 2, 0.5): ((1.24693e-03, None), (5.76449e-04, 1.11), (2.77440e-04, 1.06),
                  (1.36166e-04, 1.03), (6.74666e-05, 1.01)),
    (1, 1, 0.9): ((6.28955e-02, None), (3.23694e-02, 0.96), (1.64619e-02, 0.98),
                  (8.31769e-03, 0.98), (4.18769e-03, 0.99)),
    (2, 1, 0.9): ((2.95957e-03, None), (1.33551e-03, 1.15), (6.25412e-04, 1.09),
                  (3.00737e-04, 1.06), (1.47049e-04, 1.03)),
    (2, 2, 0.9): ((2.96453e-03, None), (1.33646e-03, 1.15), (6.25601e-04, 1.10),
                  (3.00775e-04, 1.06), (1.47057e-04, 1.03)),
    (3, 1, 0.1): ((9.24206e-04, None), (4.71821e-04, 0.97), (2.41265e-04, 0.97),
                  (1.23379e-04, 0.97), (6.30607e-05, 0.97)),
    (3, 2, 0.1): ((9.17788e-04, None), (4.70329e-04, 0.96), (2.40900e-04, 0.97),
                  (1.23288e-04, 0.97), (6.30376e-05, 0.97)),
    (3, 3, 0.1): ((9.23060e-04, None), (4.71636e-04, 0.97), (2.41229e-04, 0.97),
                  (1.23371e-04, 0.97), (6.30591e-05, 0.97)),
    (3, 1, 0.5): ((2.87149e-03, None), (1.42015e-03, 1.02), (7.06991e-04, 1.01),
                  (3.52818e-04, 1.00), (1.76251e-04, 1.00)),
    (3, 2, 0.5): ((2.85982e-03, None), (1.41730e-03, 1.01), (7.06289e-04, 1.00),
                  (3.52644e-04, 1.00), (1.76208e-04, 1.00)),
    (3, 3, 0.5): ((2.86650e-03, None), (1.41912e-03, 1.01), (7.06757e-04, 1.01),
                  (3.52763e-04, 1.00), (1.76237e-04, 1.00)),
    (3, 1, 0.9): ((1.30920e-03, None), (6.18111e-04, 1.08), (3.00274e-04, 1.04),
                  (1.47969e-04, 1.02), (7.34347e-05, 1.01)),
    (3, 2, 0.9): ((1.30931e-03, None), (6.18099e-04, 1.08), (3.00268e-04, 1.04),
                  (1.47967e-04, 1.02), (7.34342e-05, 1.01)),
    (3, 3, 0.9): ((1.30919e-03, None), (6.18098e-04, 1.08), (3.00270e-04, 1.04),
                  (1.47968e-04, 1.02), (7.34345e-05, 1.01)),
}

# forced linear problem with exact solution e^(-t); one lambda per alpha
LAM = {
    0.5: -1.0 + 0.0j,
    0.3: 20.0 * cmath.exp(0.15j * math.pi),
    0.9: 1000.0 * cmath.exp(0.45j * math.pi),
    0.98: 500.0j,
}

FORCED_REF_K2 = {
    (1, 1, 0.5): ((1.59038e-04, None), (5.53407e-05, 1.52), (1.93502e-05, 1.52),
                  (6.78837e-06, 1.51), (2.38698e-06, 1.51)),
    (2, 1, 0.5): ((1.60073e-07, None), (2.86635e-08, 2.48), (5.11315e-09, 2.49),
                  (9.09687e-10, 2.49), (1.61541e-10, 2.49)),
    (2, 2, 0.5): ((1.34983e-07, None), (2.37399e-08, 2.51), (4.18230e-09, 2.50),
                  (7.37621e-10, 2.50), (1.30187e-10, 2.50)),
    (1, 1, 0.3): ((1.34901e-06, None), (3.73401e-07, 1.85), (1.04588e-07, 1.84),
                  (2.96205e-08, 1.82), (8.47625e-09, 1.81)),
    (2, 1, 0.3): ((2.69029e-09, None), (4.44355e-10, 2.60), (7.14993e-11, 2.64),
                  (1.13426e-11, 2.66), (1.78666e-12, 2.67)),
    (2, 2, 0.3): ((1.08970e-09, None), (1.62447e-10, 2.75), (2.44242e-11, 2.73),
                  (3.69238e-12, 2.73), (5.57796e-13, 2.73)),
    (1, 1, 0.9): ((7.84215e-07, None), (3.63985e-07, 1.11), (1.69345e-07, 1.10),
                  (7.88889e-08, 1.10), (3.67748e-08, 1.10)),
    (2, 1, 0.9): ((3.94997e-09, None), (9.18845e-10, 2.10), (2.14033e-10, 2.10),
                  (4.98901e-11, 2.10), (1.16334e-11, 2.10)),
    (2, 2, 0.9): ((3.83098e-09, None), (8.91101e-10, 2.10), (2.07571e-10, 2.10),
                  (4.83852e-11, 2.10), (1.12827e-11, 2.10)),
    (1, 1, 0.98): ((2.55224e-06, None), (1.25624e-06, 1.02), (6.18899e-07, 1.02),
                   (3.05047e-07, 1.02), (1.50388e-07, 1.02)),
    (2, 1, 0.98): ((1.32455e-08, None), (3.25627e-09, 2.02), (8.01689e-10, 2.02),
                   (1.97518e-10, 2.02), (4.86819e-11, 2.02)),
    (2, 2, 0.98): ((1.31778e-08, None), (3.23963e-09, 2.02), (7.97599e-10, 2.02),
                   (1.96512e-10, 2.02), (4.84347e-11, 2.02)),
}

# k = 3 rows restricted to the grids where the reference run itself is stable
# (alpha = 0.9 loses stability above M = 512, alpha = 0.3 bottoms out in
# rounding noise at M = 2048); the shorter tuples zip against FORCED_M.  The
# alpha = 0.3 errors at M = 1024 (4e-15..8e-15) already sit on the rounding
# floor, so their printed rates are not checked (see ROUNDING_FLOOR)
FORCED_REF_K3 = {
    (3, 1, 0.5): ((1.04028e-09, None), (9.23186e-11, 3.49), (8.18229e-12, 3.50),
                  (7.25420e-13, 3.50), (6.82232e-14, 3.41)),
    (3, 2, 0.5): ((9.41107e-10, None), (8.25515e-11, 3.51), (7.25575e-12, 3.51),
                  (6.37490e-13, 3.51), (5.34572e-14, 3.58)),
    (3, 3, 0.5): ((9.99698e-10, None), (8.86817e-11, 3.49), (7.85577e-12, 3.50),
                  (6.92002e-13, 3.50), (5.85643e-14, 3.56)),
    (3, 1, 0.3): ((1.73101e-11, None), (1.33740e-12, 3.69), (1.03673e-13, 3.69),
                  (6.13266e-15, 4.08)),
    (3, 2, 0.3): ((1.03070e-11, None), (7.55245e-13, 3.77), (5.58325e-14, 3.76),
                  (4.40825e-15, 3.66)),
    (3, 3, 0.3): ((1.53161e-11, None), (1.18503e-12, 3.69), (9.13054e-14, 3.70),
                  (7.52355e-15, 3.60)),
    (3, 1, 0.9): ((2.28884e-11, None), (2.65645e-12, 3.11), (3.09069e-13, 3.10)),
    (3, 2, 0.9): ((2.24089e-11, None), (2.60061e-12, 3.11), (3.02593e-13, 3.10)),
    (3, 3, 0.9): ((2.26564e-11, None), (2.62969e-12, 3.11), (3.05970e-13, 3.10)),
}

# a reference error below this is within about 180 ulps of |u(1)| = e^-1: its
# last digits, and the dyadic rate printed from them, depend on the machine
# that produced the table, so such a rate cell is checked against the design
# order k+1-alpha instead
ROUNDING_FLOOR = 1e-14


@pytest.fixture
def report(capsys):
    def emit(num: int, name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"criterion {num:2d} [{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    return emit


def _sig3(got: float, ref: float) -> bool:
    return f"{got:.2E}" == f"{ref:.2E}"


def _factor2(got: float, ref: float) -> bool:
    return got <= 2.0 * ref and ref <= 2.0 * got


def _table_failures(rows, ref, m_list, err_ok, rate_tol):
    """Compare convergence rows against a reference table.

    ref maps (k, i, alpha) to (err, rate) pairs zipped against a prefix of
    m_list; shorter tuples check only the leading grids.
    """
    by_cell = {(r.k, r.i, r.alpha, r.M): r for r in rows}
    bad = []
    for (k, i, alpha), cells in ref.items():
        for M, (err_ref, rate_ref) in zip(m_list, cells):
            r = by_cell[(k, i, alpha, M)]
            tag = f"({k},{i}) a={alpha} M={M}"
            if r.blowup:
                bad.append(f"{tag}: unexpected blowup")
                continue
            if not err_ok(r.abs_err, err_ref):
                bad.append(f"{tag}: err {r.abs_err:.5E} vs {err_ref:.5E}")
            if rate_ref is not None and (r.rate is None or abs(r.rate - rate_ref) > rate_tol):
                got = "None" if r.rate is None else f"{r.rate:.2f}"
                bad.append(f"{tag}: rate {got} vs {rate_ref:.2f}")
    return bad


def test_criterion_1_decay_table_k12(report):
    t0 = time.perf_counter()
    alphas = (0.1, 0.5, 0.9)
    rows = run_convergence(mlf_decay, [(1, 1)], alphas, DECAY_M, starting="hold")
    rows += run_convergence(mlf_decay, [(2, 1), (2, 2)], alphas, DECAY_M)
    elapsed = time.perf_counter() - t0
    ref = {key: DECAY_REF[key] for key in DECAY_REF if key[0] <= 2}
    bad = _table_failures(rows, ref, DECAY_M, _sig3, 0.05)
    if elapsed >= 5.0:
        bad.append(f"runtime {elapsed:.1f}s exceeds 5s")
    report(1, "decay-table-k12", not bad, f"45 error cells, 36 rates, {elapsed:.1f}s"
           + (f"; {len(bad)} deviations" if bad else ""))
    assert not bad, "\n".join(bad)


def test_criterion_2_decay_table_k3(report):
    t0 = time.perf_counter()
    rows = run_convergence(mlf_decay, K3_SCHEMES, (0.1, 0.5, 0.9), DECAY_M)
    elapsed = time.perf_counter() - t0
    ref = {key: DECAY_REF[key] for key in DECAY_REF if key[0] == 3}
    bad = _table_failures(rows, ref, DECAY_M, _sig3, 0.05)
    if elapsed >= 5.0:
        bad.append(f"runtime {elapsed:.1f}s exceeds 5s")
    report(2, "decay-table-k3", not bad, f"45 error cells, 36 rates, {elapsed:.1f}s"
           + (f"; {len(bad)} deviations" if bad else ""))
    assert not bad, "\n".join(bad)


def test_criterion_3_forced_linear_k12(report):
    t0 = time.perf_counter()
    alphas = (0.5, 0.3, 0.9, 0.98)
    rows = run_convergence(lambda a: linear_complex(a, LAM[a]), [(1, 1)], alphas,
                           FORCED_M, starting="hold")
    rows += run_convergence(lambda a: linear_complex(a, LAM[a]), [(2, 1), (2, 2)],
                            alphas, FORCED_M)
    elapsed = time.perf_counter() - t0
    bad = _table_failures(rows, FORCED_REF_K2, FORCED_M, _factor2, 0.05)
    if elapsed >= 60.0:
        bad.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(3, "forced-linear-k12", not bad, f"60 error cells, 48 rates, {elapsed:.1f}s"
           + (f"; {len(bad)} deviations" if bad else ""))
    assert not bad, "\n".join(bad)


def test_criterion_4_forced_linear_k3(report):
    rows = []
    for alpha, m_list in ((0.5, FORCED_M), (0.3, FORCED_M[:4]), (0.9, FORCED_M)):
        rows += run_convergence(lambda a: linear_complex(a, LAM[a]), K3_SCHEMES,
                                [alpha], m_list)
    ref = {(k, i, alpha): tuple((err, k + 1 - alpha if rate is not None and err < ROUNDING_FLOOR
                                 else rate) for err, rate in cells)
           for (k, i, alpha), cells in FORCED_REF_K3.items()}
    bad = _table_failures(rows, ref, FORCED_M, _factor2, 0.1)
    flags = {(r.k, r.i, r.alpha, r.M): r.blowup for r in rows}
    for _, i in K3_SCHEMES:
        if not flags[(3, i, 0.9, 2048)]:
            bad.append(f"(3,{i}) a=0.9 M=2048: blowup flag not set")
        # the alpha = 0.5 column must stay finite on every grid
        for M in FORCED_M:
            if flags[(3, i, 0.5, M)]:
                bad.append(f"(3,{i}) a=0.5 M={M}: unexpected blowup")
    report(4, "forced-linear-k3", not bad, "36 error cells, 27 rates, 3 blowup flags"
           + (f"; {len(bad)} deviations" if bad else ""))
    assert not bad, "\n".join(bad)


def test_criterion_5_nonlinear_orders(report):
    t0 = time.perf_counter()
    newton = NewtonConfig(tol=1e-15, max_iter=50)
    bad = []
    fits = 0
    for mu in (-1.0 + 0.0j, 1.0j):
        for alpha in (0.1, 0.3, 0.5, 0.7):
            problem = nonlinear_square(alpha, mu)
            exact = problem.exact(1.0)
            for s in ALL_SCHEMES:
                m_fit = NONLINEAR_M_K3 if s.k == 3 else NONLINEAR_M_K12
                runs = [solve(problem, s, GridSpec(T=1.0, M=M), newton=newton) for M in m_fit]
                blowups = [M for M, run in zip(m_fit, runs) if run.blowup]
                if blowups:
                    bad.append(f"{s.label} a={alpha} mu={mu}: blowup at M={blowups}")
                    continue
                errs = [run.trajectory.values[-1] - exact for run in runs]
                if s.k == 3:
                    slope = fit_order(m_fit, [abs(e) for e in errs])
                else:
                    # e_M = C1 h^(k+1-alpha) + C2 h^(k+1) + ...: the Richardson
                    # difference cancels the C2 term, which at alpha = 0.1 nearly
                    # cancels the C1 term on these grids
                    diffs = [abs(e - 2 ** (s.k + 1) * e2) for e, e2 in zip(errs, errs[1:])]
                    slope = fit_order(m_fit[:-1], diffs)
                target = s.k + 1 - alpha
                fits += 1
                if abs(slope - target) > 0.15:
                    bad.append(f"{s.label} a={alpha} mu={mu}: slope {slope:.3f} "
                               f"vs {target:.2f}+-0.15")
    elapsed = time.perf_counter() - t0
    report(5, "nonlinear-orders", not bad, f"{fits} slope fits, Richardson over "
           f"M=256..2048 for k<=2 and plain over M=64..512 for k=3, {elapsed:.0f}s"
           + (f"; {len(bad)} outside the window" if bad else ""))
    assert not bad, "\n".join(bad)


def test_criterion_6_oracle_equivalence(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(61)
    grid = GridSpec(T=1.0, M=16)
    worst = 0.0
    checked = 0
    for s in ALL_SCHEMES:
        vals = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        traj = Trajectory(grid=grid, values=vals)
        for alpha in (0.3, 0.7):
            bound = 1e-8 * grid.dt ** -alpha
            tab = weight_table(s, alpha, 16)
            for n in range(s.k, 17):
                direct = apply_discrete_caputo(tab, traj, n)
                orac = oracle_discrete_caputo(build_interpolant(s, grid, vals, n), alpha)
                worst = max(worst, abs(direct - orac) / bound)
                checked += 1
    elapsed = time.perf_counter() - t0
    bad = []
    if worst >= 1.0:
        bad.append(f"worst discrepancy {worst:.3g} of the 1e-8*dt^-alpha budget")
    if elapsed >= 2.0:
        bad.append(f"runtime {elapsed:.1f}s exceeds 2s")
    report(6, "oracle-equivalence", not bad, f"{checked} evaluations, worst "
           f"{worst:.2e} of budget, {elapsed:.1f}s")
    assert not bad, "\n".join(bad)


def _head_defect(k: int, i: int, alpha: float, ts, n: int) -> float:
    """Caputo derivative at t_n of w = prod_{m<k} (t - t_m) restricted to [0, t_{k-i}].

    The degree k-1 head pieces of an i < k member interpolate t^k by t^k - w
    on I_1..I_{k-i} (w vanishes at t_{k-i}, so the interpolant stays
    continuous), and by t^k itself on every later piece.  With s = t_n - xi,
    w'(xi) is a polynomial sum_j c_j s^j and
    int_0^{t_{k-i}} (t_n - xi)^-alpha w'(xi) dxi integrates term by term.
    """
    coef = Polynomial.fromroots(ts[:k]).deriv()(Polynomial([ts[n], -1.0])).coef
    lo = ts[n] - ts[k - i]
    total = sum(c * (ts[n] ** (j + 1 - alpha) - lo ** (j + 1 - alpha)) / (j + 1 - alpha)
                for j, c in enumerate(coef))
    return total / math.gamma(1.0 - alpha)


def test_criterion_7_polynomial_exactness(report):
    # degree <= k reproduction to 1e-10 relative at every node; at degree k
    # the i < k members reproduce their own interpolant of t^k, whose first
    # k-i pieces have degree k-1 (_head_defect)
    M = 24
    grid = GridSpec(T=1.0, M=M)
    ts = grid.times()
    bad = []
    for s in ALL_SCHEMES:
        worst = 0.0
        for alpha in (0.2, 0.6):
            tab = weight_table(s, alpha, M)
            for deg in range(0, s.k + 1):
                traj = Trajectory(grid=grid, values=(ts ** deg).astype(complex))
                for n in range(s.k, M + 1):
                    ref = caputo_monomial(deg, alpha, ts[n])
                    if deg == s.k > s.i:
                        ref -= _head_defect(s.k, s.i, alpha, ts, n)
                    dev = abs(apply_discrete_caputo(tab, traj, n) - ref)
                    worst = max(worst, dev / max(1.0, abs(ref)))
        if worst > 1e-10:
            bad.append(f"{s.label}: worst relative deviation {worst:.2e}")
    report(7, "polynomial-exactness", not bad, "degrees <= k on all six schemes, "
           "head-piece interpolant at degree k for i < k"
           + (f"; over 1e-10 on {len(bad)}: " + ", ".join(bad) if bad else ""))
    assert not bad, "\n".join(bad)


def test_criterion_8_complete_monotonicity(report):
    lowest = math.inf
    for q, r in ((1, 1), (2, 2), (2, 1), (3, 3), (1, 2), (1, 3), (2, 3)):
        # the alternating-sign exponent uses r when r <= q and q otherwise,
        # i.e. min(q, r) in both branches
        base = min(q, r)
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            vals = kernel_table(alpha, q, r, 64)
            for k in range(4):
                d = backward_diff(vals, k) if k else np.asarray(vals)
                signed = (-1.0) ** (k + base + 1) * d[k:]
                lowest = min(lowest, float(signed.min()))
    ok = lowest >= -1e-14
    report(8, "complete-monotonicity", ok,
           f"7 (q,r) pairs x 5 alphas x k<=3, n<=64, min signed value {lowest:.2e}")
    assert ok, f"sign violation {lowest:.3e} beyond -1e-14"


def test_criterion_9_weight_consistency(report):
    worst = 0.0
    for s in ALL_SCHEMES:
        for tenths in range(1, 10):
            tab = weight_table(s, tenths / 10.0, 128)
            partial = np.cumsum(tab.omega)
            for n in range(s.k, 129):
                worst = max(worst, abs(partial[n] + sum(tab.starting[n])))
    ok = worst < 1e-12
    report(9, "weight-consistency", ok,
           f"all schemes, 9 alphas, n<=128, worst residual {worst:.2e}")
    assert ok, f"sum-to-zero residual {worst:.3e}"


def test_criterion_10_half_plane_membership(report):
    rng = np.random.default_rng(20260815)
    hits = []
    boundary = 0
    for scheme in K2_SCHEMES:
        for alpha in (0.1, 0.5, 0.9):
            for _ in range(200):
                radius = 10.0 ** rng.uniform(-3.0, 3.0)
                angle = rng.uniform(0.5 * math.pi, 1.5 * math.pi)
                z = radius * cmath.exp(1j * angle)
                v = in_stability_region(scheme, alpha, z)
                if v.verdict == "outside":
                    hits.append(f"{scheme} a={alpha} z={z:.6g}")
                elif v.verdict == "boundary":
                    boundary += 1
    min_re = math.inf
    for s in ALL_SCHEMES:
        for alpha in (0.25, 0.5, 0.75):
            diag = series_diagnostics(s, alpha, 4096)
            for m in range(64):
                xi = 0.99 * cmath.exp(2j * math.pi * m / 64.0)
                min_re = min(min_re, polyval(xi, diag.phi).real)
    bad = list(hits)
    if not min_re > 0.0:
        bad.append(f"min Re phi {min_re:.3e} is not positive")
    report(10, "half-plane-membership", not bad,
           f"1800 left-half-plane samples: {len(hits)} forbidden-set hits, "
           f"{boundary} boundary; min Re phi {min_re:.4f} on 18 x 64 ring points")
    assert not bad, "\n".join(bad)


def test_criterion_11_truncation_orders(report):
    m_list = (32, 64, 128, 256)
    bad = []
    fits = 0
    for alpha in (0.3, 0.5, 0.7):
        for s in ALL_SCHEMES:
            fits += 1
            if s.i == s.k:
                # degree k+1 probe decays uniformly at order k+1-alpha
                samples = run_truncation_study(s, alpha, s.k + 1, m_list)
                slope = fit_order(m_list, [x.max_abs for x in samples])
                target = s.k + 1 - alpha
                if abs(slope - target) > 0.15:
                    bad.append(f"{s.label} a={alpha}: slope {slope:.3f} vs "
                               f"{target:.2f}+-0.15")
            else:
                # degree k probe: the first-cells defect decays one order
                # slower than the tail, the near-origin reduction
                samples = run_truncation_study(s, alpha, s.k, m_list)
                origin = fit_order(m_list, [x.origin_max for x in samples])
                tail = fit_order(m_list, [x.tail_max for x in samples])
                reduced = s.k - alpha
                if abs(origin - reduced) > 0.2:
                    bad.append(f"{s.label} a={alpha}: origin slope {origin:.3f} vs "
                               f"{reduced:.2f}+-0.2")
                if tail < origin + 0.5:
                    bad.append(f"{s.label} a={alpha}: tail slope {tail:.3f} does not "
                               f"separate from origin slope {origin:.3f}")
    report(11, "truncation-orders", not bad, f"{fits} monomial studies over M=32..256"
           + (f"; {len(bad)} outside the window" if bad else ""))
    assert not bad, "\n".join(bad)
