"""One pass of one benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --trace 0|1 --size full|tiny [--cross-check] [< queries.json]

A pass times `import fracstep` (the set-up), runs the workload once with the
package's caches cold, as every CLI invocation starts, and then checks each
output outside the timed region. Its last stdout line is one JSON object.
bench/run.py starts the passes and aggregates them. stability-sweep reads its
queries as JSON on stdin: run.py draws them once per run with sweep_inputs(),
which builds weight tables and so must not run inside a pass.
"""

import argparse
import cmath
import hashlib
import inspect
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("solve-long", "converge-nonlinear", "stability-sweep")
ALL_SCHEMES = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))

# The solve lattices are fixed paper-style tables; the seed does not change them.
# The seed draws the z sample of stability-sweep (sweep_inputs).
SIZES = {
    "full": {
        "solve_M": (2048, 4096, 8192),
        "converge": {"mu": ("-1", "i"), "alpha": (0.3, 0.7), "schemes": ALL_SCHEMES,
                     "M_list": (256, 512, 1024)},
        "sweep": {"schemes": ALL_SCHEMES, "alphas": tuple(round(0.05 * j, 2) for j in range(1, 20)),
                  "per_group": 9},
    },
    "tiny": {
        "solve_M": (64, 128),
        "converge": {"mu": ("-1", "i"), "alpha": (0.5,), "schemes": ((1, 1), (3, 3)),
                     "M_list": (32, 64)},
        "sweep": {"schemes": ((1, 1), (3, 3)), "alphas": (0.3, 0.7), "per_group": 3},
    },
}
SOLVE_ALPHA = 0.5
NEWTON_TOL = 1e-15
ROUNDING_FLOOR = 1e-12    # errors below this on both sides agree
ERROR_FACTOR = 2.0        # the factor-2 rule of acceptance criteria 3 and 4
MARGIN_TOL = 1e-9         # FFT and Horner loci agree far below this
LOCUS_TOL = 1e-9          # locus points against reference.json, relative to max(1, |point|)
LOCUS_POINTS = 8          # reference.json holds zeta(2 pi j / 8), j = 0..7, per (scheme, alpha)
TRUST_LENGTHS = 10.0      # a verdict needs z this many sampling lengths from the locus
DEEPEST = 1 << 17         # sweep z are drawn so that every query resolves by this many samples
DRAW_SAMPLES = 1 << 15    # the locus polygon the draw measures distances on


def error_matches(err, ref):
    if not math.isfinite(err):
        return False
    if err < ROUNDING_FLOOR and ref < ROUNDING_FLOOR:
        return True
    return ref / ERROR_FACTOR <= err <= ref * ERROR_FACTOR


class Checks:
    """Operations attempted, and a message for each one whose output is wrong."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failures = []

    def op(self, label, problem=None):
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")

    def endpoint(self, key, err):
        ref = self.reference.get(key)
        if ref is None:
            self.op(key, "no reference error recorded")
        elif not error_matches(err, ref):
            self.op(key, f"endpoint error {err!r} is not within a factor {ERROR_FACTOR:g} of {ref!r}")
        else:
            self.op(key)


def run_solve_long(size, checks, ops):
    from fracstep import harness, operator, solver

    cells = []
    t0 = time.perf_counter()
    problems = (
        ("mlf_decay", harness.mlf_decay(SOLVE_ALPHA), (3, 3)),
        ("linear_complex lam=-1", harness.linear_complex(SOLVE_ALPHA, -1.0), (2, 1)),
    )
    for label, problem, scheme in problems:
        for M in SIZES[size]["solve_M"]:
            q0 = time.perf_counter()
            report = solver.solve(problem, scheme, operator.GridSpec(T=1.0, M=M))
            ops.append(time.perf_counter() - q0)
            cells.append((f"{label} a={SOLVE_ALPHA} ({scheme[0]},{scheme[1]}) M={M}", report))
    wall = time.perf_counter() - t0
    peak = peak_rss_mb()

    errors = {}
    for key, report in cells:
        if report.blowup:
            checks.op(key, f"blew up, max |u| = {report.max_abs_u:.3e}")
            continue
        errors[key] = report.final_error
        checks.endpoint(key, report.final_error)
    return wall, peak, errors


def run_converge(size, checks, ops, traced):
    from fracstep import cli, harness

    spec = SIZES[size]["converge"]
    WORK.mkdir(exist_ok=True)
    jobs = []
    for mu in spec["mu"]:
        stem = WORK / f"converge-{os.getpid()}-{len(jobs)}"
        config = {
            "problem": {"tag": "nonlinear_square", "mu": mu},
            "alpha": list(spec["alpha"]),
            "schemes": [list(s) for s in spec["schemes"]],
            "grid": {"T": 1.0, "M_list": list(spec["M_list"])},
            "newton": {"tol": NEWTON_TOL},
        }
        stem.with_suffix(".json").write_text(json.dumps(config), encoding="utf-8")
        jobs.append((mu, stem.with_suffix(".json"), stem.with_suffix(".csv")))

    if not traced:
        # One lattice cell is one query: time each solve the harness makes.
        solve = harness.solve

        def timed_solve(*args, **kwargs):
            q0 = time.perf_counter()
            try:
                return solve(*args, **kwargs)
            finally:
                ops.append(time.perf_counter() - q0)

        harness.solve = timed_solve

    codes = []
    try:
        t0 = time.perf_counter()
        for _mu, config, out in jobs:
            codes.append(cli.main(["converge", "--config", str(config), "-o", str(out)]))
        wall = time.perf_counter() - t0
        peak = peak_rss_mb()

        errors = {}
        for (mu, _config, out), code in zip(jobs, codes):
            expected = [f"nonlinear_square mu={mu} a={a!r} ({k},{i}) M={M}"
                        for (k, i) in spec["schemes"] for a in spec["alpha"] for M in spec["M_list"]]
            rows = {}
            unreadable = None
            if code == 0:
                try:
                    with open(out, encoding="utf-8", newline="") as fh:
                        for row in harness.read_convergence_csv(fh):
                            rows[f"nonlinear_square mu={mu} a={row.alpha!r} ({row.k},{row.i}) M={row.M}"] = row
                except (OSError, ValueError, IndexError) as exc:
                    unreadable = f"convergence CSV does not read back: {exc}"
            for key in expected:
                if code != 0:
                    checks.op(key, f"fracstep converge exited with status {code}")
                elif unreadable:
                    checks.op(key, unreadable)
                elif key not in rows:
                    checks.op(key, "cell missing from the convergence CSV")
                else:
                    errors[key] = rows[key].abs_err
                    checks.endpoint(key, rows[key].abs_err)
            for key in sorted(set(rows) - set(expected)):
                checks.op(key, "unexpected cell in the convergence CSV")
    finally:
        for _mu, config, out in jobs:
            for path in (config, out):
                if path.exists():
                    path.unlink()
    return wall, peak, errors


def folded_locus(omega, samples):
    """The truncated locus at theta = 2 pi m / samples, closed, by the benchmark's own FFT."""
    import numpy as np

    folded = np.concatenate([omega, np.zeros(-omega.size % samples)]).reshape(-1, samples).sum(axis=0)
    pts = np.fft.ifft(folded) * samples
    return np.append(pts, pts[0])


def distance_to_polygon(closed_points, z):
    import numpy as np

    a = closed_points[:-1]
    d = closed_points[1:] - a
    t = np.clip(((z - a) * d.conjugate()).real / np.maximum(np.abs(d) ** 2, 1e-300), 0.0, 1.0)
    return float(np.abs(a + t * d - z).min())


def default_terms(stability):
    return inspect.signature(stability.in_stability_region).parameters["terms"].default


def sweep_inputs(size, seed):
    """Queries grouped by (scheme, alpha): |z| log-uniform in [1e-2, 1e2], uniform angle.

    Within a group the n draws are a Latin hypercube: log10 |z| and the angle
    are each cut into n equal bands, and each band of either holds one z. The
    marginals stay uniform, while the number of queries near the locus, which
    sets how often the sampling doubles and so the pass's time, varies less
    from seed to seed than with independent draws.

    A query resolves once z lies TRUST_LENGTHS sampling lengths (perimeter /
    samples) from the sampled locus at two resolutions in a row; one that
    never does by 2^20 samples comes back "boundary", which counts as a
    failure. So a z within 1.25 such lengths at DEEPEST / 2 samples is drawn
    again in its bands: every query resolves by DEEPEST samples, and none is
    a boundary case. That keeps the deepest doubling, and with it the peak
    memory, the same from seed to seed. The draw builds weight tables, so it
    runs outside the passes, which must build them cold.
    """
    import numpy as np
    from fracstep import stability, weights

    terms = default_terms(stability)
    spec = SIZES[size]["sweep"]
    n = spec["per_group"]
    rng = np.random.default_rng(seed)
    queries = []
    for s in spec["schemes"]:
        for a in spec["alphas"]:
            closed = folded_locus(weights.weight_table(s, a, terms).omega, DRAW_SAMPLES)
            keep_off = 1.25 * TRUST_LENGTHS * float(np.abs(np.diff(closed)).sum()) / (DEEPEST // 2)
            zs = []
            for radius_band, angle_band in zip(rng.permutation(n), rng.permutation(n)):
                while True:
                    log_r = -2.0 + 4.0 * (radius_band + rng.uniform()) / n
                    theta = 2.0 * math.pi * (angle_band + rng.uniform()) / n
                    z = 10.0 ** log_r * cmath.exp(1j * theta)
                    if distance_to_polygon(closed, z) >= keep_off:
                        break
                zs.append(z)
            queries.append((s, a, zs))
    return queries


def verdict_problem(route, closed_points, z, v):
    """Why the locus (closed_points, at v.samples) disagrees with verdict v on z, or None."""
    import numpy as np

    rel = closed_points - z
    w = round(float(np.angle(rel[1:] / rel[:-1]).sum()) / (2.0 * math.pi))
    expected = "inside" if w == 0 else "outside"
    margin = float(np.abs(rel[:-1]).min())
    resolution = float(np.abs(np.diff(closed_points)).sum()) / v.samples
    if w != v.winding or v.verdict != expected:
        return (f"{route} locus at {v.samples} samples gives winding {w} ({expected}); "
                f"query gave {v.verdict} (winding {v.winding})")
    if abs(margin - v.margin) > MARGIN_TOL:
        return f"{route} locus gives margin {margin!r}; query gave {v.margin!r}"
    if margin < TRUST_LENGTHS * resolution:
        return f"resolved at margin {margin!r}, under {TRUST_LENGTHS:g} sampling lengths ({resolution!r})"
    return None


def locus_problem(points, ref):
    """Why the locus points differ from the reference ones, or None."""
    if ref is None:
        return "no reference locus recorded"
    for j, (p, (re, im)) in enumerate(zip(points, ref)):
        r = complex(re, im)
        if not abs(p - r) <= LOCUS_TOL * max(1.0, abs(r)):
            return f"zeta(2 pi {j}/{LOCUS_POINTS}) = {p!r}, reference {r!r}"
    return None


def run_sweep(queries, checks, ops, cross_check):
    from fracstep import stability, weights

    answers = []
    t0 = time.perf_counter()
    for s, a, zs in queries:
        for z in zs:
            q0 = time.perf_counter()
            verdict = stability.in_stability_region(s, a, z)
            ops.append(time.perf_counter() - q0)
            answers.append(verdict)
    wall = time.perf_counter() - t0
    peak = peak_rss_mb()

    it = iter(answers)
    for s, a, zs in queries:
        group = f"({s[0]},{s[1]}) a={a}"
        results = [(z, next(it)) for z in zs]
        for z, v in results:
            checks.op(f"{group} z={z!r}", "boundary verdict" if v.verdict == "boundary" else None)
        decided = [(z, v) for z, v in results if v.verdict != "boundary"]
        if not cross_check or not decided:
            continue
        # Every verdict against the winding, margin and trust rule of the
        # benchmark's own locus at the query's sample count and truncation.
        terms = default_terms(stability)
        loci = {}
        for z, v in decided:
            if v.samples not in loci:
                loci[v.samples] = folded_locus(weights.weight_table(s, a, terms).omega, v.samples)
            checks.op(f"{group} z={z!r}", verdict_problem("FFT", loci[v.samples], z, v))
        # The query resolved at the fewest samples against the Horner route
        # (boundary_locus), whose points are also checked against reference.json.
        z, v = min(decided, key=lambda zv: zv[1].samples)
        horner = stability.boundary_locus(s, a, terms=terms, samples=v.samples).points
        checks.op(f"{group} z={z!r} Horner", verdict_problem("Horner", horner, z, v))
        checks.op(f"{group} locus", locus_problem(horner[:-1:v.samples // LOCUS_POINTS],
                                                  checks.reference.get(group)))
    outcome = {}
    for v in answers:
        outcome[v.verdict] = outcome.get(v.verdict, 0) + 1
    return wall, peak, {"verdicts": outcome,
                        "answers": [(v.verdict, v.winding, v.samples, v.margin) for v in answers]}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--cross-check", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import fracstep
    setup_s = time.perf_counter() - t0
    if Path(fracstep.__file__).resolve().parent != (SRC / "fracstep").resolve():
        print(f"worker: imported fracstep from {fracstep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh).get(args.workload, {})
    checks = Checks(reference)
    ops = []
    tracer = read_counters = None
    if args.trace:
        tracer, read_counters = tracing.install()

    if args.workload == "solve-long":
        wall, peak, outputs = run_solve_long(args.size, checks, ops)
    elif args.workload == "converge-nonlinear":
        wall, peak, outputs = run_converge(args.size, checks, ops, bool(args.trace))
    else:
        queries = [(tuple(s), a, [complex(*z) for z in zs]) for s, a, zs in json.load(sys.stdin)]
        wall, peak, outputs = run_sweep(queries, checks, ops, args.cross_check)

    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "op_s": ops,
        "peak_rss_mb": peak,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "fingerprint": hashlib.sha256(json.dumps(outputs).encode()).hexdigest(),
        "outputs": {k: v for k, v in outputs.items() if k != "answers"},
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, read_counters())
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
