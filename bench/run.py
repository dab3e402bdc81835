"""fracstep benchmark: the workloads timed end to end, or layer by layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every pass of a workload runs in a fresh interpreter (bench/worker.py), so the
package's lru_caches start cold, as they do for every CLI user. The first pass
also runs the slow cross-checks; after it, passes repeat until --seconds have
gone by, and at least MIN_PASSES times in all, all on the same inputs (--seed
draws the z of stability-sweep; the solve lattices are fixed). Every
end-to-end metric is the median over passes of each pass's value. With --trace 1
every other pass is traced and the result holds the per-layer metrics instead.

Each workload prints one line per metric, a JSON detail line with the samples,
the endpoint errors and any failed checks, and last a JSON result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The program exits with status 2, without a result line, if the fracstep sources
are not next to the benchmark or a pass fails to run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT_COUNTS, UNITS
from worker import SIZES, SRC, WORKLOADS, sweep_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class PassError(RuntimeError):
    pass


def run_pass(workload, args, queries, traced, cross_check):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--trace", "1" if traced else "0", "--size", args.size]
    if cross_check:
        cmd.append("--cross-check")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, input=queries, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload} pass did not finish within {PASS_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited with status {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def run_passes(workload, args):
    queries = None
    if workload == "stability-sweep":
        # Drawn here, once: the draw builds weight tables, which a pass must build cold.
        queries = json.dumps([(s, a, [(z.real, z.imag) for z in zs])
                              for s, a, zs in sweep_inputs(args.size, args.seed)])
    # The first pass also runs the slow cross-checks; the clock starts after it.
    passes = [run_pass(workload, args, queries, traced=False, cross_check=True)]
    deadline = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(workload, args, queries, traced, cross_check=False))
        n_traced = sum("layers" in p for p in passes)
        n_plain = len(passes) - n_traced
        enough = n_traced >= 2 and n_plain >= 2 if args.trace else n_plain >= MIN_PASSES
        if enough and time.monotonic() >= deadline:
            return passes


def end_to_end(passes):
    # Each metric is the median over passes of that pass's own value. On a
    # shared machine the speed drifts by tens of percent over seconds to
    # minutes; a median rides out a slow or fast spell that an extreme (such as
    # a per-query minimum over passes) catches in one run and misses in the next.
    def median(of):
        return statistics.median(of(p) for p in passes)

    return {
        "setup_s": median(lambda p: p["setup_s"]),
        "wall_s": median(lambda p: p["wall_s"]),
        "query_p50_ms": 1e3 * median(lambda p: statistics.median(p["op_s"])),
        "query_p99_ms": 1e3 * median(
            lambda p: statistics.quantiles(p["op_s"], n=100, method="inclusive")[98]),
        "peak_rss_mb": median(lambda p: p["peak_rss_mb"]),
    }


def per_layer(passes, problems):
    traced = [p for p in passes if "layers" in p]
    plain = [p for p in passes if "layers" not in p]
    out = {}
    for metric, unit in UNITS.items():
        values = [p["layers"][metric] for p in traced if metric in p["layers"]]
        if not values:
            continue
        out[metric] = statistics.median(values) if unit == "s" else values[0]
        if metric in EXACT_COUNTS and len(set(values)) > 1:
            problems.append(f"{metric} differs between traced passes: {values}")
    out["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                  / statistics.median(p["wall_s"] for p in plain) - 1.0)
    return out


def report(workload, args, passes):
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    problems = []
    if len({p["fingerprint"] for p in passes}) > 1:
        problems.append("outputs differ between passes of the same inputs")
    if args.trace:
        values = per_layer(passes, problems)
    else:
        values = end_to_end(passes)
    units = UNITS if args.trace else END_TO_END_UNITS
    absent = sorted({a for p in passes for a in p.get("absent", ())})

    for name, value in values.items():
        print(f"{workload:20s} {name:24s} {value:.6g} {units[name]}")
    print(f"{workload:20s} {'failed_frac':24s} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} operations)")
    for line in failures + problems:
        print(f"{workload}: {line}", file=sys.stderr)
    if absent:
        print(f"{workload}: spans absent, their metrics left out: {', '.join(absent)}", file=sys.stderr)
    detail = {
        "workload": workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "passes": len(passes),
        "queries_per_pass": len(passes[0]["op_s"]),
        "samples": {key: [p[key] for p in passes] for key in ("setup_s", "wall_s", "peak_rss_mb")},
        "failed_frac": len(failures) / attempted,
        "failures": failures[:50],
        "problems": problems,
        "absent_spans": absent,
        "outputs": passes[0]["outputs"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full",
                    help="tiny runs the smoke-test lattices")
    args = ap.parse_args(argv)

    if not (SRC / "fracstep" / "__init__.py").is_file():
        print(f"run.py: no fracstep package under {SRC}", file=sys.stderr)
        return 2
    # Compile the bytecode and fill the file cache before any pass is timed.
    warm = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import fracstep",
                           str(SRC)], cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"run.py: cannot import fracstep:\n{warm.stderr}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            report(workload, args, run_passes(workload, args))
    except PassError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
