"""Spans around calls into fracstep's modules, installed from outside.

The tracer replaces module attributes (for example `fracstep.solver.weight_table`)
with wrappers that time each call. Nothing inside the package changes: an
`lru_cache` object stays in place behind its wrapper, so caching behaves as in
an untraced run. An attribute that is missing is recorded as absent and its
metrics are left out of the result rather than reported as zero.

A span's self time is its duration minus the durations of the spans called
directly inside it.
"""

import dataclasses
import inspect
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.absent = []
        self.installed = set()
        self._children = []  # child time accumulated by each open span

    def span(self, name, fn, on_return=None):
        self.installed.add(name)

        def traced(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                self.total[name] += dt
                self.self_time[name] += dt - child
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += dt
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def wrap(self, module, attr, name, on_return=None):
        """Replace module.attr by a span; return the original, or None if absent."""
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return None
        setattr(module, attr, self.span(name, original, on_return))
        return original


def install():
    """Wrap every layer boundary the workloads cross; return (tracer, read_counters)."""
    from fracstep import cli, expr, harness, solver, stability, weights

    tr = Tracer()
    query = getattr(stability, "in_stability_region", None)
    first_samples = inspect.signature(query).parameters["samples"].default if query else None

    def on_solve(report):
        tr.counts["solver.newton_iters"] += int(report.newton_iters.sum())
        tr.counts["solver.grid_steps"] += report.trajectory.grid.M

    def on_query(verdict):
        if verdict.samples:
            tr.counts["stability.doublings"] += (verdict.samples // first_samples).bit_length() - 1

    for mod in (solver, harness, cli):
        tr.wrap(mod, "solve", "solver", on_solve)
    tr.wrap(solver, "_newton_step", "solver.newton")
    for mod in (harness, expr, cli):
        tr.wrap(mod, "mittag_leffler", "special.mlf")
    for mod in (solver, stability, harness, weights, cli):
        tr.wrap(mod, "weight_table", "weights.table")
    for mod in (weights, cli):
        tr.wrap(mod, "kernel_table", "kernel.table")
    for mod in (stability, cli):
        tr.wrap(mod, "in_stability_region", "stability.query", on_query)
    locus_cache = tr.wrap(stability, "_locus_samples", "stability.locus")
    for attr in ("load_config", "run_convergence", "write_convergence_csv"):
        tr.wrap(cli, attr, "harness")
    tr.wrap(cli, "main", "cli")

    # rhs and exact are closures built by the problem factories; wrap what they return.
    def traced_factory(make):
        def build(*args, **kwargs):
            p = make(*args, **kwargs)
            exact = None if p.exact is None else tr.span("solver.exact", p.exact)
            return dataclasses.replace(p, rhs=tr.span("solver.rhs", p.rhs), exact=exact)

        return build

    for name in ("mlf_decay", "linear_complex", "nonlinear_square"):
        make = getattr(harness, name, None)
        if make is None:
            tr.absent.append(f"fracstep.harness.{name}")
        else:
            setattr(harness, name, traced_factory(make))
            tr.installed.update(("solver.rhs", "solver.exact"))

    build_cache = getattr(weights, "_build", None)
    caches = {"weights.cache_misses": build_cache, "stability.locus_misses": locus_cache}
    for key, cache in caches.items():
        if not hasattr(cache, "cache_info"):
            tr.absent.append(key)
    start = {k: c.cache_info().misses for k, c in caches.items() if hasattr(c, "cache_info")}

    def read_counters():
        return {k: caches[k].cache_info().misses - m0 for k, m0 in start.items()}

    return tr, read_counters


# (metric, unit, kind, span): kind "total" is a span's inclusive time, "self" its
# self time, "calls" its call count.
SPAN_METRICS = (
    ("solver.self_s", "s", "self", "solver"),
    ("solver.solve_calls", "count", "calls", "solver"),
    ("solver.newton_s", "s", "total", "solver.newton"),
    ("solver.newton_calls", "count", "calls", "solver.newton"),
    ("solver.rhs_s", "s", "total", "solver.rhs"),
    ("solver.rhs_calls", "count", "calls", "solver.rhs"),
    ("solver.exact_s", "s", "total", "solver.exact"),
    ("special.mlf_s", "s", "total", "special.mlf"),
    ("special.mlf_calls", "count", "calls", "special.mlf"),
    ("weights.table_s", "s", "total", "weights.table"),
    ("weights.table_calls", "count", "calls", "weights.table"),
    ("kernel.table_s", "s", "total", "kernel.table"),
    ("kernel.table_calls", "count", "calls", "kernel.table"),
    ("stability.query_calls", "count", "calls", "stability.query"),
    ("stability.locus_s", "s", "self", "stability.locus"),
    ("stability.locus_calls", "count", "calls", "stability.locus"),
    ("stability.self_s", "s", "self", "stability.query"),
    ("harness.self_s", "s", "self", "harness"),
    ("cli.self_s", "s", "self", "cli"),
)

UNITS = {metric: unit for metric, unit, _kind, _span in SPAN_METRICS}
UNITS.update({
    "solver.newton_iters": "count",
    "solver.rhs_per_step": "calls/step",
    "weights.cache_misses": "count",
    "stability.locus_misses": "count",
    "stability.doublings": "count",
    "trace.overhead_frac": "frac",
})

# Counts that must repeat exactly between two traced runs of the same inputs.
EXACT_COUNTS = (
    "solver.rhs_calls", "solver.newton_iters", "special.mlf_calls",
    "weights.cache_misses", "stability.locus_misses", "stability.doublings",
)


def layer_metrics(tr, counters):
    """{metric: value} from a finished traced pass; metrics of absent spans are left out."""
    out = {}
    for metric, _unit, kind, span in SPAN_METRICS:
        if span not in tr.installed:
            continue
        source = {"total": tr.total, "self": tr.self_time, "calls": tr.calls}[kind]
        out[metric] = source[span]
    if "solver" in tr.installed:
        out["solver.newton_iters"] = tr.counts["solver.newton_iters"]
    if "stability.query" in tr.installed:
        out["stability.doublings"] = tr.counts["stability.doublings"]
    if "solver.rhs" in tr.installed:
        steps = tr.counts["solver.grid_steps"]
        out["solver.rhs_per_step"] = tr.calls["solver.rhs"] / steps if steps else 0.0
    out.update(counters)
    return out
