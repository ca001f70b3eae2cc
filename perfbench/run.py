"""regretplan benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 20 --trace 0

Run from the repository root; the planner is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run instead.  A human-readable summary goes to stderr.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MODULES = ("errors", "formula", "model", "arena", "solver", "execute",
           "bench", "oracle", "grid", "fixtures")

# set-up is repeated and its median reported; the first repetition in a
# fresh checkout also compiles the byte code
SETUP_REPS = 15

E2E_UNITS = {
    "setup_s": "s",
    "regret_solve_s": "s",
    "worst_solve_s": "s",
    "trials_per_s": "trials/s",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import the planner afresh, so each set-up repetition pays the import."""
    for name in [n for n in sys.modules
                 if n == "regretplan" or n.startswith("regretplan.")]:
        del sys.modules[name]
    importlib.import_module("regretplan")
    return SimpleNamespace(**{name: importlib.import_module(f"regretplan.{name}")
                              for name in MODULES})


def setup(workload, seed):
    """Median set-up time over SETUP_REPS fresh imports and input builds,
    with the program and inputs of the last one and the median of each
    timed part (DFA build, grid compile)."""
    totals, parts_seen = [], []
    for _ in range(SETUP_REPS):
        parts = {}
        gc.collect()  # the previous repetition's modules are garbage now
        start = time.perf_counter()
        rp = load_program()
        inputs = workload.inputs(rp, seed, parts)
        totals.append(time.perf_counter() - start)
        parts_seen.append(parts)
    parts = {key: statistics.median(p[key] for p in parts_seen)
             for key in parts_seen[-1]}
    return rp, inputs, statistics.median(totals), parts


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def median_pass(passes):
    """Per unit (instance or trial), the median of its repetitions over
    the passes, taken separately for each timed part."""
    return [tuple(map(statistics.median, zip(*reps)))
            for reps in zip(*(p.units for p in passes))]


def end_to_end(workload, rp, inputs, seconds, tally):
    """Repeat the same pass for about `seconds` of measured time and report
    a median pass.  Every pass does identical work; taking the median per
    unit, not per pass, keeps a burst of load from other tenants of the
    machine within the few units it hit."""
    passes = []
    measured = 0.0
    while not passes or measured + passes[-1].wall_s / 2 < seconds:
        gc.collect()  # every pass starts from the same collector state
        result = workload.run_pass(rp, inputs, len(passes))
        measured += result.wall_s
        passes.append(result)
        workload.check(rp, inputs, result.outputs, tally)
        result.outputs = None
    units = median_pass(passes)
    return {
        "regret_solve_s": sum(u[0] for u in units),
        "worst_solve_s": sum(u[1] for u in units),
        "trials_per_s": len(units) / sum(u[2] for u in units),
        "peak_rss_mb": peak_rss_mb(),
    }, len(passes)


def alloc_peak_mb(rp, dfa, models):
    """Largest tracemalloc peak of one arena build over the given models."""
    peak = 0
    tracemalloc.start()
    try:
        for m in models:
            tracemalloc.reset_peak()
            arena = rp.solver.build_arena(m, dfa)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            del arena
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def per_layer(workload, rp, inputs, seconds, tally, parts, out_path):
    """Alternate untraced and traced passes over the same inputs; report
    the traced passes' per-layer medians and the tracing overhead."""
    import tracing

    plain, traced, layers = [], [], []
    last_outputs, absent = None, []
    while (not traced
           or sum(plain + traced) + (plain[-1] + traced[-1]) / 2 < seconds):
        index = len(plain)
        gc.collect()
        result = workload.run_pass(rp, inputs, index)
        plain.append(result.wall_s)
        workload.check(rp, inputs, result.outputs, tally)
        gc.collect()
        tracer = tracing.Tracer()
        with tracing.Shims(tracer) as shims:
            result = workload.run_pass(rp, inputs, index)
        absent = shims.absent
        traced.append(result.wall_s)
        workload.check(rp, inputs, result.outputs, tally)
        layers.append(tracing.layer_metrics(tracer))
        last_outputs = result.outputs
    tracer.write(out_path)

    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        metrics[name] = (statistics.median_low(values)
                         if isinstance(values[0], int)
                         else statistics.median(values))
    metrics.update({
        "formula.to_dfa_s": parts["formula.to_dfa_s"],
        "formula.dfa_states": parts["formula.dfa_states"],
        "grid.compile_s": parts.get("grid.compile_s", 0.0),
        "grid.unknown_states": parts.get("grid.unknown_states", 0),
        "arena.alloc_peak_mb": alloc_peak_mb(
            rp, *workload.arena_models(inputs, last_outputs)),
        "trace.overhead_pct":
            100 * (statistics.median(traced) / statistics.median(plain) - 1),
        "trace.absent_entry_points": len(absent),
    })
    for name in absent:
        print(f"absent entry point: {name}", file=sys.stderr)
    return metrics, len(traced)


def unit_of(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "regretplan" / "__init__.py").is_file():
        print(f"benchmark: no planner sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    rp, inputs, setup_s, parts = setup(workload, args.seed)
    problems = workloads.selftest(rp)
    for problem in problems:
        print(f"checker self-test: {problem}", file=sys.stderr)

    tally = checks.Tally()
    if args.trace:
        out = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        metrics, passes = per_layer(workload, rp, inputs, args.seconds, tally,
                                    parts, out)
    else:
        metrics, passes = end_to_end(workload, rp, inputs, args.seconds, tally)
        metrics["setup_s"] = setup_s

    print(f"{args.workload} seed {args.seed}: {passes} passes, "
          f"{tally.attempted} checks, {tally.failed} failed, "
          f"{tally.skipped} skipped", file=sys.stderr)
    for note in tally.notes:
        print(f"  check failed: {note}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
