"""Outside-in tracing of the planner's layers.

Timing shims are installed around the entry points the program calls
through its module namespaces (``regretplan.solver.build_arena`` is what
``solve_regret`` calls, ``regretplan.bench.solve_worst_case`` is what the
Monte-Carlo harness calls).  Each shim records a span (name, start, end,
parent) in memory and bumps counters; nothing inside ``src/`` changes.
An entry point that no longer exists is listed as absent instead of
raising, so the traced run keeps working across refactors.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter, defaultdict
from pathlib import Path

# span name -> per-layer time metric (self time, seconds)
SPAN_METRICS = (
    "formula.to_dfa", "grid.compile", "arena.build", "solver.esp", "solver.br",
    "solver.mu", "solver.minmax", "solver.regret_self", "solver.worst_self",
    "solver.online_decide", "model.product", "model.compatible_envs",
    "execute.run", "bench.generate", "bench.sample_env", "bench.harness_self",
)

COUNT_METRICS = (
    "formula.dfa_states", "grid.unknown_states", "arena.builds",
    "arena.vertices", "arena.edges", "solver.esp_edges", "solver.br_calls",
    "solver.br_queries", "solver.br_worlds", "solver.br_cap_fallbacks",
    "solver.minmax_calls", "solver.minmax_sweeps", "solver.decisions",
    "solver.online_decides", "model.products", "model.worlds_built",
    "execute.runs", "execute.steps", "bench.generate_candidates",
)


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent index)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def leave(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()

    def self_times(self):
        """Span duration minus the part its direct children cover, summed
        per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# shims

def _arena_counts(tr, arena):
    tr.counts["arena.builds"] += 1
    tr.counts["arena.vertices"] += arena.n
    tr.counts["arena.edges"] += sum(map(len, arena.fwd))


def _strategy_counts(tr, result):
    tr.counts["solver.decisions"] += len(result[0].decisions)


def _minmax_counts(tr, result):
    tr.counts["solver.minmax_calls"] += 1
    tr.counts["solver.minmax_sweeps"] += result.sweeps


def _run_counts(tr, record):
    tr.counts["execute.runs"] += 1
    tr.counts["execute.steps"] += len(record.path) - 1


def _world_counts(tr, envs):
    tr.counts["model.worlds_built"] += len(envs)


def _product_counts(tr, _):
    tr.counts["model.products"] += 1


def _esp_counts(tr, result):
    tr.counts["solver.esp_edges"] += len(result.edges)


class _TracedBestResponse:
    """Wraps one BestResponse: each call is a span; a call whose suffix is
    not memoized yet is a query over the remaining worlds."""

    def __init__(self, tracer, inner):
        self._tr = tracer
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __call__(self, suffix):
        tr, inner = self._tr, self._inner
        tr.counts["solver.br_calls"] += 1
        memo, m = getattr(inner, "memo", None), getattr(inner, "m", None)
        if memo is not None and m is not None and suffix not in memo:
            tr.counts["solver.br_queries"] += 1
            explored = {x for x, _ in suffix}
            worlds = math.prod(len(m.patterns[x]) for x in m.unknown_states
                               if x not in explored)
            tr.counts["solver.br_worlds"] += worlds
            if worlds > getattr(inner, "exact_cap", math.inf):
                tr.counts["solver.br_cap_fallbacks"] += 1
        return tr.call("solver.br", inner, suffix)


class _TracedPolicy:
    """Wraps the optimistic online policy so each decision is a span."""

    def __init__(self, tracer, inner):
        self._tr = tracer
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def decide(self, *args):
        self._tr.counts["solver.online_decides"] += 1
        return self._tr.call("solver.online_decide", self._inner.decide, *args)


def _span(name, after=None):
    def make(tr, fn):
        def shim(*args, **kwargs):
            result = tr.call(name, fn, *args, **kwargs)
            if after is not None:
                after(tr, result)
            return result
        return shim
    return make


def _count_only(counter):
    def make(tr, fn):
        def shim(*args, **kwargs):
            tr.counts[counter] += 1
            return fn(*args, **kwargs)
        return shim
    return make


def _wrap_result(wrapper):
    def make(tr, fn):
        def shim(*args, **kwargs):
            return wrapper(tr, fn(*args, **kwargs))
        return shim
    return make


# (module, attribute) -> shim factory.  Each attribute is the name the
# caller looks up at call time, so patching it there is enough.
SHIMS = {
    ("solver", "build_arena"): _span("arena.build", _arena_counts),
    ("solver", "compute_e_sp"): _span("solver.esp", _esp_counts),
    ("solver", "BestResponse"): _wrap_result(_TracedBestResponse),
    ("solver", "build_mu"): _span("solver.mu"),
    ("solver", "solve_minmax"): _span("solver.minmax", _minmax_counts),
    ("solver", "compatible_envs"): _span("model.compatible_envs", _world_counts),
    ("solver", "product"): _span("model.product", _product_counts),
    ("solver", "solve_regret"): _span("solver.regret_self", _strategy_counts),
    ("solver", "solve_worst_case"): _span("solver.worst_self", _strategy_counts),
    ("solver", "best_case_policy"): _wrap_result(_TracedPolicy),
    ("model", "product"): _span("model.product", _product_counts),
    ("execute", "run"): _span("execute.run", _run_counts),
    ("bench", "generate"): _span("bench.generate"),
    ("bench", "_candidate"): _count_only("bench.generate_candidates"),
    ("bench", "sample_env"): _span("bench.sample_env"),
    ("bench", "solve_regret"): _span("solver.regret_self", _strategy_counts),
    ("bench", "solve_worst_case"): _span("solver.worst_self", _strategy_counts),
    ("bench", "best_case_policy"): _wrap_result(_TracedPolicy),
    ("bench", "run"): _span("execute.run", _run_counts),
    ("bench", "run_benchmark"): _span("bench.harness_self"),
    ("bench", "rows_to_csv"): _span("bench.harness_self"),
}


class Shims:
    """Installs every shim on entry and restores the originals on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []
        self.absent = []

    def __enter__(self):
        for (mod_name, attr), make in SHIMS.items():
            try:
                module = importlib.import_module(f"regretplan.{mod_name}")
            except ImportError:
                module = None
            if module is None or not hasattr(module, attr):
                self.absent.append(f"regretplan.{mod_name}.{attr}")
                continue
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, make(self.tracer, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()
        return False


def layer_metrics(tracer):
    """Per-layer self times and counts of one traced pass."""
    times = tracer.self_times()
    out = {f"{name}_s": times.get(name, 0.0) for name in SPAN_METRICS}
    out.update({name: tracer.counts.get(name, 0) for name in COUNT_METRICS})
    return out
