"""The three benchmark workloads.

Each workload builds its inputs from the seed (set-up), runs one pass of
the program over them (measured), and checks that pass's outputs with
the independent checkers in ``checks``.  Passes always cover the whole
instance set, so every pass attempts the same checks.

The program is reached only through its module namespaces (``rp.solver``,
``rp.bench`` ...), looked up at call time, so the tracing shims in
``tracing`` see every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from types import SimpleNamespace

import checks

CASE_STUDY_TASK = "(!fire U extinguisher) & F fire"
TARGET_TASK = "F target"

# random_unknowns: the graph shapes (spanning tree, extra edges, unknown
# states, target) come from this fixed seed; the benchmark seed draws the
# edge costs.  Arena size is set by the shape and differs by up to two
# orders of magnitude between random shapes, so drawing shapes per seed
# would make the pass time a lottery; costs still change E_sp,
# best-response queries and min-max sweeps.
SHAPE_SEED = 2204
RANDOM_MODELS = 2
RANDOM_STATES = 15
RANDOM_UNKNOWNS = 5

# montecarlo: one pass is one run_benchmark call over these settings;
# every pass of a run repeats the same trials, so the median is taken
# over identical work and the oracle runs once per model, not per pass
MC_STATES = (15,)
MC_P_VALUES = (0.2, 0.5, 0.8)
MC_TRIALS = 80

# Step budget of the brute-force oracle on montecarlo trials.  Its own
# default (10M steps) runs for tens of seconds before giving up on the
# rare model whose strategy space is large; at this budget about 1% of
# default models give up after half a second, and the oracle comparison
# for those trials is counted as skipped.
ORACLE_STEPS = 200_000


def mix(*parts) -> int:
    h = 0
    for part in parts:
        h = (h * 1_000_003 + int(part) + 0x9E3779B9) % (1 << 62)
    return h


def task_dfa(rp, task, model_atoms=()):
    formula = rp.formula.parse(task)
    atoms = set(rp.formula.atoms_of(formula)) | set(model_atoms)
    return rp.formula.to_dfa(formula, atoms)


@dataclass
class Instance:
    name: str
    model: object
    task: str
    worlds: list                 # successor tables, from checks.worlds_of
    envs: list                   # the same worlds as the program's Wts
    optima: list = field(default_factory=list)   # filled on first check


@dataclass
class PassResult:
    units: list      # per instance or trial: (regret_s, worst_s, wall_s)
    outputs: object

    @property
    def wall_s(self) -> float:
        return sum(unit[2] for unit in self.units)


# ---------------------------------------------------------------------------
# solve workloads: case_study and random_unknowns

def make_instance(rp, name, model, task):
    worlds = checks.worlds_of(model.patterns)
    envs = [rp.model.Wts(n=model.n, initial=model.initial, successors=w,
                         weights=model.weights, labels=model.labels)
            for w in worlds]
    return Instance(name, model, task, worlds, envs)


def random_shape(rng: Random, n: int, n_unknown: int):
    """Successor patterns and target of one random model, shaped like the
    program's GenParams defaults: a spanning tree from state 0 that every
    world keeps, 1-2 successors per state, and one optional extra edge at
    each unknown state (pattern 0 has it, pattern 1 does not)."""
    succ = [set() for _ in range(n)]
    for i in range(1, n):
        succ[rng.choice([j for j in range(i) if len(succ[j]) < 2])].add(i)
    for x in range(n):
        degree = rng.randint(1, 2)
        pool = [y for y in range(n) if y != x and y not in succ[x]]
        while len(succ[x]) < degree:
            succ[x].add(pool.pop(rng.randrange(len(pool))))
    patterns = [[tuple(sorted(s))] for s in succ]
    for u in sorted(rng.sample(range(1, n), n_unknown)):
        extra = rng.choice([y for y in range(n) if y != u and y not in succ[u]])
        patterns[u] = [tuple(sorted(succ[u] | {extra})), tuple(sorted(succ[u]))]
    return patterns, rng.randrange(1, n)


def random_model(rp, patterns, target, rng: Random):
    edges = sorted({(x, y) for x, fam in enumerate(patterns)
                    for pat in fam for y in pat})
    return rp.model.Pkwts(
        n=len(patterns),
        initial=0,
        patterns=tuple(tuple(fam) for fam in patterns),
        weights={e: rng.randint(1, 100) for e in edges},
        labels=tuple(frozenset({"target"}) if x == target else frozenset()
                     for x in range(len(patterns))),
    )


class SolveWorkload:
    """Solve every instance for regret and for worst-case cost, then run
    the regret, worst-case and optimistic strategies in every world."""

    def __init__(self, name):
        self.name = name

    def inputs(self, rp, seed, parts):
        if self.name == "case_study":
            t = time.perf_counter()
            model = rp.grid.grid_compile(rp.fixtures.CASE_STUDY_GRID)
            parts["grid.compile_s"] = time.perf_counter() - t
            parts["grid.unknown_states"] = len(model.unknown_states)
            t = time.perf_counter()
            dfa = task_dfa(rp, CASE_STUDY_TASK, model.atoms)
            parts["formula.to_dfa_s"] = time.perf_counter() - t
            parts["formula.dfa_states"] = dfa.n
            return dfa, [make_instance(rp, "case_study", model, CASE_STUDY_TASK)]
        t = time.perf_counter()
        dfa = task_dfa(rp, TARGET_TASK)
        parts["formula.to_dfa_s"] = time.perf_counter() - t
        parts["formula.dfa_states"] = dfa.n
        shapes = Random(SHAPE_SEED)
        instances = []
        for i in range(RANDOM_MODELS):
            patterns, target = random_shape(shapes, RANDOM_STATES, RANDOM_UNKNOWNS)
            model = random_model(rp, patterns, target, Random(mix(seed, i)))
            instances.append(make_instance(rp, f"random[{i}]", model, TARGET_TASK))
        return dfa, instances

    def run_pass(self, rp, inputs, index):
        dfa, instances = inputs
        units, outputs = [], []
        for inst in instances:
            t0 = time.perf_counter()
            regret, regret_value = rp.solver.solve_regret(inst.model, dfa)
            t1 = time.perf_counter()
            worst, worst_value = rp.solver.solve_worst_case(inst.model, dfa)
            t2 = time.perf_counter()
            best = rp.solver.best_case_policy(inst.model, dfa)
            records = [[_run(rp, s, inst.model, dfa, env)
                        for s in (regret, worst, best)] for env in inst.envs]
            units.append((t1 - t0, t2 - t1, time.perf_counter() - t0))
            outputs.append((regret_value, worst_value, records))
        return PassResult(units, outputs)

    def check(self, rp, inputs, outputs, tally):
        _, instances = inputs
        for inst, (regret_value, worst_value, records) in zip(instances, outputs):
            model = inst.model
            monitor = checks.monitor_for(inst.task)
            if not inst.optima:
                inst.optima = [checks.optimum(w, model.weights, model.labels,
                                              (model.initial,), monitor)
                               for w in inst.worlds]
            outcomes = []
            for world, recs in zip(inst.worlds, records):
                for kind, rec in zip(("regret", "worst", "best"), recs):
                    tally.check(checks.run_ok(
                        rec.path, rec.cost, world, model.weights,
                        model.labels, model.initial, monitor),
                        f"{inst.name}: invalid {kind} run in world {world}")
                outcomes.append(tuple(_cost(r) for r in recs[:2]))
            checks.check_solve(tally, inst.name, regret_value, worst_value,
                               outcomes, inst.optima)

    def arena_models(self, inputs, outputs):
        dfa, instances = inputs
        return dfa, [inst.model for inst in instances]


class Walk:
    """Wraps a strategy and records the state of every decision, so that a
    run which strands itself still leaves its path behind."""

    def __init__(self, inner):
        self.inner = inner
        self.path = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def decide(self, x, q, suffix):
        self.path.append(x)
        return self.inner.decide(x, q, suffix)


def _run(rp, strategy, model, dfa, env):
    """The run record, or for a stranded run its path with cost None."""
    walk = Walk(strategy)
    try:
        return rp.execute.run(walk, model, dfa, env)
    except rp.errors.StuckNoPath:
        return SimpleNamespace(path=tuple(walk.path), cost=None)


def _cost(record):
    return float("inf") if record.cost is None else record.cost


# ---------------------------------------------------------------------------
# montecarlo: the bench subcommand's path

class Capture:
    """Records, from outside, what each Monte-Carlo trial generated, solved
    and ran, by wrapping the names ``run_benchmark`` calls in
    ``regretplan.bench``.  It also times each trial and the calls to the
    two solvers within it; a trial starts when ``generate`` is called."""

    NAMES = ("generate", "sample_env", "solve_regret", "solve_worst_case", "run")

    def __init__(self, rp):
        self.bench = rp.bench
        self.stuck = rp.errors.StuckNoPath
        self.trials = []
        self.starts = []      # perf_counter at each trial's generate call
        self.saved = {}
        self.in_generate = False

    def __enter__(self):
        for name in self.NAMES:
            self.saved[name] = getattr(self.bench, name)
            setattr(self.bench, name, getattr(self, "_" + name))
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(self.bench, name, fn)
        return False

    def _generate(self, params, *args, **kwargs):
        self.starts.append(time.perf_counter())
        trial = {"model": None, "env": None, "runs": {},
                 "regret_s": 0.0, "worst_s": 0.0}
        self.trials.append(trial)
        self.in_generate = True
        try:
            trial["model"] = self.saved["generate"](params, *args, **kwargs)
        finally:
            self.in_generate = False
        return trial["model"]

    def _sample_env(self, *args, **kwargs):
        env = self.saved["sample_env"](*args, **kwargs)
        self.trials[-1]["env"] = env
        return env

    def _solve_regret(self, *args, **kwargs):
        t = time.perf_counter()
        result = self.saved["solve_regret"](*args, **kwargs)
        self.trials[-1]["regret_s"] += time.perf_counter() - t
        self.trials[-1]["regret_value"] = result[1]
        return result

    def _solve_worst_case(self, *args, **kwargs):
        t = time.perf_counter()
        result = self.saved["solve_worst_case"](*args, **kwargs)
        self.trials[-1]["worst_s"] += time.perf_counter() - t
        if not self.in_generate:
            self.trials[-1]["worst_value"] = result[1]
        return result

    def _run(self, strategy, *args, **kwargs):
        walk = Walk(strategy)
        runs = self.trials[-1]["runs"]
        try:
            runs[strategy.objective] = self.saved["run"](walk, *args, **kwargs)
        except self.stuck:
            runs[strategy.objective] = SimpleNamespace(path=tuple(walk.path),
                                                       cost=None)
            raise
        return runs[strategy.objective]


class MonteCarloWorkload:
    """``run_benchmark`` then ``rows_to_csv``, as ``regretplan bench`` runs
    them, on the CLI's default model shape."""

    name = "montecarlo"

    def inputs(self, rp, seed, parts):
        t = time.perf_counter()
        dfa = task_dfa(rp, TARGET_TASK)
        parts["formula.to_dfa_s"] = time.perf_counter() - t
        parts["formula.dfa_states"] = dfa.n
        return dfa, self.config(rp, seed), {}

    @staticmethod
    def config(rp, seed, trials=MC_TRIALS):
        return rp.bench.BenchConfig(states=MC_STATES, p_values=MC_P_VALUES,
                                    trials=trials, seed=mix(seed),
                                    params=rp.bench.GenParams(n_states=15))

    def run_pass(self, rp, inputs, index):
        config = inputs[1]
        start = time.perf_counter()
        with Capture(rp) as cap:
            csv_text = rp.bench.rows_to_csv(rp.bench.run_benchmark(config))
        # trial i runs from its generate call to the next one; the first
        # also carries the harness's start and the last the CSV
        bounds = [start, *cap.starts[1:], time.perf_counter()]
        units = [(t["regret_s"], t["worst_s"], end - begin)
                 for t, begin, end in zip(cap.trials, bounds, bounds[1:])]
        return PassResult(units, (config, cap.trials, csv_text))

    def check(self, rp, inputs, outputs, tally):
        dfa, _, oracle_memo = inputs
        config, trials, csv_text = outputs
        monitor = checks.monitor_for(TARGET_TASK)
        costs_by_key = {}
        per_p = len(trials) // len(config.p_values)
        for i, trial in enumerate(trials):
            m, env = trial["model"], trial["env"]
            name = f"trial {config.seed}/{i}"
            if not tally.check(m is not None and env is not None
                               and len(trial["runs"]) == 3,
                               f"{name}: trial did not run"):
                continue
            world = env.successors
            opt = checks.optimum(world, m.weights, m.labels, (m.initial,),
                                 monitor)
            costs = {}
            for kind, rec in sorted(trial["runs"].items()):
                tally.check(checks.run_ok(
                    rec.path, rec.cost, world, m.weights, m.labels,
                    m.initial, monitor), f"{name}: invalid {kind} run")
                costs[kind] = rec.cost
            if oracle_memo.get(i, (None,))[0] != m:
                oracle_memo[i] = (m, _oracle(rp, m, dfa))
            trial_view = {
                "regret_value": trial["regret_value"],
                "worst_value": trial["worst_value"],
                "oracle_value": oracle_memo[i][1],
                "costs": costs,
            }
            checks.check_trial(tally, name, trial_view, opt)
            p = f"{config.p_values[i // per_p]:.3f}"
            for kind, cost in costs.items():
                costs_by_key.setdefault((config.states[0], p, kind), []).append(cost)
        checks.check_csv(tally, f"seed {config.seed}", csv_text, costs_by_key)

    def arena_models(self, inputs, outputs):
        _, trials, _ = outputs
        return inputs[0], [t["model"] for t in trials if t["model"] is not None]


def _oracle(rp, m, dfa):
    """Brute-force optimal regret, or None when the oracle gives up."""
    try:
        return rp.oracle.brute_force_optimal_regret(
            m, dfa, choice_cap=ORACLE_STEPS)[0]
    except rp.errors.SearchSpaceTooLarge:
        return None


WORKLOADS = {
    "case_study": SolveWorkload("case_study"),
    "random_unknowns": SolveWorkload("random_unknowns"),
    "montecarlo": MonteCarloWorkload(),
}


def selftest(rp):
    """Plant one error of each kind the checkers must catch.

    Returns the planted errors that went unflagged, plus any false alarm
    on the unaltered outputs; an empty list means the checkers work.
    """
    problems = []

    def expect(label, flagged_wanted, run_check):
        tally = checks.Tally()
        run_check(tally)
        if (tally.failed > 0) != flagged_wanted:
            problems.append(label)

    solve = WORKLOADS["case_study"]
    dfa = task_dfa(rp, TARGET_TASK)
    inputs = (dfa, [make_instance(rp, "t3", rp.fixtures.t3(), TARGET_TASK)])
    (regret_value, worst_value, records), = solve.run_pass(rp, inputs, 0).outputs
    rec = max((r[0] for r in records), key=lambda r: len(r.path))
    short = SimpleNamespace(path=rec.path[:1] + rec.path[2:], cost=rec.cost)
    dropped = [[short] + r[1:] if r[0] is rec else r for r in records]
    stuck = SimpleNamespace(path=rec.path[:1], cost=None)
    needless_strand = [r[:2] + [stuck] for r in records]
    for label, wanted, out in (
        ("solve outputs flagged although correct", False,
         (regret_value, worst_value, records)),
        ("regret value off by one", True, (regret_value + 1, worst_value, records)),
        ("worst-case value off by one", True, (regret_value, worst_value + 1, records)),
        ("run with one step dropped", True, (regret_value, worst_value, dropped)),
        ("strand with a path left", True,
         (regret_value, worst_value, needless_strand)),
    ):
        expect(label, wanted, lambda t, out=out: solve.check(rp, inputs, [out], t))

    mc = WORKLOADS["montecarlo"]
    mc_inputs = (dfa, mc.config(rp, 0, trials=2), {})
    config, trials, csv_text = mc.run_pass(rp, mc_inputs, 0).outputs
    head, first, *rest = csv_text.split("\n")
    cells = first.split(",")
    cells[4] = f"{float(cells[4]) + 1:.6f}"
    altered = "\n".join([head, ",".join(cells), *rest])
    off_by_one = [dict(t) for t in trials]
    off_by_one[0]["regret_value"] += 1
    for label, wanted, out in (
        ("Monte-Carlo outputs flagged although correct", False,
         (config, trials, csv_text)),
        ("CSV mean altered", True, (config, trials, altered)),
        ("trial regret value off by one", True, (config, off_by_one, csv_text)),
    ):
        expect(label, wanted, lambda t, out=out: mc.check(rp, mc_inputs, out, t))
    return problems
