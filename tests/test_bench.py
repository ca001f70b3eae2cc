"""Random generation, environment sampling, and the comparison harness."""

import hashlib
import importlib
import math
from random import Random

import pytest

from regretplan import bench, fixtures
from regretplan import model as md
from regretplan import solver as sv
from regretplan.execute import regret_of, run
from regretplan.formula import parse, to_dfa
from regretplan.grid import grid_compile


DFA = to_dfa(parse("F target"), {"target"})


def test_generate_deterministic():
    params = bench.GenParams(n_states=8, n_possible=2, seed=11)
    m1 = bench.generate(params)
    m2 = bench.generate(params)
    assert m1.patterns == m2.patterns
    assert m1.weights == m2.weights
    assert m1.labels == m2.labels


def test_generate_no_possible_transitions_is_fully_known():
    m = bench.generate(bench.GenParams(n_states=6, n_possible=0, seed=3))
    assert m.fully_known


# (shape, candidates drawn): paper defaults, one successor, several
# targets, every non-initial state unknown on small models, more unknowns
CANDIDATE_SHAPES = (
    (dict(n_states=15), 40),
    (dict(n_states=10, max_succ=1), 40),
    (dict(n_states=12, n_targets=3, max_succ=3), 40),
    (dict(n_states=6, n_targets=5), 40),
    (dict(n_states=2, n_possible=1), 40),
    (dict(n_states=3, n_possible=2), 40),
    (dict(n_states=4, n_possible=3, max_succ=3), 40),
    (dict(n_states=5, n_possible=4), 20),
    (dict(n_states=8, n_possible=4), 5),
)


def test_generate_paper_defaults_realizable():
    params = bench.GenParams(n_states=15, seed=1)
    m = bench.generate(params)
    assert len(m.unknown_states) == 2
    # the guaranteed part of each state keeps within the successor bounds
    for x in range(m.n):
        base = min(m.patterns[x], key=len)
        assert 1 <= len(base) <= 2
    # generate returns its first candidate without solving it: a
    # worst-case solve of every candidate checks that each one is winnable
    for shape, draws in CANDIDATE_SHAPES:
        shape_params = bench.GenParams(seed=0, **shape)
        rng = Random(17)
        drawn = [bench._candidate(rng, shape_params) for _ in range(draws)]
        candidates = [c for c in drawn if c is not None]
        if shape_params.n_states == 2:
            # state 1's only successor is state 0: none is left to make
            # optional
            assert candidates == []
            continue
        assert candidates, shape
        for c in candidates:
            assert len(c.unknown_states) == shape_params.n_possible
            sv.solve_worst_case(c, DFA)  # must not raise


def test_run_benchmark_builds_one_arena_per_trial(monkeypatch):
    # both objectives share one quotient game per trial; generating the
    # model builds none
    builds, models = [], []
    generate = bench.generate

    class CountingBuild(sv.CutBuild):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    def recording_generate(*args):
        models.append(generate(*args))
        return models[-1]

    monkeypatch.setattr(sv, "CutBuild", CountingBuild)
    monkeypatch.setattr(bench, "generate", recording_generate)
    config = bench.BenchConfig(states=(8,), p_values=(0.5,), trials=6, seed=3)
    bench.run_benchmark(config)
    assert len(models) == 6
    assert len(builds) == len(models)


# the library names perfbench looks up at call time, per module
PERFBENCH_NAMES = {
    "solver": ("build_arena", "solve_regret", "solve_worst_case",
               "best_case_policy"),
    "bench": ("generate", "sample_env", "solve_regret", "solve_worst_case",
              "run", "run_benchmark", "rows_to_csv"),
    "execute": ("run",),
    "oracle": ("brute_force_optimal_regret",),
    "errors": ("StuckNoPath", "SearchSpaceTooLarge"),
}


def test_every_name_perfbench_reaches_exists():
    # a renamed entry point would make a traced benchmark run fail with an
    # AttributeError; its arena allocation peak builds what the solvers do
    for module, names in PERFBENCH_NAMES.items():
        mod = importlib.import_module(f"regretplan.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), (module, name)
    m = grid_compile(fixtures.CASE_STUDY_GRID)
    a = to_dfa(parse(fixtures.CASE_STUDY_TASK), {"fire", "extinguisher"})
    assert sv.build_arena(m, a).n == 4_391


def test_generate_connected_skeleton():
    m = bench.generate(bench.GenParams(n_states=10, n_possible=2, seed=5))
    sk = md.skeleton(m)
    dist = dict(md.dijkstra(
        {x: tuple((y, 1) for y in sk.successors[x]) for x in range(m.n)}, 0))
    assert set(dist) == set(range(m.n))


def test_sample_env_extremes_on_t3():
    t3 = fixtures.t3()
    best_world = bench.sample_env(t3, 0.0, seed=1)
    worst_world = bench.sample_env(t3, 1.0, seed=1)
    assert best_world.successors == fixtures.t3_env_yes().successors
    assert worst_world.successors == fixtures.t3_env_no().successors


def test_sample_env_deterministic():
    t3 = fixtures.t3()
    a = bench.sample_env(t3, 0.5, seed=42)
    b = bench.sample_env(t3, 0.5, seed=42)
    assert a.successors == b.successors
    assert md.is_compatible(a, t3)


def test_t3_closed_form_sweep():
    t3 = fixtures.t3()
    regret_strategy, _ = sv.solve_regret(t3, DFA)
    worst_strategy, _ = sv.solve_worst_case(t3, DFA)
    best = sv.best_case_policy(t3, DFA)
    expected = {0.0: {"regret": 2, "worst": 10, "best": 2},
                1.0: {"regret": 12, "worst": 10, "best": 12}}
    for p, by_name in expected.items():
        env = bench.sample_env(t3, p, seed=0)
        assert run(regret_strategy, t3, DFA, env).cost == by_name["regret"]
        assert run(worst_strategy, t3, DFA, env).cost == by_name["worst"]
        assert run(best, t3, DFA, env).cost == by_name["best"]


def test_best_case_mean_monotone_on_t3():
    # optional edges only shorten paths here, so more obstacles never help
    t3 = fixtures.t3()
    best = sv.best_case_policy(t3, DFA)
    costs = []
    for p in (0.0, 0.5, 1.0):
        env = bench.sample_env(t3, p, seed=7)
        costs.append(run(best, t3, DFA, env).cost)
    assert costs == sorted(costs)


def test_sampled_runs_respect_solver_bounds():
    # realized costs never exceed the worst-case value; realized regret
    # never exceeds the solver's regret value
    for seed in range(5):
        m = bench.generate(bench.GenParams(n_states=7, n_possible=2,
                                           min_cost=1, max_cost=9, seed=seed))
        regret_strategy, reg_value = sv.solve_regret(m, DFA)
        worst_strategy, worst_value = sv.solve_worst_case(m, DFA)
        for env_seed in range(3):
            env = bench.sample_env(m, 0.5, seed=env_seed)
            assert run(worst_strategy, m, DFA, env).cost <= worst_value
            realized = run(regret_strategy, m, DFA, env).cost
            assert realized - md.shortest_satisfying_cost(env, DFA) <= reg_value
        assert regret_of(regret_strategy, m, DFA) == reg_value


def test_run_benchmark_shape_and_determinism():
    config = bench.BenchConfig(
        states=(6,),
        p_values=(0.0, 1.0),
        trials=3,
        seed=9,
        params=bench.GenParams(n_states=2, n_possible=1, min_cost=1, max_cost=9),
    )
    rows1 = bench.run_benchmark(config)
    rows2 = bench.run_benchmark(config)
    assert rows1 == rows2
    assert len(rows1) == 2 * 3  # (p values) x (strategies)
    csv1 = bench.rows_to_csv(rows1)
    assert csv1 == bench.rows_to_csv(rows2)
    header = csv1.splitlines()[0]
    assert header == "states,p,trial_count,strategy,mean_cost,stderr,skips"


def test_run_benchmark_csv_golden_digest():
    # the bench CSV is part of the contract, byte for byte
    config = bench.BenchConfig(states=(15,), p_values=(0.2, 0.5, 0.8),
                               trials=20, seed=7)
    csv = bench.rows_to_csv(bench.run_benchmark(config))
    assert hashlib.sha256(csv.encode()).hexdigest() == \
        "a9708f26d39486decae9d3f6b9077d07449b5800dc998de87596c8f90ddc642f"


def test_bench_config_checks_every_state_count_at_construction():
    # each state count meets GenParams' checks before any trial runs
    with pytest.raises(ValueError, match="at least two states"):
        bench.BenchConfig(states=(15, 1), p_values=(0.5,), trials=30)
    with pytest.raises(ValueError, match="too many unknown states"):
        bench.BenchConfig(states=(15, 5), p_values=(0.5,), trials=1,
                          params=bench.GenParams(n_states=15, n_possible=10))


def test_run_benchmark_single_trial_best_vs_worst():
    # with no obstacles, the optimist never pays more than the pessimist
    config = bench.BenchConfig(
        states=(6,),
        p_values=(0.0,),
        trials=1,
        seed=2,
        params=bench.GenParams(n_states=2, n_possible=1, min_cost=1, max_cost=9),
    )
    rows = {r["strategy"]: r for r in bench.run_benchmark(config)}
    assert rows["best"]["mean_cost"] <= rows["worst"]["mean_cost"]
