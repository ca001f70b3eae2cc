"""Acceptance suite: one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import json
import math
import time

import pytest

from regretplan import arena as ar
from regretplan import bench, fixtures
from regretplan import grid as gr
from regretplan import model as md
from regretplan import oracle as orc
from regretplan import solver as sv
from regretplan.cli import main
from regretplan.errors import SearchSpaceTooLarge
from regretplan.execute import regret_of, run
from regretplan.formula import parse, to_dfa

INF = math.inf

TARGET_DFA = to_dfa(parse("F target"), {"target"})

N_INSTANCES = 300


def _instance_params(seed):
    return bench.GenParams(
        n_states=5 + seed % 4,          # 5..8 states
        n_possible=seed % 3,            # 0..2 unknown states
        min_succ=1,
        max_succ=2,
        min_cost=1,
        max_cost=9,
        n_targets=1,
        seed=seed,
    )


@pytest.fixture(scope="module")
def instance_suite():
    """Criterion-1 corpus: generated models with their solver and oracle
    results, reused by the property criteria."""
    instances = []
    seed = 0
    skipped = 0
    t0 = time.time()
    while len(instances) < N_INSTANCES:
        params = _instance_params(seed)
        seed += 1
        m = bench.generate(params)
        strategy, value = sv.solve_regret(m, TARGET_DFA)
        try:
            oracle_value, _, _ = orc.brute_force_optimal_regret(m, TARGET_DFA)
        except SearchSpaceTooLarge:
            skipped += 1
            continue
        instances.append((m, strategy, value, oracle_value))
    elapsed = time.time() - t0
    return instances, skipped, elapsed


def test_criterion_1_oracle_equivalence(instance_suite):
    instances, skipped, elapsed = instance_suite
    mismatches = [
        (i, value, oracle_value)
        for i, (_, _, value, oracle_value) in enumerate(instances)
        if value != oracle_value
    ]
    assert not mismatches, mismatches
    assert elapsed < 300, f"suite took {elapsed:.1f}s, budget is 5 minutes"
    print(f"\nACCEPTANCE 1 PASS: solver == oracle on {len(instances)} instances "
          f"({skipped} beyond oracle caps skipped) in {elapsed:.1f}s")


def test_criterion_2_t3_ledger():
    t3 = fixtures.t3()
    regret_strategy, regret_value = sv.solve_regret(t3, TARGET_DFA)
    worst_strategy, worst_value = sv.solve_worst_case(t3, TARGET_DFA)
    best = sv.best_case_policy(t3, TARGET_DFA)

    assert regret_value == 2
    assert worst_value == 10
    assert worst_strategy.decide(0, 0, ()) == 2  # the direct plan

    envs = (fixtures.t3_env_yes(), fixtures.t3_env_no())
    assert [run(regret_strategy, t3, TARGET_DFA, t).cost for t in envs] == [2, 12]
    assert [run(worst_strategy, t3, TARGET_DFA, t).cost for t in envs] == [10, 10]
    assert [run(best, t3, TARGET_DFA, t).cost for t in envs] == [2, 12]
    assert regret_of(worst_strategy, t3, TARGET_DFA) == 8
    print("\nACCEPTANCE 2 PASS: T3 ledger matches exactly "
          "(2 / 10; {2,12} {10,10} {2,12}; worst regret 8)")


def test_criterion_3_fig1_reconstruction():
    m = gr.grid_compile(fixtures.FIG1_GRID)
    dfa = to_dfa(parse(fixtures.FIG1_TASK), {"f"})
    regret_strategy, _ = sv.solve_regret(m, dfa)
    worst_strategy, _ = sv.solve_worst_case(m, dfa)
    wall_absent = bench.sample_env(m, 0.0, seed=0)
    wall_present = bench.sample_env(m, 1.0, seed=0)

    deltas = {}
    for name, env in (("absent", wall_absent), ("present", wall_present)):
        w = run(worst_strategy, m, dfa, env)
        r = run(regret_strategy, m, dfa, env)
        deltas[name] = w.cost - r.cost
        first_unknown = next(x for x in r.path if x in m.unknown_states)
        assert first_unknown == 9  # the approach-side cell of the wall
    assert deltas == {"absent": 7, "present": -2}
    print("\nACCEPTANCE 3 PASS: map fixture deltas are +7 (wall absent) and "
          "-2 (wall present); exploration starts at the approach cell")


def test_criterion_4_property_suite(instance_suite):
    instances, _, _ = instance_suite
    checked_fully_known = 0
    for idx, (m, strategy, value, _) in enumerate(instances):
        report = orc.check_regret_bound(strategy, m, TARGET_DFA)
        assert report.bound_holds, (idx, report.violations)
        assert report.equality_attained, (idx, report.violations)
        assert report.max_regret == report.max_bound == value, idx

        # every play of the regret strategy is a cheapest play to its
        # final vertex: true on this F target suite, not in general (see
        # test_regret_counterexample_to_shortest_play_reduction)
        arena = ar.build_arena(m, TARGET_DFA)
        dist = dict(md.dijkstra(dict(enumerate(arena.fwd)), arena.v0))
        for env in md.compatible_envs(m):
            rec = run(strategy, m, TARGET_DFA, env)
            assert rec.satisfied, (idx, "strategy not winning")
            final = arena.id_of(
                ("a", rec.path[-1],
                 _dfa_state_after(m, rec.path),
                 rec.knowledge_final.suffix)
            )
            assert rec.cost == dist[final], (idx, "play is not a cheapest play")

        if m.fully_known:
            checked_fully_known += 1
            assert value == 0, idx
            env = list(md.compatible_envs(m))[0]
            rec = run(strategy, m, TARGET_DFA, env)
            assert rec.cost == md.shortest_satisfying_cost(env, TARGET_DFA), idx
    assert checked_fully_known > 0
    print(f"\nACCEPTANCE 4 PASS: bound/tightness, cheapest-play equality, and "
          f"winning checks hold on all {len(instances)} instances "
          f"({checked_fully_known} fully known)")


def _dfa_state_after(m, path):
    q = TARGET_DFA.initial
    for x in path:
        q = TARGET_DFA.step(q, m.labels[x])
    return q


TABLE_SCALE = {15: 76, 20: 124, 30: 133, 50: 540, 80: 827, 100: 2520}


def test_criterion_5_arena_size_bounds(instance_suite):
    instances, _, _ = instance_suite
    for idx, (m, _, _, _) in enumerate(instances[:50]):
        arena = ar.build_arena(m, TARGET_DFA)
        assert arena.n <= ar.size_bound(m, TARGET_DFA), idx

    for n_states, reference in TABLE_SCALE.items():
        for seed in range(3):
            params = bench.GenParams(
                n_states=n_states, n_possible=1, min_succ=1, max_succ=2,
                min_cost=2, max_cost=5, n_targets=1, seed=seed)
            m = bench.generate(params)
            arena = ar.build_arena(m, TARGET_DFA)
            assert arena.n <= ar.size_bound(m, TARGET_DFA)
            assert arena.n <= 10 * reference, (n_states, seed, arena.n)
    print("\nACCEPTANCE 5 PASS: every arena respects the factorial bound; "
          "single-unknown arenas stay within 10x the reference scale")


def test_criterion_6_benchmark_shape():
    t0 = time.time()
    config = bench.BenchConfig(
        states=(15,),
        p_values=tuple(i / 10 for i in range(11)),
        trials=100,
        seed=7,
        params=bench.GenParams(n_states=15),
    )
    rows = bench.run_benchmark(config)
    elapsed = time.time() - t0
    means = {}
    for row in rows:
        means.setdefault(row["strategy"], {})[row["p"]] = row["mean_cost"]
    spreads = {
        name: max(series.values()) - min(series.values())
        for name, series in means.items()
    }
    assert spreads["best"] == max(spreads.values()), spreads
    assert means["regret"][0.0] <= means["worst"][0.0], means
    assert means["worst"][1.0] <= means["best"][1.0], means
    assert elapsed < 600, f"benchmark took {elapsed:.1f}s, budget is 10 minutes"
    print(f"\nACCEPTANCE 6 PASS: cost curves have the expected shape "
          f"(spreads {spreads}) in {elapsed:.1f}s")


def test_criterion_7_dfa_suite():
    import itertools

    from tests.test_formula import FIXTURES, all_words, distinguishable
    import regretplan.formula as fm

    for text, atoms, ref in FIXTURES:
        dfa = to_dfa(parse(text), atoms)
        agree = 0
        for word in all_words(atoms, 5):
            assert dfa.accepts(word) == ref.accepts(word), (text, word)
            agree += 1
        letters = dfa.letters()
        for word in all_words(atoms, 3):
            if dfa.accepts(word):
                for sigma in letters:
                    assert dfa.accepts(list(word) + [sigma])
        for q1 in range(dfa.n):
            for q2 in range(q1 + 1, dfa.n):
                assert distinguishable(dfa, q1, q2), (text, q1, q2)
    print("\nACCEPTANCE 7 PASS: reference-automaton agreement is exhaustive "
          "through length 5; closure and minimality hold")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    model_file = tmp_path / "t3.json"
    model_file.write_text(json.dumps(md.model_to_json(fixtures.t3())))
    env_file = tmp_path / "env.json"
    env_file.write_text(json.dumps(md.wts_to_json(fixtures.t3_env_no())))
    map_file = tmp_path / "fig1.grid"
    map_file.write_text(fixtures.FIG1_GRID)

    invocations = [
        ["compile", "F target", "--atoms", "target"],
        ["grid", str(map_file)],
        ["solve", str(model_file), "--task", "F target"],
        ["solve", str(model_file), "--task", "F target", "--objective", "worst"],
        ["oracle", str(model_file), "--task", "F target"],
        ["arena", str(model_file), "--task", "F target"],
        ["bench", "--states", "6", "--p", "0,0.5,1", "--trials", "2",
         "--seed", "7", "--possible", "1", "--max-cost", "9"],
    ]
    for base in invocations:
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"out_{attempt}"
            assert main(base + ["-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1], base

    strategy_file = tmp_path / "strategy.json"
    main(["solve", str(model_file), "--task", "F target",
          "-o", str(strategy_file)])
    capsys.readouterr()
    recs = []
    for attempt in range(2):
        out = tmp_path / f"rec_{attempt}"
        assert main(["exec", str(strategy_file), str(model_file),
                     str(env_file), "-o", str(out)]) == 0
        recs.append(out.read_bytes())
    assert recs[0] == recs[1]
    print("\nACCEPTANCE 8 PASS: repeated seeded invocations give "
          "byte-identical outputs")
