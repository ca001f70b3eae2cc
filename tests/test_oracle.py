"""Brute-force certification of the solver on desk-scale instances."""

import gc
import math
import weakref

import pytest

from regretplan import arena as ar
from regretplan import fixtures
from regretplan import model as md
from regretplan import oracle as orc
from regretplan import solver as sv
from regretplan.errors import SearchSpaceTooLarge
from regretplan.execute import regret_of, run
from regretplan.formula import parse, to_dfa

INF = math.inf


@pytest.fixture
def t3():
    return fixtures.t3()


@pytest.fixture
def dfa():
    return to_dfa(parse("F target"), {"target"})


def test_oracle_t3_value_and_strategy(t3, dfa):
    value, strategy, evaluated = orc.brute_force_optimal_regret(t3, dfa)
    assert value == 2
    assert evaluated >= 1
    assert strategy.decide(0, 0, ()) == 1  # the explore strategy
    assert regret_of(strategy, t3, dfa) == 2


def test_oracle_fully_known_zero(dfa):
    m = md.Pkwts(
        n=3,
        initial=0,
        patterns=(((1,),), ((2,),), ((2,),)),
        weights={(0, 1): 2, (1, 2): 3, (2, 2): 0},
        labels=(frozenset(), frozenset(), frozenset({"target"})),
    )
    value, strategy, _ = orc.brute_force_optimal_regret(m, dfa)
    assert value == 0
    assert run(strategy, m, dfa, list(md.compatible_envs(m))[0]).cost == 5


def test_oracle_unrealizable(dfa):
    m = md.Pkwts(
        n=3,
        initial=0,
        patterns=(((1,),), ((2,), (1,)), ((2,),)),
        weights={(0, 1): 1, (1, 2): 1, (1, 1): 1, (2, 2): 0},
        labels=(frozenset(), frozenset(), frozenset({"target"})),
    )
    value, strategy, _ = orc.brute_force_optimal_regret(m, dfa)
    assert value == INF
    assert strategy is None


def test_oracle_caps(t3, dfa):
    with pytest.raises(SearchSpaceTooLarge):
        orc.brute_force_optimal_regret(t3, dfa, vertex_cap=4)
    with pytest.raises(SearchSpaceTooLarge):
        orc.brute_force_optimal_regret(t3, dfa, unknown_cap=0)
    with pytest.raises(SearchSpaceTooLarge):
        orc.brute_force_optimal_regret(t3, dfa, choice_cap=1)


def test_oracle_frees_its_arena_without_the_cycle_collector(t3, dfa, monkeypatch):
    # the enumeration closure refers to itself; unless that cycle is
    # broken, the arena it holds lives until the next cyclic collection
    refs = []

    def build_ordered_arena(*args, **kwargs):
        arena = ar.build_ordered_arena(*args, **kwargs)
        refs.append(weakref.ref(arena))
        return arena

    monkeypatch.setattr(orc, "build_ordered_arena", build_ordered_arena)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert orc.brute_force_optimal_regret(t3, dfa)[0] == 2
        assert refs[-1]() is None
        try:
            orc.brute_force_optimal_regret(t3, dfa, choice_cap=3)
        except SearchSpaceTooLarge:
            pass
        else:
            pytest.fail("choice cap not enforced")
        assert len(refs) == 2 and refs[-1]() is None
    finally:
        if enabled:
            gc.enable()


def test_solver_matches_oracle_on_t3(t3, dfa):
    _, solver_value = sv.solve_regret(t3, dfa)
    oracle_value, _, _ = orc.brute_force_optimal_regret(t3, dfa)
    assert solver_value == oracle_value


# ---------------------------------------------------------------------------
# bound linking regret and best responses

def test_regret_bound_regret_strategy(t3, dfa):
    strategy, _ = sv.solve_regret(t3, dfa)
    report = orc.check_regret_bound(strategy, t3, dfa)
    assert report.consistent
    assert not report.violations
    # tight in both environments for the optimal explorer
    assert all(e["slack"] == 0 for e in report.entries)
    assert report.max_regret == 2


def test_regret_bound_worst_strategy(t3, dfa):
    strategy, _ = sv.solve_worst_case(t3, dfa)
    report = orc.check_regret_bound(strategy, t3, dfa)
    assert report.consistent
    assert report.max_regret == 8
    by_env = {e["env"]: e for e in report.entries}
    assert by_env[0]["slack"] == 0          # shortcut world: bound is tight
    assert by_env[0]["bound"] == 10 - 2
    assert by_env[1]["slack"] == 8          # blocked world: bound is loose


def test_regret_bound_fully_known(dfa):
    m = md.Pkwts(
        n=2,
        initial=0,
        patterns=(((1,),), ((1,),)),
        weights={(0, 1): 3, (1, 1): 0},
        labels=(frozenset(), frozenset({"target"})),
    )
    strategy, _ = sv.solve_regret(m, dfa)
    report = orc.check_regret_bound(strategy, m, dfa)
    assert report.consistent
    assert report.max_regret == 0
    assert report.max_bound == 0


# ---------------------------------------------------------------------------
# positional strategies suffice (bounded-memory spot check)

def lookback_optimal_regret(m, dfa):
    """Minimum regret over strategies that may also condition on the
    previous agent vertex (one step of memory)."""
    arena = ar.build_ordered_arena(m, dfa)
    envs = list(md.compatible_envs(m))
    opts = [md.shortest_satisfying_cost(t, dfa) for t in envs]
    accepting = set(arena.accepting)
    move = [orc._env_move_table(arena, t) for t in envs]

    decisions = {}
    costs = []
    best = [INF]

    def advance(env_idx, v, prev_agent, cost, visited):
        if v in visited:
            return
        if not arena.is_agent(v):
            nv, w = move[env_idx][v]
            advance(env_idx, nv, prev_agent, cost + w, visited | {v})
            return
        if v in accepting:
            costs.append(cost)
            if env_idx + 1 == len(envs):
                best[0] = min(best[0], max(c - o for c, o in zip(costs, opts)))
            else:
                advance(env_idx + 1, arena.v0, None, 0, frozenset())
            costs.pop()
            return
        key = (prev_agent, v)
        if key in decisions:
            advance(env_idx, decisions[key], v, cost, visited | {v})
            return
        for t, _ in arena.fwd[v]:
            decisions[key] = t
            advance(env_idx, t, v, cost, visited | {v})
            del decisions[key]

    advance(0, arena.v0, None, 0, frozenset())
    return best[0]


def test_memory_does_not_beat_positional(t3, dfa):
    positional, _, _ = orc.brute_force_optimal_regret(t3, dfa)
    with_memory = lookback_optimal_regret(t3, dfa)
    assert with_memory == positional
