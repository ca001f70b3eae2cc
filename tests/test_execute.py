"""Strategy execution against hidden environments."""

import hashlib
import json
import math

import pytest

from regretplan import arena as ar
from regretplan import fixtures
from regretplan import model as md
from regretplan import solver as sv
from regretplan.errors import (
    IncompatibleEnvironment,
    StrategyIncomplete,
    StuckNoPath,
    TooManyUnknowns,
    UnrealizableTask,
)
from regretplan.execute import regret_of, run
from regretplan.formula import parse, to_dfa
from test_arena import play_cost
from test_formula import accepts
from test_model import check_history
from test_solver import case_study, id_of, random_models

INF = math.inf


@pytest.fixture
def t3():
    return fixtures.t3()


@pytest.fixture
def dfa():
    return to_dfa(parse("F target"), {"target"})


@pytest.fixture
def regret_strategy(t3, dfa):
    return sv.solve_regret(t3, dfa)[0]


@pytest.fixture
def worst_strategy(t3, dfa):
    return sv.solve_worst_case(t3, dfa)[0]


def test_regret_strategy_runs(t3, dfa, regret_strategy):
    rec = run(regret_strategy, t3, dfa, fixtures.t3_env_yes())
    assert (rec.cost, rec.satisfied) == (2, True)
    assert rec.path == (0, 1, 3)
    rec = run(regret_strategy, t3, dfa, fixtures.t3_env_no())
    assert (rec.cost, rec.satisfied) == (12, True)
    assert rec.path == (0, 1, 0, 2, 3)
    assert rec.knowledge_final == ((1, (0,)),)


def test_worst_strategy_runs(t3, dfa, worst_strategy):
    for env in (fixtures.t3_env_yes(), fixtures.t3_env_no()):
        rec = run(worst_strategy, t3, dfa, env)
        assert (rec.cost, rec.satisfied) == (10, True)
        assert rec.path == (0, 2, 3)


def test_run_records_history(t3, dfa, regret_strategy):
    rec = run(regret_strategy, t3, dfa, fixtures.t3_env_no())
    assert rec.history == (
        (0, (1, 2)), (1, (0,)), (0, (1, 2)), (2, (3,)), (3, (3,)))
    assert check_history(t3, rec.history)


def test_run_rejects_incompatible_env(t3, dfa, regret_strategy):
    alien = md.Wts(
        n=4,
        initial=0,
        successors=((1,), (3,), (3,), (3,)),
        weights=fixtures.t3().weights,
        labels=fixtures.t3().labels,
    )
    with pytest.raises(IncompatibleEnvironment):
        run(regret_strategy, t3, dfa, alien)


def test_run_flags_missing_decision(t3, dfa):
    empty = sv.PositionalStrategy(objective="regret", value=0, decisions={})
    with pytest.raises(StrategyIncomplete):
        run(empty, t3, dfa, fixtures.t3_env_yes())


def test_regret_of_solver_strategy(t3, dfa, regret_strategy):
    assert regret_of(regret_strategy, t3, dfa) == 2


def test_regret_of_worst_strategy(t3, dfa, worst_strategy):
    assert regret_of(worst_strategy, t3, dfa) == 8


def test_regret_of_fully_known(dfa):
    m = md.Pkwts(
        n=3,
        initial=0,
        patterns=(((1, 2),), ((2,),), ((2,),)),
        weights={(0, 1): 1, (0, 2): 9, (1, 2): 1, (2, 2): 0},
        labels=(frozenset(), frozenset(), frozenset({"target"})),
    )
    # a deliberately wasteful plan: go the expensive way
    wasteful = sv.PositionalStrategy(
        objective="worst", value=9,
        decisions={(0, 0, ()): 2, (2, 1, ()): None},
    )
    assert regret_of(wasteful, m, dfa) == 9 - 2


def test_regret_of_cap(t3, dfa, regret_strategy):
    with pytest.raises(TooManyUnknowns):
        regret_of(regret_strategy, t3, dfa, cap=0)


def test_run_cost_matches_arena_play_cost(t3, dfa, regret_strategy, worst_strategy):
    # walking the environment and walking the arena are the same thing
    arena = ar.build_ordered_arena(t3, dfa)
    for strategy in (regret_strategy, worst_strategy):
        for env in md.compatible_envs(t3):
            rec = run(strategy, t3, dfa, env)
            play = simulate_play(arena, strategy, env)
            assert play_cost(arena, play) == rec.cost
            assert [arena.vertex(v)[1] for v in play if arena.is_agent(v)] \
                == list(rec.path)


def simulate_play(arena, strategy, env):
    v = arena.v0
    play = [v]
    while True:
        vt = arena.vertex(v)
        if arena.is_agent(v):
            go = strategy.decide(vt[1], vt[2], vt[3])
            if go is None:
                return play
            v = id_of(arena, (ar.ENV, vt[1], vt[2], vt[3], go))
        else:
            xhat = vt[4]
            succs = [t for t, _ in arena.fwd[v]]
            if len(succs) == 1:
                v = succs[0]
            else:
                v = next(
                    t for t in succs
                    if obs_in_vertex(arena, t, xhat) == env.successors[xhat]
                )
        play.append(v)


def obs_in_vertex(arena, agent_vid, xhat):
    vt = arena.vertex(agent_vid)
    for s, o in vt[3]:
        if s == xhat:
            return o
    return None


def test_winning_strategies_satisfy_everywhere(t3, dfa, regret_strategy, worst_strategy):
    for strategy in (regret_strategy, worst_strategy):
        for env in md.compatible_envs(t3):
            assert run(strategy, t3, dfa, env).satisfied


def strategies_of(m, a):
    """The regret, worst-case and optimistic strategies of one model, the
    first two from one shared game; an unrealizable objective is left out."""
    game = sv.QuotientGame(m, a)
    out = []
    for solve in (sv.solve_regret, sv.solve_worst_case):
        try:
            out.append(solve(m, a, game)[0])
        except UnrealizableTask:
            pass
    return out + [sv.best_case_policy(m, a)]


def test_run_records_pinned_on_case_study_and_t3(t3, dfa):
    # every field of every record: the case study's 16 worlds and T3's two,
    # under the regret, worst-case and optimistic strategies
    digest = hashlib.sha256()
    runs = 0
    for m, a in (case_study(), (t3, dfa)):
        strategies = strategies_of(m, a)
        assert len(strategies) == 3
        for env in md.compatible_envs(m):
            for strategy in strategies:
                try:
                    text = json.dumps(run(strategy, m, a, env).to_json(),
                                      sort_keys=True)
                except StuckNoPath:
                    text = "stuck"
                digest.update(text.encode() + b"\n")
                runs += 1
    assert runs == 16 * 3 + 2 * 3
    assert digest.hexdigest() == \
        "6502f82c48afc6a097595a8b5a317f51494f4572e84f2efb396d895d7df694a8"


def test_run_record_follows_history_and_automaton(dfa):
    # the final knowledge is the first visit of each unknown state, in
    # visiting order, and satisfaction is the automaton run over the
    # path's labels; a strategy that stops at once covers unsatisfied runs
    checked = unsatisfied = 0
    for m in random_models():
        q0 = dfa.step(dfa.initial, m.labels[m.initial])
        halt = sv.PositionalStrategy(objective="worst", value=0,
                                     decisions={(m.initial, q0, ()): None})
        strategies = strategies_of(m, dfa) + [halt]
        for env in md.compatible_envs(m):
            for strategy in strategies:
                try:
                    rec = run(strategy, m, dfa, env)
                except StuckNoPath:
                    continue
                first = {}
                for x, o in rec.history:
                    if len(m.patterns[x]) > 1:
                        first.setdefault(x, o)
                assert [x for x, _ in rec.history] == list(rec.path)
                assert rec.knowledge_final == tuple(first.items())
                assert rec.satisfied == accepts(
                    dfa, [m.labels[x] for x in rec.path])
                checked += 1
                unsatisfied += not rec.satisfied
    assert checked > 100 and unsatisfied > 0
