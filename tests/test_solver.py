"""Regret, worst-case, and best-case synthesis on the T3 scenario."""

import hashlib
import heapq
import inspect
import json
import logging
import math
from collections import deque
from dataclasses import replace
from random import Random

import pytest

from regretplan import arena as ar
from regretplan import bench, fixtures
from regretplan import grid as gr
from regretplan import model as md
from regretplan import oracle as orc
from regretplan import solver as sv
from regretplan.errors import SearchSpaceTooLarge, StuckNoPath, UnrealizableTask
from regretplan.execute import regret_of, run
from regretplan.formula import parse, to_dfa
from test_grid import grid_plus
from test_model import refine, skeleton

INF = math.inf

SFX_YES = ((1, (3,)),)
SFX_NO = ((1, (0,)),)


@pytest.fixture
def t3():
    return fixtures.t3()


@pytest.fixture
def dfa():
    return to_dfa(parse("F target"), {"target"})


@pytest.fixture
def t3_arena(t3, dfa):
    return ar.build_ordered_arena(t3, dfa)


def fully_known_line():
    return md.Pkwts(
        n=3,
        initial=0,
        patterns=(((1,),), ((2,),), ((2,),)),
        weights={(0, 1): 2, (1, 2): 3, (2, 2): 0},
        labels=(frozenset(), frozenset(), frozenset({"target"})),
    )


def trap_model():
    # exploring the unknown state may reveal a trap with no route to the
    # target, so no strategy can win in every compatible environment
    return md.Pkwts(
        n=3,
        initial=0,
        patterns=(((1,),), ((2,), (1,)), ((2,),)),
        weights={(0, 1): 1, (1, 2): 1, (1, 1): 1, (2, 2): 0},
        labels=(frozenset(), frozenset(), frozenset({"target"})),
    )


# ---------------------------------------------------------------------------
# best response

def test_best_response_initial_knowledge(t3, dfa):
    assert sv.BestResponse(t3, dfa)(()) == 2


def test_best_response_after_bad_news(t3, dfa):
    assert sv.BestResponse(t3, dfa)(SFX_NO) == 10


def test_best_response_fully_known(dfa):
    m = fully_known_line()
    assert sv.BestResponse(m, dfa)(()) == 5


def test_best_response_stops_at_the_all_worlds_record(dfa):
    # unknown state 1 leads to the target (cost 2) in one pattern, and to
    # a 20-cost detour through 3 and 4 in both, so U = 22; a 31-cost
    # route through 5 is never reached: the search stops at the record
    # that allows every world, and nothing settles past it
    m = md.Pkwts(
        n=6,
        initial=0,
        patterns=(((1, 5),), ((2, 3), (3,)), ((2,),), ((4,),), ((2,),),
                  ((2,),)),
        weights={(0, 1): 1, (1, 2): 1, (1, 3): 1, (3, 4): 10, (4, 2): 10,
                 (2, 2): 0, (0, 5): 30, (5, 2): 1},
        labels=(frozenset(), frozenset(), frozenset({"target"}),
                frozenset(), frozenset(), frozenset()),
    )
    assert sv.QuotientGame(m, dfa).bounds()[0] == 22
    # search vertex -> distance, keyed by x and whether masks are full
    distance = {(0, True): 0, (1, True): 1, (2, False): 2, (3, True): 2,
                (4, True): 12, (2, True): 22}

    class Recording(sv.BestResponse):
        def get(self, u, default=None):
            self.expanded.append(distance[u[0], u[2] == self.full])
            return super().get(u, default)

    br = Recording(m, dfa)
    br.expanded = []
    assert br(()) == 2
    assert br(((1, (3,)),)) == 22
    only_first = br.full & ~br.own[1] | 1 << br.bit[1]
    assert br.records == [(2, only_first), (22, br.full)]
    assert sorted(br.expanded) == [0, 1, 2, 2, 12]
    assert (br.searches, br.settled) == (1, 6)


# ---------------------------------------------------------------------------
# the paper's shortest-play reduction, kept as a test-side reference

def test_esp_contains_both_routes(t3_arena):
    edges, _ = reference_e_sp(t3_arena)
    v0 = t3_arena.v0
    commit_s1 = id_of(t3_arena, (ar.ENV, 0, 0, (), 1))
    commit_s2 = id_of(t3_arena, (ar.ENV, 0, 0, (), 2))
    assert edge_slot(t3_arena, v0, commit_s1) in edges
    assert edge_slot(t3_arena, v0, commit_s2) in edges


def test_esp_excludes_strictly_longer_detour(t3_arena):
    edges, _ = reference_e_sp(t3_arena)
    # re-committing to the explored state 1 after bouncing back is never
    # on a cheapest play to any final vertex
    env_retry = id_of(t3_arena, (ar.ENV, 0, 0, SFX_NO, 1))
    agent_retry = id_of(t3_arena, (ar.AGENT, 1, 0, SFX_NO))
    retry = edge_slot(t3_arena, env_retry, agent_retry)
    assert retry is not None
    assert retry not in edges


def test_esp_linear_chain_all_edges(dfa):
    m = fully_known_line()
    arena = ar.build_ordered_arena(m, dfa)
    edges, _ = reference_e_sp(arena)
    chain = [
        id_of(arena, (ar.AGENT, 0, 0, ())),
        id_of(arena, (ar.ENV, 0, 0, (), 1)),
        id_of(arena, (ar.AGENT, 1, 0, ())),
        id_of(arena, (ar.ENV, 1, 0, (), 2)),
        id_of(arena, (ar.AGENT, 2, 1, ())),
    ]
    for u, v in zip(chain, chain[1:]):
        assert edge_slot(arena, u, v) in edges


def test_esp_unrealizable_raises():
    m = md.Pkwts(
        n=2,
        initial=0,
        patterns=(((1,),), ((1,),)),
        weights={(0, 1): 1, (1, 1): 1},
        labels=(frozenset(), frozenset()),
    )
    dfa = to_dfa(parse("F target"), {"target"})
    arena = ar.build_ordered_arena(m, dfa)
    with pytest.raises(UnrealizableTask):
        reference_e_sp(arena)


def mu_for(t3, dfa, t3_arena):
    return reference_mu(t3_arena, sv.BestResponse(t3, dfa))


def test_mu_values_on_final_edges(t3, dfa, t3_arena):
    mu = mu_for(t3, dfa, t3_arena)
    f_short = id_of(t3_arena, (ar.AGENT, 3, 1, SFX_YES))
    f_detour = id_of(t3_arena, (ar.AGENT, 3, 1, SFX_NO))
    f_direct = id_of(t3_arena, (ar.AGENT, 3, 1, ()))
    into = lambda f: next(e for e, (u, v, _) in enumerate(t3_arena.edges())
                          if v == f and not t3_arena.is_agent(u))
    assert mu[into(f_short)] == 0
    assert mu[into(f_detour)] == 2
    assert mu[into(f_direct)] == 8


def test_mu_nonnegative_and_zero_on_agent_edges(t3, dfa, t3_arena):
    mu = mu_for(t3, dfa, t3_arena)
    assert len(mu) == len(t3_arena.dst)
    for (u, v, _), val in zip(t3_arena.edges(), mu):
        assert val >= 0
        if t3_arena.is_agent(u):
            assert val == 0


# ---------------------------------------------------------------------------
# min-max game solve

def zero(v):
    return 0


def regret_terminal(m, a, arena):
    """Minus the best response of each accepting vertex's knowledge."""
    br = sv.BestResponse(m, a)
    return lambda v: -br(arena.suffixes[arena.sfx[v]])


def move(arena, result, v):
    """The solved move of agent vertex v, as the strategy walk picks it:
    None if v is accepting."""
    if v in arena.accepting:
        return None
    return sv._best_move(arena, result.values, v)


def test_minmax_value_zero_when_start_accepting(dfa):
    m = md.Pkwts(
        n=2,
        initial=0,
        patterns=(((1,),), ((1,),)),
        weights={(0, 1): 1, (1, 1): 1},
        labels=(frozenset({"target"}), frozenset()),
    )
    arena = ar.build_ordered_arena(m, dfa)
    result = sv.solve_minmax(arena, zero)
    assert result.values[arena.v0] == 0
    assert move(arena, result, arena.v0) is None


def test_minmax_regret_objective(t3, dfa, t3_arena):
    # accepting vertices hold minus the best response of their knowledge:
    # -2 after the shortcut is seen, -10 after the wall, -2 with none seen
    terminal = regret_terminal(t3, dfa, t3_arena)
    f_short = id_of(t3_arena, (ar.AGENT, 3, 1, SFX_YES))
    f_detour = id_of(t3_arena, (ar.AGENT, 3, 1, SFX_NO))
    f_direct = id_of(t3_arena, (ar.AGENT, 3, 1, ()))
    assert [terminal(f) for f in (f_short, f_detour, f_direct)] == [-2, -10, -2]
    result = sv.solve_minmax(t3_arena, terminal)
    assert result.values[t3_arena.v0] == 2
    commit_s1 = id_of(t3_arena, (ar.ENV, 0, 0, (), 1))
    assert move(t3_arena, result, t3_arena.v0) == commit_s1


def test_minmax_worst_objective(t3, dfa, t3_arena):
    result = sv.solve_minmax(t3_arena, zero)
    assert result.values[t3_arena.v0] == 10
    commit_s2 = id_of(t3_arena, (ar.ENV, 0, 0, (), 2))
    assert move(t3_arena, result, t3_arena.v0) == commit_s2


def test_minmax_plays_stop_at_first_accepting_vertex(dfa):
    # 0 -> 1 (target) -> 2 (target): the play stops at state 1, so a
    # cheaper terminal value one move further on must not leak back
    m = md.Pkwts(
        n=3,
        initial=0,
        patterns=(((1,),), ((2,),), ((2,),)),
        weights={(0, 1): 1, (1, 2): 1, (2, 2): 0},
        labels=(frozenset(), frozenset({"target"}), frozenset({"target"})),
    )
    arena = ar.build_ordered_arena(m, dfa)
    result = sv.solve_minmax(arena, lambda v: -100 if arena.x[v] == 2 else 0)
    assert result.values[arena.v0] == 1
    first = id_of(arena, (ar.AGENT, 1, 1, ()))
    assert (result.values[first], move(arena, result, first)) == (0, None)


def test_minmax_settles_exactly_the_vertices_up_to_the_root_value(dfa):
    # each vertex settles at most once, and the solve stops past the
    # root's value: it settles exactly the vertices valued at most the
    # root's, or every finite vertex when the root is INF
    cases = [(m, dfa) for m in (fixtures.t3(), trap_model())] + [case_study()]
    cases += [(m, dfa) for m in random_models()]
    stopped = unrealizable = 0
    for m, a in cases:
        arena = ar.build_arena(m, a)
        for terminal in (zero, regret_terminal(m, a, arena)):
            result = sv.solve_minmax(arena, terminal)
            ref, _ = reference_minmax(arena, arena.wt, terminal)
            root = ref[arena.v0]
            if root < INF:
                expected = sum(value <= root for value in ref)
            else:
                expected = sum(value < INF for value in ref)
                unrealizable += 1
            assert result.sweeps == expected
            stopped += expected < sum(value < INF for value in ref)
    assert stopped >= 10 and unrealizable >= 1, (stopped, unrealizable)


# ---------------------------------------------------------------------------
# end-to-end objectives

def test_solve_regret_t3(t3, dfa):
    strategy, value = sv.solve_regret(t3, dfa)
    assert value == 2
    assert strategy.decide(0, 0, ()) == 1  # explore the unknown state first


def test_solve_regret_fully_known(dfa):
    m = fully_known_line()
    strategy, value = sv.solve_regret(m, dfa)
    assert value == 0
    rec = run(strategy, m, dfa, list(md.compatible_envs(m))[0])
    assert rec.cost == 5
    assert rec.path == (0, 1, 2)


def test_solve_regret_unrealizable(dfa):
    with pytest.raises(UnrealizableTask):
        sv.solve_regret(trap_model(), dfa)


def test_solve_worst_case_t3(t3, dfa):
    strategy, value = sv.solve_worst_case(t3, dfa)
    assert value == 10
    assert strategy.decide(0, 0, ()) == 2  # straight to the safe detour


def test_solve_worst_case_unrealizable(dfa):
    with pytest.raises(UnrealizableTask):
        sv.solve_worst_case(trap_model(), dfa)


def outcome(solve, m, a, game=None):
    """(value, strategy JSON text), or None when no strategy wins."""
    try:
        strategy, value = solve(m, a, game)
    except UnrealizableTask:
        return None
    return value, json.dumps(strategy.to_json())


def test_shared_game_matches_separate_solves(t3, dfa):
    # one game serves both objectives, in either order, with the values
    # and strategy JSON of two separate two-argument solves
    cases = [(t3, dfa), case_study(), (trap_model(), dfa)]
    for seed in range(100):
        params = bench.GenParams(n_states=8 + seed % 5,
                                 n_possible=2 + seed % 3, seed=seed)
        cases.append((bench.generate(params), dfa))
    until = to_dfa(parse("(!a U b)"), {"a", "b"})
    cases += [(m, until) for m in map(multi_goal_model, range(50, 80))
              if m is not None]
    solvers = (sv.solve_regret, sv.solve_worst_case)
    unrealizable = 0
    for m, a in cases:
        expected = [outcome(solve, m, a) for solve in solvers]
        unrealizable += expected == [None, None]
        for order in (solvers, solvers[::-1]):
            game = sv.QuotientGame(m, a)
            shared = {solve: outcome(solve, m, a, game) for solve in order}
            assert [shared[solve] for solve in solvers] == expected
    assert unrealizable >= 1
    with pytest.raises(ValueError):
        sv.solve_regret(t3, dfa, sv.QuotientGame(trap_model(), dfa))


def test_strategy_json_golden_digest_on_generated_models(dfa):
    # the strategy JSON of both objectives is part of the contract, byte
    # for byte, on 240 generated models with 2-4 unknown states and on the
    # multi-goal models under every multi-goal task, unrealizable ones
    # included
    cases = [(bench.generate(bench.GenParams(n_states=8 + seed % 8,
                                             n_possible=2 + seed % 3,
                                             seed=seed)), dfa)
             for seed in range(240)]
    tasks = [to_dfa(parse(text), {"a", "b"}) for text in MULTI_GOAL_TASKS]
    cases += [(m, a) for m in map(multi_goal_model, range(50, 80))
              if m is not None for a in tasks]
    digest = hashlib.sha256()
    for m, a in cases:
        game = sv.QuotientGame(m, a)
        for solve in (sv.solve_regret, sv.solve_worst_case):
            try:
                strategy, _ = solve(m, a, game)
                text = json.dumps(strategy.to_json(), sort_keys=True)
            except UnrealizableTask:
                text = "unrealizable"
            digest.update(text.encode() + b"\n")
    assert len(cases) > 300
    assert digest.hexdigest() == \
        "191675059d6282a3b80934d566e42693cb0e979509a7e66faf231b7048eb4d10"


def test_shared_game_unrealizable_for_both_objectives(dfa):
    m = trap_model()
    game = sv.QuotientGame(m, dfa)
    for solve in (sv.solve_regret, sv.solve_worst_case):
        with pytest.raises(UnrealizableTask):
            solve(m, dfa, game)


def test_shared_game_builds_once_in_the_first_solve(t3, dfa, monkeypatch):
    # the build is charged to whichever solve comes first, and only the
    # regret solve constructs a best response
    builds, responses = [], []
    best_response = sv.BestResponse

    class CountingBuild(sv.CutBuild):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    def counting_best_response(*args):
        responses.append(args)
        return best_response(*args)

    monkeypatch.setattr(sv, "CutBuild", CountingBuild)
    monkeypatch.setattr(sv, "BestResponse", counting_best_response)
    game = sv.QuotientGame(t3, dfa)
    assert (len(builds), len(responses)) == (0, 0)
    sv.solve_worst_case(t3, dfa, game)
    assert (len(builds), len(responses)) == (1, 0)
    builds.clear()
    game = sv.QuotientGame(t3, dfa)
    sv.solve_regret(t3, dfa, game)
    assert (len(builds), len(responses)) == (1, 1)
    sv.solve_worst_case(t3, dfa, game)
    assert (len(builds), len(responses)) == (1, 1)


def one_round(objective, m, a, arena):
    """(value, strategy JSON text) of one objective solved once on a
    given quotient ``arena``, or None when no strategy wins."""
    terminal = (regret_terminal(m, a, arena) if objective == "regret"
                else zero)
    try:
        strategy, value = sv._positional(
            objective, arena, sv.solve_minmax(arena, terminal), None, None)
    except UnrealizableTask:
        return None
    return value, json.dumps(strategy.to_json())


def quotient_rows(arena):
    """Vertex tuple -> its row of (vertex tuple, weight), in row order."""
    return {arena.vertex(v): [(arena.vertex(t), w) for t, w in arena.fwd[v]]
            for v in range(arena.n)}


def cut_cases(dfa):
    """374 model-task cases: the small fixtures, the case study, random
    and generated models, and the multi-goal models under every task."""
    cases = [(fixtures.t3(), dfa), (trap_model(), dfa),
             (gr.grid_compile(fixtures.FIG1_GRID),
              to_dfa(parse(fixtures.FIG1_TASK), {"f"})), case_study()]
    cases += [(m, dfa) for m in random_models()]
    cases += [(bench.generate(bench.GenParams(n_states=8 + seed % 8,
                                              n_possible=2 + seed % 3,
                                              seed=seed)), dfa)
              for seed in range(240)]
    tasks = [to_dfa(parse(text), {"a", "b"}) for text in MULTI_GOAL_TASKS]
    cases += [(m, a) for m in map(multi_goal_model, range(50, 80))
              if m is not None for a in tasks]
    assert len(cases) == 374
    return cases


def test_cut_quotient_solves_exactly(dfa, monkeypatch):
    # each objective, solved on one game in either order, gives the
    # strategy JSON of the uncut quotient; every kept vertex is a vertex of
    # the full quotient and every expanded row is its row there.  Either
    # order makes exactly one build, which the regret solve deepens
    builds = []

    class RecordingBuild(sv.CutBuild):
        def __init__(self, *args):
            builds.append(self)
            self.limits = []
            super().__init__(*args)

        def extend(self, limit):
            self.limits.append(limit)
            return super().extend(limit)

    monkeypatch.setattr(sv, "CutBuild", RecordingBuild)
    objectives = ("regret", "worst")
    solvers = {"regret": sv.solve_regret, "worst": sv.solve_worst_case}
    unbounded = cut = deepened = 0
    for m, a in cut_cases(dfa):
        full = ar.build_arena(m, a)
        expected = [one_round(objective, m, a, full) for objective in objectives]
        full_rows = quotient_rows(full)
        for order in (objectives, objectives[::-1]):
            game = sv.QuotientGame(m, a)
            builds.clear()
            shared = {objective: outcome(solvers[objective], m, a, game)
                      for objective in order}
            assert [shared[objective] for objective in objectives] == \
                expected, m
            assert len(builds) == 1
            kept = builds[0].arena
            for vt, row in quotient_rows(kept).items():
                assert row in ([], full_rows[vt]), vt
            cut += kept.n < len(full_rows)
            deepened += len(set(builds[0].limits)) > 1
        unbounded += game.bounds()[0] == INF
    assert unbounded >= 1 and cut > 600 and deepened > 10, (
        unbounded, cut, deepened)


def test_grid_plus_2_regret_matches_the_cut_at_2u_minus_h0():
    # on grid +2, the deepened regret solve gives the strategy JSON of one
    # round at 2U - h(v0), the limit that assumes the largest regret
    m, a = gr.grid_compile(grid_plus(2)), case_study()[1]
    u, h0 = sv.QuotientGame(m, a).bounds()
    reference = one_round("regret", m, a,
                          ar.build_arena(m, a, limit=2 * u - h0))
    assert reference[0] == 4
    assert outcome(sv.solve_regret, m, a) == reference


def test_extended_build_matches_fresh_builds(dfa):
    # one build extended through increasing limits keeps, at every limit,
    # the vertex tuples, rows, degrees, in-edges and accepting set of a
    # fresh build there: the limits run through each f the heap offers,
    # up to the regret game's largest limit 2U - h(v0), and then INF.
    # The storage is shared across rounds, and its rows are in expansion
    # order, so in-edges are compared as sets of (source tuple, weight)
    def in_edges(arena, v):
        return sorted((arena.vertex(arena.src[e]), arena.wt[e])
                      for e in in_slots(arena, v))

    layers = 0
    for m, a in cut_cases(dfa):
        u, h0 = sv.QuotientGame(m, a).bounds()
        top = 2 * u - h0 if u < INF else INF
        build = ar.CutBuild(m, a)
        limit = build.next_f
        while limit is not None:
            limit = limit if limit <= top else INF
            arena, fresh = build.extend(limit), ar.build_arena(m, a, limit=limit)
            assert [arena.vertex(v) for v in range(arena.n)] == \
                [fresh.vertex(v) for v in range(fresh.n)]
            assert list(arena.fwd) == list(fresh.fwd)
            assert arena.deg == fresh.deg
            assert all(in_edges(arena, v) == in_edges(fresh, v)
                       for v in range(arena.n))
            assert arena.accepting == fresh.accepting
            layers += 1
            assert build.next_f is None or build.next_f > limit
            limit = build.next_f
    assert layers > 900, layers


def test_complete_build_keeps_only_its_arena(dfa):
    # once every vertex is expanded, the build drops its search state (the
    # generator that holds the heap, g, the agent and suffix lookups and
    # the suffix rows); a partial build still holds it
    for m, a in (case_study(), (fixtures.t3(), dfa)):
        build = ar.CutBuild(m, a)
        build.extend(build.next_f)
        assert build.next_f is not None
        assert any(map(inspect.isgenerator, vars(build).values()))
        arena = build.extend(INF)
        assert build.next_f is None
        assert not any(map(inspect.isgenerator, vars(build).values()))
        assert build.extend(INF) is arena
        assert arena.n == ar.build_arena(m, a).n


def test_best_case_policy_runs(t3, dfa):
    policy = sv.best_case_policy(t3, dfa)
    rec_yes = run(policy, t3, dfa, fixtures.t3_env_yes())
    assert (rec_yes.cost, rec_yes.satisfied) == (2, True)
    rec_no = run(policy, t3, dfa, fixtures.t3_env_no())
    assert (rec_no.cost, rec_no.satisfied) == (12, True)
    assert rec_no.path == (0, 1, 0, 2, 3)


def test_best_case_policy_fully_known_matches_shortest(dfa):
    m = fully_known_line()
    policy = sv.best_case_policy(m, dfa)
    rec = run(policy, m, dfa, list(md.compatible_envs(m))[0])
    assert rec.cost == 5


def test_best_case_policy_stuck(dfa):
    policy = sv.best_case_policy(trap_model(), dfa)
    bad_env = list(md.compatible_envs(trap_model()))[1]  # state 1 loops on itself
    with pytest.raises(StuckNoPath):
        run(policy, trap_model(), dfa, bad_env)


def reference_online_decide(m, a, x, q, suffix):
    """The optimistic decision as refine -> skeleton -> eager product ->
    shortest path: the chain the policy once rebuilt at every step."""
    if q in a.accepting:
        return None
    t = skeleton(refine(m, suffix))
    lab = [a.letter_index(t.labels[y]) for y in range(t.n)]
    s0 = (t.initial, a.trans[a.initial][lab[t.initial]])
    adj, queue = {}, [s0]
    while queue:
        s = queue.pop()
        if s in adj:
            continue
        u, qu = s
        adj[s] = tuple(((y, a.trans[qu][lab[y]]), t.weights[(u, y)])
                       for y in t.successors[u])
        queue.extend(v for v, _ in adj[s] if v not in adj)
    _, path = md.shortest_path_to(adj, (x, q), lambda s: s[1] in a.accepting)
    if path is None:
        raise StuckNoPath(f"no satisfying path from state {x}")
    return path[1][0]


class CheckedPolicy:
    """The optimistic policy, checked against the reference at every
    decision a run meets."""

    def __init__(self, m, a):
        self.m, self.a = m, a
        self.inner = sv.best_case_policy(m, a)
        self.decisions = 0

    def decide(self, x, q, suffix):
        self.decisions += 1
        try:
            expected = reference_online_decide(self.m, self.a, x, q, suffix)
        except StuckNoPath:
            with pytest.raises(StuckNoPath):
                self.inner.decide(x, q, suffix)
            raise
        assert self.inner.decide(x, q, suffix) == expected, (x, q, suffix)
        return expected


def test_best_case_policy_matches_rebuilt_chain(dfa):
    # patching the skeleton product's successor table decides exactly as
    # refining, taking the skeleton and rebuilding its product did; the
    # cases include the case study's multi-atom task.  Most decisions are
    # read from a kept plan, and each is checked against a fresh search
    cases = regret_cases(dfa) + [(trap_model(), dfa)]
    decisions = searches = stuck = 0
    for m, a in cases:
        policy = CheckedPolicy(m, a)
        for env in md.compatible_envs(m):
            try:
                run(policy, m, a, env)
            except StuckNoPath:
                stuck += 1
        decisions += policy.decisions
        searches += policy.inner.searches
    assert decisions > 500 and stuck > 0
    assert decisions - searches > 300


def test_best_case_policy_builds_no_model_per_decision(t3, dfa, monkeypatch):
    envs = list(md.compatible_envs(t3))
    policy = sv.best_case_policy(t3, dfa)
    built = []
    for cls in (md.Wts, md.Pkwts):
        init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, init=init: built.append(self) or init(self))
    paths = [run(policy, t3, dfa, env).path for env in envs]
    assert paths == [(0, 1, 3), (0, 1, 0, 2, 3)]
    assert built == []


def test_best_case_policy_searches_once_per_observation(t3, dfa):
    # a kept plan serves every step until a new state is explored, and
    # every run the policy serves; a search per step would make 336 on
    # the case study and 6 on T3
    for (m, a), searches, steps in (((t3, dfa), 3, 6), (case_study(), 17, 336)):
        policy = sv.best_case_policy(m, a)
        recs = [run(policy, m, a, env) for env in md.compatible_envs(m)]
        assert sum(len(r.path) - 1 for r in recs) == steps
        assert policy.searches == searches


def test_best_case_regret_same_with_shared_or_fresh_policy(dfa):
    # plans kept from one world's run are exact in every other world
    cases = [(fixtures.t3(), dfa), case_study()] + [(m, dfa) for m in random_models()]
    for m, a in cases:
        envs = list(md.compatible_envs(m))
        fresh = [run(sv.best_case_policy(m, a), m, a, t) for t in envs]
        shared = sv.best_case_policy(m, a)
        assert [run(shared, m, a, t).path for t in envs] == [r.path for r in fresh]
        assert all(r.satisfied for r in fresh)
        assert regret_of(sv.best_case_policy(m, a), m, a) == max(
            r.cost - md.shortest_satisfying_cost(t, a) for r, t in zip(fresh, envs))


def test_strategy_json_roundtrip(t3, dfa):
    strategy, _ = sv.solve_regret(t3, dfa)
    back = sv.PositionalStrategy.from_json(strategy.to_json())
    assert back.decisions == strategy.decisions
    assert back.value == strategy.value
    assert back.objective == "regret"


# ---------------------------------------------------------------------------
# cross-objective relations and documented edge behavior

def test_worst_value_brackets_regret_strategy_cost(t3, dfa):
    # the pessimist's value lower-bounds any winning strategy's worst
    # realized cost, and the regret value bounds the overshoot
    regret_strategy, regret_value = sv.solve_regret(t3, dfa)
    _, worst_value = sv.solve_worst_case(t3, dfa)
    worst_realized = max(
        run(regret_strategy, t3, dfa, env).cost
        for env in md.compatible_envs(t3)
    )
    assert worst_value <= worst_realized <= worst_value + regret_value


def hub_model(extra=0):
    # an unknown hub that leads to goal a or to goal b, never to both;
    # ``extra`` unknown states after it are unreachable from the start
    n = 4 + extra
    weights = {(0, 1): 1, (1, 2): 1, (1, 3): 1, (2, 1): 1, (3, 1): 1}
    for x in range(4, n):
        weights[(x, x)] = weights[(x, 0)] = 1
    return md.Pkwts(
        n=n,
        initial=0,
        patterns=((((1,),), ((2,), (3,)), ((1,),), ((1,),))
                  + tuple(((x,), (0,)) for x in range(4, n))),
        weights=weights,
        labels=((frozenset(), frozenset(), frozenset({"a"}), frozenset({"b"}))
                + (frozenset(),) * extra),
    )


def test_best_response_never_mixes_patterns_from_two_worlds():
    # the union system can stitch together successor choices that no
    # single environment offers: here each pattern alone misses one of
    # the two goals, so the best response is infinite while the skeleton
    # reports a finite cost
    m = hub_model()
    dfa = to_dfa(parse("F a & F b"), {"a", "b"})
    assert md.shortest_satisfying_cost(skeleton(m), dfa) == 4
    assert sv.BestResponse(m, dfa)(()) == INF


def test_best_response_exact_beyond_4096_worlds():
    # 13 unknown states, 8192 worlds: no cap, no fallback, no warning
    dfa = to_dfa(parse("F a & F b"), {"a", "b"})
    # the hub as a trap beside a known 20-cost route 0 -> 4 (a) -> 5 (b),
    # with states 6..17 unknown and unreachable
    n = 18
    patterns = [((1, 4),), ((2,), (3,)), ((1,),), ((1,),), ((5,),), ((5,),)]
    patterns += [((x,), (0,)) for x in range(6, n)]
    weights = {(0, 1): 1, (1, 2): 1, (1, 3): 1, (2, 1): 1, (3, 1): 1,
               (0, 4): 10, (4, 5): 10, (5, 5): 0}
    for x in range(6, n):
        weights[(x, x)] = weights[(x, 0)] = 1
    labels = [frozenset()] * n
    labels[2] = labels[4] = frozenset({"a"})
    labels[3] = labels[5] = frozenset({"b"})
    m = md.Pkwts(n=n, initial=0, patterns=tuple(patterns), weights=weights,
                 labels=tuple(labels))
    assert len(m.unknown_states) == 13
    strategy, value = sv.solve_regret(m, dfa)
    assert value == 0
    assert regret_of(strategy, m, dfa, cap=13) == 0
    hub = hub_model(extra=12)
    assert sv.BestResponse(hub, dfa)(()) == INF


def reference_best_response(m, a, suffix):
    """Enumerating reference for BestResponse: the cheapest satisfying
    cost over every completion of the refined model."""
    return min(md.shortest_satisfying_cost(t, a)
               for t in md.compatible_envs(refine(m, suffix)))


def case_study():
    m = gr.grid_compile(fixtures.CASE_STUDY_GRID)
    return m, to_dfa(parse(fixtures.CASE_STUDY_TASK), {"fire", "extinguisher"})


def test_best_response_matches_world_enumeration(dfa):
    # every accepting vertex's knowledge, against the min over completions
    cases = [(fixtures.t3(), dfa),
             (gr.grid_compile(fixtures.FIG1_GRID),
              to_dfa(parse(fixtures.FIG1_TASK), {"f"})),
             case_study()]
    cases += [(m, dfa) for m in random_models()]
    for seed in range(40):
        params = bench.GenParams(n_states=10, n_possible=4, min_cost=1,
                                 max_cost=9, seed=seed)
        cand = bench._candidate(Random(seed), params)
        if cand is not None:
            cases.append((cand, dfa))
    # queried twice on fresh instances, most-observed and least-observed
    # first
    assert len(cases) > 60
    for m, a in cases:
        arena = ar.build_ordered_arena(m, a)
        suffixes = {arena.suffixes[arena.sfx[v]] for v in arena.accepting}
        expected = {s: reference_best_response(m, a, s) for s in suffixes}
        for sign in (-1, 1):
            br = sv.BestResponse(m, a)
            for suffix in sorted(suffixes, key=lambda s: (sign * len(s), s)):
                assert br(suffix) == expected[suffix]
            assert br.searches == 1


def test_best_response_ignores_exploration_order():
    m, a = case_study()
    suffix = tuple((x, m.patterns[x][-1]) for x in m.unknown_states)
    assert len(suffix) >= 2
    br = sv.BestResponse(m, a)
    assert br(suffix) == br(suffix[::-1]) == reference_best_response(m, a, suffix)
    assert br.searches == 1


def test_case_study_regret_runs_one_best_response_search(monkeypatch):
    # the regret game searches once, from the all-patterns masks, and
    # its rounds and a repeated solve read that one table.  Only
    # best-response searches count: the U search uses dijkstra too
    sources = []

    def counting(adj, source):
        if isinstance(adj, sv.BestResponse):
            sources.append((source, adj.full))
        return md.dijkstra(adj, source)

    monkeypatch.setattr(sv, "dijkstra", counting)
    m, a = case_study()
    game = sv.QuotientGame(m, a)
    assert sv.solve_regret(m, a, game)[1] == 4
    assert sv.solve_regret(m, a, game)[1] == 4
    assert len(sources) == 1
    (x, _, masks), full = sources[0]
    assert (x, masks) == (m.initial, full)


def test_best_response_records_on_the_cut_cases(dfa):
    # records come in nondecreasing cost, none contained in an earlier
    # one; the last allows every world and costs U, or, where U is INF,
    # none does and the search settles every vertex it can reach.  Rows
    # queried in either order give the same values and the same work
    exhausted = 0
    for m, a in cut_cases(dfa):
        u, h0 = sv.QuotientGame(m, a).bounds()
        arena = ar.build_arena(m, a)
        rows = sorted({arena.suffixes[arena.sfx[v]] for v in arena.accepting})
        answers = []
        for order in (rows, rows[::-1]):
            br = sv.BestResponse(m, a)
            values = {row: br(row) for row in order}
            answers.append((values, br.settled))
            br(())  # searches where no row was queried
            records = br.records
            assert all(c <= d for (c, _), (d, _) in zip(records, records[1:]))
            assert all(masks & earlier != masks
                       for i, (_, masks) in enumerate(records)
                       for _, earlier in records[:i])
            if u < INF:
                assert records[-1] == (u, br.full), m
            else:
                assert all(masks != br.full for _, masks in records)
                q0 = a.trans[a.initial][br.lab[m.initial]]
                reachable = (0 if h0 == INF else
                             len(list(md.dijkstra(br, (m.initial, q0, br.full)))))
                assert br.settled == reachable
                exhausted += h0 < INF
        assert answers[0] == answers[1]
    assert exhausted >= 1, exhausted


def test_regret_debug_line_reports_best_response_paths(caplog):
    # each line reports U, the cut's limit and the vertices kept: the
    # worst-case game is cut at U = 22.  The regret game's first round, at
    # U, is worth 8; the second, at 26, is worth 4 and certifies itself.
    # The h search settles the 76 live pairs that reach acceptance, and
    # the A* U search 45 pairs
    m, a = case_study()
    with caplog.at_level(logging.DEBUG, logger="regretplan.solver"):
        sv.solve_regret(m, a)
        sv.solve_worst_case(m, a)
    regret, worst = (r.getMessage() for r in caplog.records)
    assert regret.startswith(
        "regret game: U 22, limit 26, 1340 vertices, 2629 edges")
    assert regret.endswith(", 1 best-response searches, 6 records,"
                           " 208 search vertices settled,"
                           " rounds 22:531:8 26:1340:4,"
                           " 76 h-search and 45 U-search vertices settled")
    assert worst.startswith("worst game: U 22, limit 22, 531 vertices")
    assert "best-response" not in worst


def slots(arena, v):
    """The slots of v's row: a run from its first slot, as long as its
    degree."""
    return range(arena.first[v], arena.first[v] + arena.deg[v])


def in_slots(arena, v):
    """The slots of v's in-edge list, newest first."""
    e, found = arena.last_in[v], []
    while e >= 0:
        found.append(e)
        e = arena.prev_in[e]
    return found


def id_of(arena, vt):
    """Id of a vertex tuple, by a linear scan; KeyError if absent."""
    for v in range(arena.n):
        if arena.vertex(v) == vt:
            return v
    raise KeyError(vt)


def edge_slot(arena, u, v):
    """Slot of the edge (u, v), or None."""
    return next((e for e in slots(arena, u) if arena.dst[e] == v), None)


def backward_values(arena, weights, terminal):
    """Min-max value iteration from INF with each accepting vertex pinned
    to ``terminal(v)``: env maximizes and agent minimizes value + weight.
    Values only decrease, so rechecking the predecessors of each vertex
    whose value changed reaches the greatest fixpoint."""
    acc = set(arena.accepting)
    preds = [[] for _ in range(arena.n)]
    for u, v, _ in arena.edges():
        preds[v].append(u)
    values = [INF] * arena.n
    for v in acc:
        values[v] = terminal(v)
    work = deque(u for v in sorted(acc) for u in preds[v])
    while work:
        v = work.popleft()
        if v in acc:
            continue
        cands = [values[arena.dst[e]] + weights[e] for e in slots(arena, v)]
        val = min(cands) if arena.is_agent(v) else max(cands)
        if val != values[v]:
            values[v] = val
            work.extend(preds[v])
    return values


def naive_backward_regret(m, dfa):
    """Min-max of (play cost - terminal best response) computed by plain
    backward iteration over the original weights."""
    arena = ar.build_ordered_arena(m, dfa)
    br = sv.BestResponse(m, dfa)
    values = backward_values(arena, arena.wt,
                             lambda v: -br(arena.vertex(v)[3]))
    return values[arena.v0]


def reference_minmax(arena, weights, terminal):
    """Value-iteration reference for solve_minmax, with the same choice
    rule: the first move in row order that attains the value, skipping a
    move that returns to the deciding vertex, either a self-edge or an env
    vertex whose only move goes back."""
    values = backward_values(arena, weights, terminal)
    acc = set(arena.accepting)

    def returns(v, t):
        return t == v or (not arena.is_agent(t)
                          and [s for s, _ in arena.fwd[t]] == [v])

    choices = {}
    for v in range(arena.n):
        if not arena.is_agent(v):
            continue
        if v in acc:
            choices[v] = None
        elif values[v] < INF:
            choices[v] = next(
                arena.dst[e] for e in slots(arena, v)
                if not returns(v, arena.dst[e])
                and values[arena.dst[e]] + weights[e] == values[v])
    return values, choices


def reference_e_sp(arena):
    """The paper's shortest-play edges: forward distances, and a reverse
    Dijkstra seeded at -dist[f] on each final f gives the potential
    p[v] = min over f of (d(v, f) - dist[f]).  An edge is on a cheapest
    play to some final exactly when dist[u] + w + p[v] == 0."""
    def dijkstra_from(adj, seeds):
        dist = dict(seeds)
        heap = [(d, v) for v, d in sorted(seeds.items())]
        heapq.heapify(heap)
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u]:
                if v not in dist or d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        return dist

    rev = [[] for _ in range(arena.n)]
    for u, v, w in arena.edges():
        rev[v].append((u, w))
    dist = dijkstra_from(arena.fwd, {arena.v0: 0})
    seeds = {v: -dist[v] for v in arena.accepting if v in dist}
    if not seeds:
        raise UnrealizableTask("no accepting vertex is reachable")
    potential = dijkstra_from(rev, seeds)
    edges = set()
    for e, (u, v, w) in enumerate(arena.edges()):
        if u in dist and v in potential:
            slack = dist[u] + w + potential[v]
            assert slack >= 0
            if slack == 0:
                edges.add(e)
    return edges, dist


def reference_mu(arena, br):
    """The paper's regret weights: zero on commitments and on shortest-play
    movement, infinite off the shortest plays, and cheapest-play cost minus
    best response on edges entering an accepting vertex."""
    edges, dist = reference_e_sp(arena)
    acc = set(arena.accepting)
    mu = []
    for e, (u, v, _) in enumerate(arena.edges()):
        if arena.is_agent(u):
            mu.append(0)
        elif e not in edges:
            mu.append(INF)
        elif v in acc:
            mu.append(dist[v] - br(arena.vertex(v)[3]))
        else:
            mu.append(0)
    return mu


def vertex_decisions(arena, choices):
    """Decisions at the ordered-arena vertices the choices reach, keyed by
    (state, automaton state, knowledge suffix)."""
    decisions = {}
    seen = {arena.v0}
    stack = [arena.v0]
    while stack:
        v = stack.pop()
        if arena.is_agent(v):
            go = choices[v]
            decisions[arena.vertex(v)[1:]] = None if go is None else arena.xhat[go]
            nxt = () if go is None else (go,)
        else:
            nxt = [t for t, _ in arena.fwd[v]]
        for t in nxt:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return decisions


def shortest_play_regret(m, a):
    """The paper's pipeline on the ordered arena: shortest-play edges,
    regret weights, then min-max with accepting vertices pinned to zero.
    Returns (value, decisions); (INF, None) when no strategy wins."""
    arena = ar.build_ordered_arena(m, a)
    try:
        mu = reference_mu(arena, sv.BestResponse(m, a))
    except UnrealizableTask:
        return INF, None
    values, choices = reference_minmax(arena, mu, zero)
    if values[arena.v0] == INF:
        return INF, None
    return values[arena.v0], vertex_decisions(arena, choices)


def direct_regret(m, a):
    """solve_regret as (value, decisions); (INF, None) when no strategy
    wins."""
    try:
        strategy, value = sv.solve_regret(m, a)
    except UnrealizableTask:
        return INF, None
    return value, strategy.decisions


def random_models():
    models = []
    for seed in range(40):
        params = bench.GenParams(n_states=5 + seed % 3, n_possible=seed % 3,
                                 min_cost=1, max_cost=9, seed=seed)
        cand = bench._candidate(Random(seed), params)
        if cand is not None:
            models.append(cand)
    return models


def test_solvers_match_value_iteration_and_slack_references(dfa):
    # the Dijkstra game solve against value iteration, on the ordered
    # arena and on its quotient, for both objectives' terminal values;
    # the case study's quotient (its ordered arena is too large here) is
    # the one with self-edges at non-accepting agent vertices.  The solve
    # stops past the root's value: values are exact up to it and above it
    # elsewhere, and every agent valued at most the root's picks the
    # reference's move
    both = (ar.build_ordered_arena, ar.build_arena)
    cases = [(fixtures.t3(), dfa, both),
             (gr.grid_compile(fixtures.FIG1_GRID),
              to_dfa(parse(fixtures.FIG1_TASK), {"f"}), both),
             case_study() + ((ar.build_arena,),)]
    cases += [(m, dfa, both) for m in random_models()]
    above = 0
    for m, a, builders in cases:
        for build in builders:
            arena = build(m, a)
            for terminal in (zero, regret_terminal(m, a, arena)):
                result = sv.solve_minmax(arena, terminal)
                ref, choices = reference_minmax(arena, arena.wt, terminal)
                root = ref[arena.v0]
                for v, value in enumerate(result.values):
                    if ref[v] > root:
                        assert value > root
                        above += 1
                        continue
                    assert value == ref[v]
                    if v in choices:
                        assert move(arena, result, v) == choices[v]
    assert above > 0


def regret_cases(dfa):
    return ([(fixtures.t3(), dfa),
             (gr.grid_compile(fixtures.FIG1_GRID),
              to_dfa(parse(fixtures.FIG1_TASK), {"f"})),
             case_study()]
            + [(m, dfa) for m in random_models()])


def test_direct_solve_equals_shortest_play_reduction(dfa):
    # on these single-goal and fetch-then-reach tasks the paper's
    # reduction and the direct quotient game agree in value and in every
    # reachable decision
    for m, a in regret_cases(dfa):
        assert direct_regret(m, a) == shortest_play_regret(m, a)


def test_shortest_play_reweighting_agrees_with_direct_recursion(dfa):
    # The terminal score max(cost - best response) is additive along a
    # play, so plain backward recursion over the ordered arena lands on
    # the quotient solve's value.  The solver still never assumes the
    # value restricted to a subgame is that subgame's regret; hindsight
    # is always measured from the initial vertex.
    for m, a in regret_cases(dfa):
        assert naive_backward_regret(m, a) == direct_regret(m, a)[0]


COUNTEREXAMPLE = {
    "states": 9, "initial": 0, "labels": {"2": ["a"], "4": ["b"]},
    "patterns": {"0": [[1, 4]], "1": [[2, 3]], "2": [[0]],
                 "3": [[1, 5, 7], [5, 7]], "4": [[2, 6], [6]],
                 "5": [[0, 3], [0]], "6": [[7, 8]], "7": [[2]], "8": [[3, 4]]},
    "weights": [{"from": u, "to": v, "w": w} for u, v, w in (
        (0, 1, 3), (0, 4, 2), (1, 2, 1), (1, 3, 3), (2, 0, 1), (3, 1, 3),
        (3, 5, 1), (3, 7, 3), (4, 2, 1), (4, 6, 3), (5, 0, 1), (5, 3, 3),
        (6, 7, 2), (6, 8, 1), (7, 2, 1), (8, 3, 1), (8, 4, 3))],
}


def test_regret_counterexample_to_shortest_play_reduction():
    # 0->1->2->0->4 costs 7 in every world.  The play 0->4->2->0->4 costs
    # 6 but needs pattern [2, 6] at state 4, and it reaches the same
    # ordered final vertex, so the shortest-play reduction forbids the
    # first play and detours 0->1->3 for cost 13: regret 7 instead of 1
    m = md.model_from_json(COUNTEREXAMPLE)
    a = to_dfa(parse("F (a & F b)"), {"a", "b"})
    strategy, value = sv.solve_regret(m, a)
    assert value == 1
    assert regret_of(strategy, m, a) == 1
    assert orc.brute_force_optimal_regret(m, a)[0] == 1
    assert naive_backward_regret(m, a) == 1
    assert shortest_play_regret(m, a)[0] == 7


MULTI_GOAL_TASKS = ("F (a & F b)", "(!a U b)", "F a & F b")


def multi_goal_model(seed):
    """A generated model with 3 unknown states whose two targets are
    relabeled a and b; None when the draw fails."""
    params = bench.GenParams(n_states=7 + seed % 4, n_possible=3, n_targets=2,
                             min_cost=1, max_cost=3, seed=seed)
    m = bench._candidate(Random(seed), params)
    if m is None:
        return None
    goal_a, goal_b = (x for x in range(m.n) if m.labels[x])
    labels = tuple(frozenset({"a"}) if x == goal_a
                   else frozenset({"b"}) if x == goal_b else frozenset()
                   for x in range(m.n))
    return md.Pkwts(n=m.n, initial=m.initial, patterns=m.patterns,
                    weights=m.weights, labels=labels)


def test_regret_matches_oracle_on_multi_goal_tasks():
    # every other oracle comparison uses F target; here the shortest-play
    # reduction overestimates regret on some models and the direct solve
    # must still match the oracle
    tasks = {text: to_dfa(parse(text), {"a", "b"}) for text in MULTI_GOAL_TASKS}
    checked, reduction_off = 0, 0
    for seed in range(50, 80):
        m = multi_goal_model(seed)
        if m is None:
            continue
        for text, a in tasks.items():
            try:
                oracle_value = orc.brute_force_optimal_regret(
                    m, a, choice_cap=200_000)[0]
            except SearchSpaceTooLarge:
                continue
            value = direct_regret(m, a)[0]
            assert value == oracle_value, (seed, text)
            checked += 1
            reduction_off += shortest_play_regret(m, a)[0] != value
    assert checked >= 50
    assert reduction_off >= 1


def test_to_go_is_a_consistent_potential(dfa):
    # h is 0 at acceptance and h(u) <= w + h(v) on every skeleton x
    # automaton edge, so the best-response search's reduced weights are
    # nonnegative; h(v0) is the forward search's cheapest satisfying cost
    cases = [(fixtures.t3(), dfa),
             (gr.grid_compile(fixtures.FIG1_GRID),
              to_dfa(parse(fixtures.FIG1_TASK), {"f"})), case_study()]
    cases += [(m, dfa) for m in random_models()]
    tasks = [to_dfa(parse(text), {"a", "b"}) for text in MULTI_GOAL_TASKS]
    cases += [(m, a) for m in map(multi_goal_model, range(50, 80))
              if m is not None for a in tasks]
    assert len(cases) > 100
    for m, a in cases:
        h, sk = ar.CutBuild(m, a).h, skeleton(m)
        for x in range(m.n):
            for q in range(a.n):
                if q in a.accepting:
                    assert h[x * a.n + q] == 0, (m, x, q)
                for y in sk.successors[x]:
                    v = y * a.n + a.step(q, m.labels[y])
                    assert h[x * a.n + q] <= m.weights[(x, y)] + h[v], (m, x, q)
        assert sv.QuotientGame(m, a).bounds()[1] == md.satisfying_cost(
            md.product(sk, a)), m


def accepting_start_cases():
    """The multi-goal models under ``true``, whose initial automaton state
    is accepting, and under ``a | F b``, also with the initial state
    relabeled a, so that the start pair is accepting."""
    tasks = [to_dfa(parse(text), {"a", "b"}) for text in ("true", "a | F b")]
    models = [m for m in map(multi_goal_model, range(50, 80)) if m is not None]
    relabeled = [md.Pkwts(n=m.n, initial=m.initial, patterns=m.patterns,
                          weights=m.weights,
                          labels=tuple(frozenset({"a"}) if x == m.initial
                                       else label
                                       for x, label in enumerate(m.labels)))
                 for m in models]
    return ([(m, a) for m in models for a in tasks]
            + [(m, tasks[1]) for m in relabeled])


def test_to_go_is_exact(dfa):
    # h at every (x, q) is the cheapest satisfying cost of a forward
    # search from that pair on skeleton x automaton, not only a
    # consistent bound: the build's f values, and so its pop order, vertex
    # ids and strategies, rest on it.  The h search settles exactly the
    # live pairs from which acceptance is reachable
    cases = cut_cases(dfa) + accepting_start_cases()
    starts_accepting = 0
    for m, a in cases:
        build = ar.CutBuild(m, a)
        forward = md.Product(initial=None,
                             successors=skeleton(m).successors,
                             weights=m.weights, lab=build.lab, dfa=a)
        reachable = 0
        for x in range(m.n):
            for q in range(a.n):
                cost = md.satisfying_cost(replace(forward, initial=(x, q)))
                assert build.h[x * a.n + q] == cost, (m, a, x, q)
                reachable += cost < INF and q not in a.accepting
        assert build.h_settled == reachable, (m, a)
        q0 = a.trans[a.initial][build.lab[m.initial]]
        starts_accepting += q0 in a.accepting
        if q0 in a.accepting:
            assert sv.QuotientGame(m, a).bounds() == (0, 0)
            assert sv.solve_regret(m, a)[1] == 0
            assert sv.solve_worst_case(m, a)[1] == 0
    assert len(cases) == 374 + 3 * 30 and starts_accepting == 2 * 30, (
        len(cases), starts_accepting)


def test_u_is_the_intersection_worlds_optimum(dfa):
    # the A* U search on h gives the plain forward search's cheapest
    # satisfying cost in the intersection world, where each state keeps
    # the successors common to all its patterns; U is INF on 9 cases
    unbounded = 0
    for m, a in cut_cases(dfa):
        lab = md.letters(m.labels, a)
        common = tuple(tuple(sorted(set.intersection(*map(set, family))))
                       for family in m.patterns)
        world = md.Product(initial=(m.initial,
                                    a.trans[a.initial][lab[m.initial]]),
                           successors=common, weights=m.weights, lab=lab,
                           dfa=a)
        u = sv.QuotientGame(m, a).bounds()[0]
        assert u == md.satisfying_cost(world), m
        unbounded += u == INF
    assert unbounded == 9, unbounded


def test_dead_state_cut_keeps_every_decision():
    # under these tasks a play can enter a dead automaton state (a before
    # b, or b before a), which the quotient and the best-response search
    # cut; value iteration on the full ordered arena must still agree with
    # both solves in value and in every reachable decision
    tasks = [to_dfa(parse(text), {"a", "b"})
             for text in ("(!a U b)", "(!b U a) & F b")]
    assert all(a.dead for a in tasks)
    checked = unrealizable = 0
    for seed in range(50, 70):
        m = multi_goal_model(seed)
        if m is None:
            continue
        for a in tasks:
            arena = ar.build_ordered_arena(m, a)
            for solve, terminal in ((sv.solve_regret,
                                     regret_terminal(m, a, arena)),
                                    (sv.solve_worst_case, zero)):
                values, choices = reference_minmax(arena, arena.wt, terminal)
                if values[arena.v0] == INF:
                    with pytest.raises(UnrealizableTask):
                        solve(m, a)
                    unrealizable += 1
                    continue
                strategy, value = solve(m, a)
                assert value == values[arena.v0], (seed, a)
                assert strategy.decisions == vertex_decisions(arena, choices)
                checked += 1
    assert checked >= 60 and unrealizable >= 1, (checked, unrealizable)


def test_unrealizable_iff_no_winning_strategy(dfa):
    # infinite regret coincides with the worst-case game being lost
    rng_models = random_models() + [trap_model()]
    checked_unrealizable = 0
    for m in rng_models:
        try:
            sv.solve_worst_case(m, dfa)
            worst_ok = True
        except UnrealizableTask:
            worst_ok = False
        try:
            sv.solve_regret(m, dfa)
            regret_ok = True
        except UnrealizableTask:
            regret_ok = False
        assert worst_ok == regret_ok
        checked_unrealizable += not worst_ok
    assert checked_unrealizable > 0
