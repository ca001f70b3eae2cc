"""Regret, worst-case, and best-case synthesis on the T3 scenario."""

import heapq
import math
from random import Random

import pytest

from regretplan import arena as ar
from regretplan import bench, fixtures
from regretplan import grid as gr
from regretplan import model as md
from regretplan import solver as sv
from regretplan.errors import StuckNoPath, UnrealizableTask
from regretplan.execute import run
from regretplan.formula import parse, to_dfa

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
    return ar.build_arena(t3, dfa)


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
    k0 = md.initial_knowledge(t3)
    assert sv.best_response(t3, dfa, k0) == 2


def test_best_response_after_bad_news(t3, dfa):
    k = md.update(md.initial_knowledge(t3), (1, (0,)))
    assert sv.best_response(t3, dfa, k) == 10


def test_best_response_fully_known(dfa):
    m = fully_known_line()
    k0 = md.initial_knowledge(m)
    assert sv.best_response(m, dfa, k0) == 5


def test_best_response_skeleton_is_lower_bound(t3, dfa):
    k0 = md.initial_knowledge(t3)
    exact = sv.best_response(t3, dfa, k0, mode="exact")
    lower = sv.best_response(t3, dfa, k0, mode="skeleton")
    assert lower <= exact


# ---------------------------------------------------------------------------
# shortest-play edges

def test_esp_contains_both_routes(t3_arena):
    esp = sv.compute_e_sp(t3_arena)
    v0 = t3_arena.v0
    commit_s1 = t3_arena.id_of((ar.ENV, 0, 0, (), 1))
    commit_s2 = t3_arena.id_of((ar.ENV, 0, 0, (), 2))
    assert t3_arena.edge_slot(v0, commit_s1) in esp.edges
    assert t3_arena.edge_slot(v0, commit_s2) in esp.edges


def test_esp_excludes_strictly_longer_detour(t3_arena):
    esp = sv.compute_e_sp(t3_arena)
    # re-committing to the explored state 1 after bouncing back is never
    # on a cheapest play to any final vertex
    env_retry = t3_arena.id_of((ar.ENV, 0, 0, SFX_NO, 1))
    agent_retry = t3_arena.id_of((ar.AGENT, 1, 0, SFX_NO))
    retry = t3_arena.edge_slot(env_retry, agent_retry)
    assert retry is not None
    assert retry not in esp.edges


def test_esp_linear_chain_all_edges(dfa):
    m = fully_known_line()
    arena = ar.build_arena(m, dfa)
    esp = sv.compute_e_sp(arena)
    chain = [
        arena.id_of((ar.AGENT, 0, 0, ())),
        arena.id_of((ar.ENV, 0, 0, (), 1)),
        arena.id_of((ar.AGENT, 1, 0, ())),
        arena.id_of((ar.ENV, 1, 0, (), 2)),
        arena.id_of((ar.AGENT, 2, 1, ())),
    ]
    for u, v in zip(chain, chain[1:]):
        assert arena.edge_slot(u, v) in esp.edges


def test_esp_unrealizable_raises():
    m = md.Pkwts(
        n=2,
        initial=0,
        patterns=(((1,),), ((1,),)),
        weights={(0, 1): 1, (1, 1): 1},
        labels=(frozenset(), frozenset()),
    )
    dfa = to_dfa(parse("F target"), {"target"})
    arena = ar.build_arena(m, dfa)
    with pytest.raises(UnrealizableTask):
        sv.compute_e_sp(arena)


# ---------------------------------------------------------------------------
# regret weights

def mu_for(t3, dfa, t3_arena):
    esp = sv.compute_e_sp(t3_arena)
    br_fn = sv.BestResponse(t3, dfa)
    return sv.build_mu(t3_arena, esp, br_fn), esp


def test_mu_values_on_final_edges(t3, dfa, t3_arena):
    mu, _ = mu_for(t3, dfa, t3_arena)
    f_short = t3_arena.id_of((ar.AGENT, 3, 1, SFX_YES))
    f_detour = t3_arena.id_of((ar.AGENT, 3, 1, SFX_NO))
    f_direct = t3_arena.id_of((ar.AGENT, 3, 1, ()))
    into = lambda f: next(e for e, (u, v, _) in enumerate(t3_arena.edges())
                          if v == f and not t3_arena.is_agent(u))
    assert mu[into(f_short)] == 0
    assert mu[into(f_detour)] == 2
    assert mu[into(f_direct)] == 8


def test_mu_nonnegative_and_zero_on_agent_edges(t3, dfa, t3_arena):
    mu, _ = mu_for(t3, dfa, t3_arena)
    assert len(mu) == len(t3_arena.dst)
    for (u, v, _), val in zip(t3_arena.edges(), mu):
        assert val >= 0
        if t3_arena.is_agent(u):
            assert val == 0


# ---------------------------------------------------------------------------
# min-max iteration

def test_minmax_value_zero_when_start_accepting(dfa):
    m = md.Pkwts(
        n=2,
        initial=0,
        patterns=(((1,),), ((1,),)),
        weights={(0, 1): 1, (1, 1): 1},
        labels=(frozenset({"target"}), frozenset()),
    )
    arena = ar.build_arena(m, dfa)
    result = sv.solve_minmax(arena, arena.wt)
    assert result.values[arena.v0] == 0
    assert result.choices[arena.v0] is None


def test_minmax_regret_objective(t3, dfa, t3_arena):
    mu, _ = mu_for(t3, dfa, t3_arena)
    result = sv.solve_minmax(t3_arena, mu)
    assert result.values[t3_arena.v0] == 2
    commit_s1 = t3_arena.id_of((ar.ENV, 0, 0, (), 1))
    assert result.choices[t3_arena.v0] == commit_s1


def test_minmax_worst_objective(t3, dfa, t3_arena):
    result = sv.solve_minmax(t3_arena, t3_arena.wt)
    assert result.values[t3_arena.v0] == 10
    commit_s2 = t3_arena.id_of((ar.ENV, 0, 0, (), 2))
    assert result.choices[t3_arena.v0] == commit_s2


def test_minmax_converges_within_vertex_count(t3, dfa, t3_arena):
    # each vertex settles at most once, and exactly the vertices with a
    # finite value settle
    mu, _ = mu_for(t3, dfa, t3_arena)
    for weights in (t3_arena.wt, mu):
        result = sv.solve_minmax(t3_arena, weights)
        finite = sum(value < INF for value in result.values)
        assert result.sweeps == finite <= t3_arena.n


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
    rec = run(strategy, m, dfa, md.compatible_envs(m)[0])
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
    rec = run(policy, m, dfa, md.compatible_envs(m)[0])
    assert rec.cost == 5


def test_best_case_policy_stuck(dfa):
    policy = sv.best_case_policy(trap_model(), dfa)
    bad_env = md.compatible_envs(trap_model())[1]  # state 1 loops on itself
    with pytest.raises(StuckNoPath):
        run(policy, trap_model(), dfa, bad_env)


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


def test_skeleton_best_response_can_be_strictly_optimistic():
    # the union system can stitch together successor choices that no
    # single environment offers: here each pattern alone misses one of
    # the two goals, so the exact best response is infinite while the
    # skeleton happily reports a finite cost
    m = md.Pkwts(
        n=4,
        initial=0,
        patterns=(
            ((1,),),
            ((2,), (3,)),      # unknown hub: leads to one goal or the other
            ((1,),),
            ((1,),),
        ),
        weights={(0, 1): 1, (1, 2): 1, (1, 3): 1, (2, 1): 1, (3, 1): 1},
        labels=(frozenset(), frozenset(), frozenset({"a"}), frozenset({"b"})),
    )
    dfa = to_dfa(parse("F a & F b"), {"a", "b"})
    k0 = md.initial_knowledge(m)
    assert sv.best_response(m, dfa, k0, mode="exact") == INF
    assert sv.best_response(m, dfa, k0, mode="skeleton") == 4


def test_skeleton_mode_matches_exact_on_t3(t3, dfa):
    s_exact, v_exact = sv.solve_regret(t3, dfa, br_mode="exact")
    s_skel, v_skel = sv.solve_regret(t3, dfa, br_mode="skeleton")
    assert v_exact == v_skel == 2
    assert s_exact.decisions == s_skel.decisions


def slots(arena, v):
    return range(arena.start[v], arena.start[v + 1])


def backward_values(arena, weights, terminal):
    """Min-max value iteration from INF with each accepting vertex pinned
    to ``terminal(v)``: env maximizes and agent minimizes value + weight.
    Values only decrease, so in-place updates reach the greatest fixpoint."""
    acc = set(arena.accepting)
    values = [INF] * arena.n
    for v in acc:
        values[v] = terminal(v)
    order = [v for v in range(arena.n) if v not in acc]
    order.reverse()
    while True:
        changed = False
        for v in order:
            cands = [values[arena.dst[e]] + weights[e] for e in slots(arena, v)]
            val = min(cands) if arena.is_agent(v) else max(cands)
            if val != values[v]:
                values[v] = val
                changed = True
        if not changed:
            return values


def naive_backward_regret(m, dfa):
    """Min-max of (play cost - terminal best response) computed by plain
    backward iteration over the original weights."""
    arena = ar.build_arena(m, dfa)
    br = sv.BestResponse(m, dfa)
    values = backward_values(arena, arena.wt,
                             lambda v: -br(arena.vertex(v)[3]))
    return values[arena.v0]


def reference_minmax(arena, weights):
    """Value-iteration reference for solve_minmax, with the same choice
    rule: the first successor by id that attains the value, skipping an
    env vertex whose only move returns to the deciding vertex."""
    values = backward_values(arena, weights, lambda v: 0)
    acc = set(arena.accepting)
    choices = {}
    for v in range(arena.n):
        if not arena.is_agent(v):
            continue
        if v in acc:
            choices[v] = None
        elif values[v] < INF:
            choices[v] = next(
                arena.dst[e] for e in slots(arena, v)
                if [s for s, _ in arena.fwd[arena.dst[e]]] != [v]
                and values[arena.dst[e]] + weights[e] == values[v])
    return values, choices


def reference_e_sp(arena):
    """Slack reference for compute_e_sp: forward distances, and a reverse
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
    # the Dijkstra game solve and the tight-edge E_sp against the
    # value-iteration and two-Dijkstra algorithms, under both movement
    # and regret weights
    cases = [(fixtures.t3(), dfa),
             (gr.grid_compile(fixtures.FIG1_GRID),
              to_dfa(parse(fixtures.FIG1_TASK), {"f"}))]
    cases += [(m, dfa) for m in random_models()]
    for m, a in cases:
        arena = ar.build_arena(m, a)
        esp = sv.compute_e_sp(arena)
        assert (esp.edges, esp.dist) == reference_e_sp(arena)
        mu = sv.build_mu(arena, esp, sv.BestResponse(m, a))
        for weights in (arena.wt, mu):
            result = sv.solve_minmax(arena, weights)
            assert (result.values, result.choices) == reference_minmax(arena, weights)


def test_shortest_play_reweighting_agrees_with_direct_recursion(t3, dfa):
    # The terminal score max(cost - best response) is additive along a
    # play, so the direct backward recursion lands on the same value as
    # the shortest-play reweighting.  The solver still never assumes the
    # value restricted to a subgame is that subgame's regret; hindsight
    # is always measured from the initial vertex.
    assert naive_backward_regret(t3, dfa) == sv.solve_regret(t3, dfa)[1]


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
