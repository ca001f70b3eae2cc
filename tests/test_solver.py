"""Regret, worst-case, and best-case synthesis on the T3 scenario."""

import heapq
import math
from collections import deque
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


def test_best_response_stops_at_first_accepting_vertex(dfa):
    # unknown state 1 leads to the target (cost 2) or to a 20-cost detour
    # through 3 and 4; the search must not expand past distance 2
    m = md.Pkwts(
        n=5,
        initial=0,
        patterns=(((1,),), ((2,), (3,)), ((2,),), ((4,),), ((2,),)),
        weights={(0, 1): 1, (1, 2): 1, (1, 3): 1, (3, 4): 10, (4, 2): 10,
                 (2, 2): 0},
        labels=(frozenset(), frozenset(), frozenset({"target"}),
                frozenset(), frozenset()),
    )
    # search vertex (x, q, row) -> distance, keyed by x and row
    distance = {(0, (-1,)): 0, (1, (-1,)): 1, (2, (0,)): 2, (3, (1,)): 2,
                (4, (1,)): 12, (2, (1,)): 22}

    class Recording(sv.BestResponse):
        def get(self, u, default=None):
            self.expanded.append(distance[u[0], u[2]])
            return super().get(u, default)

    br = Recording(m, dfa)
    br.expanded = []
    assert br(()) == 2
    assert br.expanded and max(br.expanded) <= 2
    assert sv.BestResponse(m, dfa)(((1, (3,)),)) == 22


# ---------------------------------------------------------------------------
# the paper's shortest-play reduction, kept as a test-side reference

def test_esp_contains_both_routes(t3_arena):
    edges, _ = reference_e_sp(t3_arena)
    v0 = t3_arena.v0
    commit_s1 = t3_arena.id_of((ar.ENV, 0, 0, (), 1))
    commit_s2 = t3_arena.id_of((ar.ENV, 0, 0, (), 2))
    assert t3_arena.edge_slot(v0, commit_s1) in edges
    assert t3_arena.edge_slot(v0, commit_s2) in edges


def test_esp_excludes_strictly_longer_detour(t3_arena):
    edges, _ = reference_e_sp(t3_arena)
    # re-committing to the explored state 1 after bouncing back is never
    # on a cheapest play to any final vertex
    env_retry = t3_arena.id_of((ar.ENV, 0, 0, SFX_NO, 1))
    agent_retry = t3_arena.id_of((ar.AGENT, 1, 0, SFX_NO))
    retry = t3_arena.edge_slot(env_retry, agent_retry)
    assert retry is not None
    assert retry not in edges


def test_esp_linear_chain_all_edges(dfa):
    m = fully_known_line()
    arena = ar.build_arena(m, dfa)
    edges, _ = reference_e_sp(arena)
    chain = [
        arena.id_of((ar.AGENT, 0, 0, ())),
        arena.id_of((ar.ENV, 0, 0, (), 1)),
        arena.id_of((ar.AGENT, 1, 0, ())),
        arena.id_of((ar.ENV, 1, 0, (), 2)),
        arena.id_of((ar.AGENT, 2, 1, ())),
    ]
    for u, v in zip(chain, chain[1:]):
        assert arena.edge_slot(u, v) in edges


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
        reference_e_sp(arena)


def mu_for(t3, dfa, t3_arena):
    return reference_mu(t3_arena, sv.BestResponse(t3, dfa))


def test_mu_values_on_final_edges(t3, dfa, t3_arena):
    mu = mu_for(t3, dfa, t3_arena)
    f_short = t3_arena.id_of((ar.AGENT, 3, 1, SFX_YES))
    f_detour = t3_arena.id_of((ar.AGENT, 3, 1, SFX_NO))
    f_direct = t3_arena.id_of((ar.AGENT, 3, 1, ()))
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


def test_minmax_value_zero_when_start_accepting(dfa):
    m = md.Pkwts(
        n=2,
        initial=0,
        patterns=(((1,),), ((1,),)),
        weights={(0, 1): 1, (1, 1): 1},
        labels=(frozenset({"target"}), frozenset()),
    )
    arena = ar.build_arena(m, dfa)
    result = sv.solve_minmax(arena, zero)
    assert result.values[arena.v0] == 0
    assert result.choices[arena.v0] is None


def test_minmax_regret_objective(t3, dfa, t3_arena):
    # accepting vertices hold minus the best response of their knowledge:
    # -2 after the shortcut is seen, -10 after the wall, -2 with none seen
    terminal = regret_terminal(t3, dfa, t3_arena)
    f_short = t3_arena.id_of((ar.AGENT, 3, 1, SFX_YES))
    f_detour = t3_arena.id_of((ar.AGENT, 3, 1, SFX_NO))
    f_direct = t3_arena.id_of((ar.AGENT, 3, 1, ()))
    assert [terminal(f) for f in (f_short, f_detour, f_direct)] == [-2, -10, -2]
    result = sv.solve_minmax(t3_arena, terminal)
    assert result.values[t3_arena.v0] == 2
    commit_s1 = t3_arena.id_of((ar.ENV, 0, 0, (), 1))
    assert result.choices[t3_arena.v0] == commit_s1


def test_minmax_worst_objective(t3, dfa, t3_arena):
    result = sv.solve_minmax(t3_arena, zero)
    assert result.values[t3_arena.v0] == 10
    commit_s2 = t3_arena.id_of((ar.ENV, 0, 0, (), 2))
    assert result.choices[t3_arena.v0] == commit_s2


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
    arena = ar.build_arena(m, dfa)
    result = sv.solve_minmax(arena, lambda v: -100 if arena.x[v] == 2 else 0)
    assert result.values[arena.v0] == 1
    first = arena.id_of((ar.AGENT, 1, 1, ()))
    assert (result.values[first], result.choices[first]) == (0, None)


def test_minmax_converges_within_vertex_count(t3, dfa, t3_arena):
    # each vertex settles at most once, and exactly the vertices with a
    # finite value settle
    for terminal in (zero, regret_terminal(t3, dfa, t3_arena)):
        result = sv.solve_minmax(t3_arena, terminal)
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
    assert md.shortest_satisfying_cost(md.skeleton(m), dfa) == 4
    assert sv.best_response(m, dfa, md.initial_knowledge(m)) == INF


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
    assert sv.best_response(hub, dfa, md.initial_knowledge(hub)) == INF


def reference_best_response(m, a, suffix):
    """Enumerating reference for BestResponse: the cheapest satisfying
    cost over every completion of the refined model."""
    k = md.KnowledgeSet(md.initial_knowledge(m).base, suffix)
    return min(md.shortest_satisfying_cost(t, a)
               for t in md.compatible_envs(md.refine(m, k)))


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
    assert len(cases) > 60
    for m, a in cases:
        arena = ar.build_arena(m, a)
        br = sv.BestResponse(m, a)
        for suffix in {arena.suffixes[arena.sfx[v]] for v in arena.accepting}:
            assert br(suffix) == reference_best_response(m, a, suffix)


def test_best_response_memo_ignores_exploration_order():
    m, a = case_study()
    suffix = tuple((x, m.patterns[x][-1]) for x in m.unknown_states)
    assert len(suffix) >= 2
    br = sv.BestResponse(m, a)
    assert br(suffix) == br(suffix[::-1]) == reference_best_response(m, a, suffix)
    assert len(br.memo) == 1


def slots(arena, v):
    return range(arena.start[v], arena.start[v + 1])


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
    arena = ar.build_arena(m, dfa)
    br = sv.BestResponse(m, dfa)
    values = backward_values(arena, arena.wt,
                             lambda v: -br(arena.vertex(v)[3]))
    return values[arena.v0]


def reference_minmax(arena, weights, terminal):
    """Value-iteration reference for solve_minmax, with the same choice
    rule: the first successor by id that attains the value, skipping an
    env vertex whose only move returns to the deciding vertex."""
    values = backward_values(arena, weights, terminal)
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
    arena = ar.build_arena(m, a)
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
    # arena and on its quotient, for both objectives' terminal values
    cases = [(fixtures.t3(), dfa),
             (gr.grid_compile(fixtures.FIG1_GRID),
              to_dfa(parse(fixtures.FIG1_TASK), {"f"}))]
    cases += [(m, dfa) for m in random_models()]
    for m, a in cases:
        for quotient in (False, True):
            arena = ar.build_arena(m, a, quotient=quotient)
            for terminal in (zero, regret_terminal(m, a, arena)):
                result = sv.solve_minmax(arena, terminal)
                assert (result.values, result.choices) == \
                    reference_minmax(arena, arena.wt, terminal)


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
