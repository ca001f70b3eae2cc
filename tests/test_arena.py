"""Game-arena construction and play bookkeeping."""

import hashlib
import json
import tracemalloc

import pytest

from regretplan import arena as ar
from regretplan import fixtures
from regretplan import model as md
from regretplan import solver as sv
from regretplan.errors import ArenaTooLarge
from regretplan.formula import parse, to_dfa
from regretplan.grid import grid_compile
from regretplan.model import INF
from test_model import skeleton
from test_solver import (case_study, edge_slot, id_of, in_slots,
                         multi_goal_model, random_models, reference_minmax,
                         regret_terminal, slots, zero)


@pytest.fixture
def t3():
    return fixtures.t3()


@pytest.fixture
def dfa():
    return to_dfa(parse("F target"), {"target"})


@pytest.fixture
def t3_arena(t3, dfa):
    return ar.build_ordered_arena(t3, dfa)


def vertex(arena, kind, x, q, sfx, xhat=None):
    vt = (kind, x, q, sfx) if xhat is None else (kind, x, q, sfx, xhat)
    return id_of(arena, vt)


def test_initial_vertex(t3_arena):
    assert t3_arena.v0 == 0
    kind, x, q, sfx = t3_arena.vertex(0)
    assert (kind, x, sfx) == (ar.AGENT, 0, ())


def test_bipartite(t3_arena):
    for u, v, _ in t3_arena.edges():
        assert t3_arena.is_agent(u) != t3_arena.is_agent(v)


def test_weights_on_movement_edges_only(t3, t3_arena):
    for u, v, w in t3_arena.edges():
        if t3_arena.is_agent(u):
            assert w == 0
        else:
            x_e = t3_arena.vertex(u)[1]
            x_a = t3_arena.vertex(v)[1]
            assert w == t3.weights[(x_e, x_a)]


def test_env_branching_on_unexplored(t3_arena):
    ve = vertex(t3_arena, ar.ENV, 0, 0, (), xhat=1)
    assert len(t3_arena.fwd[ve]) == 2


def test_env_determinism_on_explored(t3_arena):
    for vid in range(t3_arena.n):
        vt = t3_arena.vertex(vid)
        if vt[0] != ar.ENV:
            continue
        xhat, sfx = vt[4], vt[3]
        explored = xhat in {0, 2, 3} or any(s == xhat for s, _ in sfx)
        if explored:
            assert len(t3_arena.fwd[vid]) == 1, vt


def test_knowledge_monotone_along_edges(t3_arena):
    for u, v, _ in t3_arena.edges():
        su, sv = t3_arena.vertex(u)[3], t3_arena.vertex(v)[3]
        assert sv[: len(su)] == su


def test_accepting_are_agent_vertices_with_final_q(t3_arena, dfa):
    assert t3_arena.accepting
    for vid in t3_arena.accepting:
        vt = t3_arena.vertex(vid)
        assert vt[0] == ar.AGENT and vt[2] in dfa.accepting


def test_size_bound(t3, dfa, t3_arena):
    assert t3_arena.n <= ar.size_bound(t3, dfa)


def test_vertex_cap(t3, dfa):
    with pytest.raises(ArenaTooLarge):
        ar.build_ordered_arena(t3, dfa, cap=4)


def test_fully_known_arena_mirrors_product(dfa):
    m = md.Pkwts(
        n=3,
        initial=0,
        patterns=(((1,),), ((2,),), ((2,),)),
        weights={(0, 1): 2, (1, 2): 3, (2, 2): 4},
        labels=(frozenset(), frozenset(), frozenset({"target"})),
    )
    arena = ar.build_ordered_arena(m, dfa)
    prod = md.product(skeleton(m), dfa)
    agent_states = {
        (arena.x[v], arena.q[v]) for v in range(arena.n) if arena.is_agent(v)
    }
    assert agent_states == {s for s, _ in md.dijkstra(prod, prod.initial)}
    for vid in range(arena.n):
        if not arena.is_agent(vid):
            assert len(arena.fwd[vid]) == 1


def quotient_image(arena, v):
    vt = arena.vertex(v)
    return vt[:3] + (tuple(sorted(vt[3])),) + vt[4:]


def order_free_image_dead_vertices(m, a):
    """Map the ordered arena of (m, a), walked up to acceptance or a dead
    automaton state, onto its quotient and check the image edge by edge;
    return the reached ordered vertices with a dead q, and both arenas."""
    ordered = ar.build_ordered_arena(m, a)
    quotient = ar.build_arena(m, a)
    ids = {quotient.vertex(v): v for v in range(quotient.n)}
    assert len(ids) == quotient.n < ordered.n

    def image(v):
        return ids[quotient_image(ordered, v)]

    def move(e):
        succs = ordered.fwd[e]
        return succs[0] if len(succs) == 1 else (e, 0)

    accepting = set(ordered.accepting)
    ends = accepting | {v for v in range(ordered.n) if ordered.q[v] in a.dead}
    reached, stack = {ordered.v0}, [ordered.v0]
    while stack:
        v = stack.pop()
        if v not in ends:
            for t, _ in ordered.fwd[v]:
                if t not in reached:
                    reached.add(t)
                    stack.append(t)
    assert len(reached) < ordered.n

    images = set()
    for v in sorted(reached):
        if v in ends:
            moves = []
        elif ordered.is_agent(v):
            moves = [move(e) for e, _ in ordered.fwd[v]]
        elif len(ordered.fwd[v]) > 1:
            moves = sorted(ordered.fwd[v])
        else:
            continue
        images.add(image(v))
        assert [(image(t), w) for t, w in moves] == quotient.fwd[image(v)]
    assert images == set(range(quotient.n))
    assert image(ordered.v0) == quotient.v0
    assert {image(v) for v in accepting & reached} == set(quotient.accepting)
    assert all(quotient.fwd[v] == [] for v in quotient.accepting)
    for sfx in quotient.suffixes:
        assert list(sfx) == sorted(sfx)
    return (ends - accepting) & reached, ordered, quotient


def test_quotient_is_the_order_free_image_of_the_arena():
    # forgetting the exploration order and contracting every env vertex
    # with one successor maps the ordered arena, walked up to acceptance,
    # onto the quotient: an agent maps to an agent, a branching env vertex
    # to an env vertex, and a single-successor env vertex to the edge from
    # its agent to the image of its successor, with the same weight; an
    # agent's moves keep their order, which decides the tie-break; an
    # accepting vertex ends every play, so its image has an empty row.
    # F fire has no dead automaton state; under (!a U b), reaching a
    # before b does, and a vertex there is lost in both games, so the
    # quotient ends it with an empty row too
    m = grid_compile(fixtures.CASE_STUDY_GRID)
    a = to_dfa(parse("F fire"), {"fire", "extinguisher"})
    assert not a.dead
    dead, _, quotient = order_free_image_dead_vertices(m, a)
    assert dead == set() and quotient.accepting
    # the two builders share no expansion code: the image check ties them
    # together on the small models too
    target = to_dfa(parse("F target"), {"target"})
    cases = [(fixtures.t3(), target),
             (grid_compile(fixtures.FIG1_GRID),
              to_dfa(parse(fixtures.FIG1_TASK), {"f"}))]
    cases += [(m, target) for m in random_models()]
    assert len(cases) == 42
    for m, a in cases:
        assert order_free_image_dead_vertices(m, a)[0] == set()

    trap = to_dfa(parse("(!a U b)"), {"a", "b"})
    assert trap.dead
    checked = 0
    for seed in range(50, 60):
        m = multi_goal_model(seed)
        if m is None:
            continue
        dead, ordered, quotient = order_free_image_dead_vertices(m, trap)
        if not dead or not quotient.accepting:
            continue
        for terminal in (zero, regret_terminal(m, trap, ordered)):
            values = reference_minmax(ordered, ordered.wt, terminal)[0]
            assert all(values[v] == INF for v in dead)
        checked += 1
    assert checked >= 8


def test_quotient_cap_counts_contracted_env_vertices():
    # the cap counts the uncontracted quotient up to acceptance or a dead
    # automaton state, 14,133 vertices on the case study: every contracted
    # env vertex counts, and an accepting or dead vertex counts but its
    # successors are never built
    m = grid_compile(fixtures.CASE_STUDY_GRID)
    a = to_dfa(parse(fixtures.CASE_STUDY_TASK), {"fire", "extinguisher"})
    with pytest.raises(ArenaTooLarge):
        ar.build_arena(m, a, cap=14_132)
    assert ar.build_arena(m, a, cap=14_133).n == 4_391


# ---------------------------------------------------------------------------
# plays

SFX_YES = ((1, (3,)),)
SFX_NO = ((1, (0,)),)


def shortcut_play(arena):
    return [
        vertex(arena, ar.AGENT, 0, 0, ()),
        vertex(arena, ar.ENV, 0, 0, (), xhat=1),
        vertex(arena, ar.AGENT, 1, 0, SFX_YES),
        vertex(arena, ar.ENV, 1, 0, SFX_YES, xhat=3),
        vertex(arena, ar.AGENT, 3, 1, SFX_YES),
    ]


def detour_play(arena):
    return [
        vertex(arena, ar.AGENT, 0, 0, ()),
        vertex(arena, ar.ENV, 0, 0, (), xhat=1),
        vertex(arena, ar.AGENT, 1, 0, SFX_NO),
        vertex(arena, ar.ENV, 1, 0, SFX_NO, xhat=0),
        vertex(arena, ar.AGENT, 0, 0, SFX_NO),
        vertex(arena, ar.ENV, 0, 0, SFX_NO, xhat=2),
        vertex(arena, ar.AGENT, 2, 0, SFX_NO),
        vertex(arena, ar.ENV, 2, 0, SFX_NO, xhat=3),
        vertex(arena, ar.AGENT, 3, 1, SFX_NO),
    ]


def play_cost(arena, play):
    """Total movement weight along a play; every hop must be an edge."""
    total = 0
    for u, v in zip(play, play[1:]):
        e = edge_slot(arena, u, v)
        if e is None:
            raise ValueError(f"({u},{v}) is not an arena edge")
        total += arena.wt[e]
    return total


def test_play_cost_single_vertex(t3_arena):
    assert play_cost(t3_arena, [t3_arena.v0]) == 0


def test_play_cost_shortcut(t3_arena):
    assert play_cost(t3_arena, shortcut_play(t3_arena)) == 2


def test_play_cost_detour(t3_arena):
    assert play_cost(t3_arena, detour_play(t3_arena)) == 12


def test_play_cost_rejects_non_edges(t3_arena):
    with pytest.raises(ValueError, match="not an arena edge"):
        play_cost(t3_arena, [t3_arena.v0, t3_arena.v0])


def all_plays(arena, max_len):
    plays = [[arena.v0]]
    out = [[arena.v0]]
    for _ in range(max_len - 1):
        plays = [p + [v] for p in plays for v, _ in arena.fwd[p[-1]]]
        out.extend(plays)
        if not plays:
            break
    return out


def test_same_endpoint_same_branching_sequence(t3_arena):
    # plays that meet again must have revealed the same unknowns in the
    # same order
    by_end = {}
    for play in all_plays(t3_arena, 12):
        end = play[-1]
        if not t3_arena.is_agent(end):
            continue
        branchers = tuple(
            v for v in play
            if not t3_arena.is_agent(v) and len(t3_arena.fwd[v]) >= 2
        )
        by_end.setdefault(end, set()).add(branchers)
    for end, variants in by_end.items():
        assert len(variants) == 1, (end, variants)


def test_knowledge_chain_along_plays(t3_arena):
    for play in all_plays(t3_arena, 10):
        sfxs = [t3_arena.vertex(v)[3] for v in play]
        for a, b in zip(sfxs, sfxs[1:]):
            assert b[: len(a)] == a


def test_arena_json_shape(t3_arena):
    data = ar.arena_to_json(t3_arena)
    assert data["initial"] == 0
    assert len(data["vertices"]) == t3_arena.n
    assert all({"from", "to", "w"} <= set(e) for e in data["edges"])


# ---------------------------------------------------------------------------
# compact storage

def test_id_of_is_strict(t3_arena):
    assert id_of(t3_arena, t3_arena.vertex(7)) == 7
    with pytest.raises(KeyError):
        id_of(t3_arena, (ar.AGENT, 0, 0, ((1, (2,)),)))
    with pytest.raises(KeyError):
        id_of(t3_arena, (ar.ENV, 0, 0, (), 3))


def test_in_edge_index_lists_each_incoming_slot_once(t3_arena):
    # each vertex's in-edge list gives exactly the slots whose target it
    # is, each once, in both builds: the ordered arenas of T3 and FIG1,
    # and the case study's cut build at each f it offers up to the regret
    # game's largest limit 2U - h(v0), then INF.  The lists run newest
    # slot first, not by source.  Each row, likewise, is exactly the run
    # of slots whose source is its vertex
    def check(arena):
        entering = [[] for _ in range(arena.n)]
        leaving = [[] for _ in range(arena.n)]
        for e, (u, v, _) in enumerate(arena.edges()):
            entering[v].append(e)
            leaving[u].append(e)
        for v in range(arena.n):
            assert in_slots(arena, v) == entering[v][::-1], v
            assert list(slots(arena, v)) == leaving[v], v

    fig1 = (grid_compile(fixtures.FIG1_GRID),
            to_dfa(parse(fixtures.FIG1_TASK), {"f"}))
    check(t3_arena)
    check(ar.build_ordered_arena(*fig1))
    m, a = case_study()
    u, h0 = sv.QuotientGame(m, a).bounds()
    build, rounds = ar.CutBuild(m, a), 0
    while build.next_f is not None:
        limit = build.next_f if build.next_f <= 2 * u - h0 else INF
        check(build.extend(limit))
        rounds += 1
    assert rounds > 3, rounds


def arena_digest(arena):
    data = json.dumps(ar.arena_to_json(arena), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def test_arena_golden_digests(t3_arena):
    # vertex numbering decides the strategy tie-break (first successor by
    # id); these digests pin the breadth-first numbering of the tuple-keyed
    # construction this one replaced
    assert t3_arena.n == 20
    assert arena_digest(t3_arena) == (
        "7366a3aa8dd09bf43ec70122155fc4971a47ae9fbd16691a71fa2f5a55a74c2d")
    fig1 = ar.build_ordered_arena(grid_compile(fixtures.FIG1_GRID),
                          to_dfa(parse(fixtures.FIG1_TASK), {"f"}))
    assert fig1.n == 729
    assert arena_digest(fig1) == (
        "197d1e51cf8cb77ade9fa53a8e8ea490149e128a02111e2160c7ab9fd799e346")


def test_case_study_build_allocation_peak():
    # 260,202 vertices; the tuple-keyed arena peaked at 187 MB here
    m = grid_compile(fixtures.CASE_STUDY_GRID)
    a = to_dfa(parse(fixtures.CASE_STUDY_TASK), {"fire", "extinguisher"})
    tracemalloc.start()
    try:
        arena = ar.build_ordered_arena(m, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arena.n == 260_202
    assert peak <= 100 * 2 ** 20, peak / 2 ** 20


def test_case_study_quotient_build_allocation_peak():
    # 4,391 vertices; measured at 0.78 MB (1.20 MB when each round
    # gathered its rows into a new arena, 1.60 MB for the 7,442 built
    # before dead automaton states were cut), under the same 5 MB bound
    m = grid_compile(fixtures.CASE_STUDY_GRID)
    a = to_dfa(parse(fixtures.CASE_STUDY_TASK), {"fire", "extinguisher"})
    tracemalloc.start()
    try:
        arena = ar.build_arena(m, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arena.n == 4_391
    assert peak <= 5 * 2 ** 20, peak / 2 ** 20
