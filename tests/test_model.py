"""World-model operations: skeleton, refinement, products, paths."""

import heapq
import math
from random import Random

import pytest

from regretplan import fixtures
from regretplan import model as md
from regretplan import solver as sv
from regretplan.arena import build_arena, build_ordered_arena
from regretplan.errors import AtomMismatch, NegativeWeight, TooManyUnknowns
from regretplan.formula import parse, to_dfa
from test_formula import accepts

INF = math.inf


@pytest.fixture
def t3():
    return fixtures.t3()


@pytest.fixture
def target_dfa():
    return to_dfa(parse("F target"), {"target"})


def fully_known_line():
    # 0 -> 1 -> 2(goal), all known
    return md.Pkwts(
        n=3,
        initial=0,
        patterns=(((1,),), ((2,),), ((2,),)),
        weights={(0, 1): 2, (1, 2): 3, (2, 2): 4},
        labels=(frozenset(), frozenset(), frozenset({"target"})),
    )


# ---------------------------------------------------------------------------
# skeleton

def skeleton(m):
    """Most permissive world: union of all patterns at each state."""
    return md.Wts(n=m.n, initial=m.initial,
                  successors=md.skeleton_successors(m), weights=m.weights,
                  labels=m.labels)


def test_skeleton_of_fully_known_is_identity(t3):
    m = fully_known_line()
    sk = skeleton(m)
    assert sk.successors == tuple(m.patterns[x][0] for x in range(m.n))


def test_skeleton_unions_patterns(t3):
    sk = skeleton(t3)
    assert sk.successors[1] == (0, 3)


def test_skeleton_union_of_overlapping_patterns():
    m = md.Pkwts(
        n=3,
        initial=0,
        patterns=(((1,),), ((0,), (0, 2)), ((0,),)),
        weights={(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 0): 1},
        labels=(frozenset(), frozenset(), frozenset()),
    )
    assert skeleton(m).successors[1] == (0, 2)


# ---------------------------------------------------------------------------
# refine: the reference model of an exploration suffix, read by the
# optimistic-policy and best-response references in test_solver.py

def to_pkwts(t):
    """The possible-world model with the one pattern of each state of the
    concrete environment ``t``."""
    return md.Pkwts(n=t.n, initial=t.initial,
                    patterns=tuple((succ,) for succ in t.successors),
                    weights=t.weights, labels=t.labels)


def refine(m, suffix):
    """Pin each explored state to the pattern it showed."""
    observed = dict(suffix)
    patterns = tuple(
        ((observed[x],) if x in observed else m.patterns[x]) for x in range(m.n)
    )
    return md.Pkwts(n=m.n, initial=m.initial, patterns=patterns,
                    weights=m.weights, labels=m.labels, coins=m.coins)


def test_refine_with_initial_knowledge_is_identity(t3):
    refined = refine(t3, ())
    assert refined.patterns == t3.patterns


def test_refine_resolves_unknown(t3):
    refined = refine(t3, ((1, (3,)),))
    assert refined.patterns[1] == ((3,),)
    assert refined.fully_known
    assert md.is_compatible(fixtures.t3_env_yes(), refined)
    assert not md.is_compatible(fixtures.t3_env_no(), refined)


def test_refine_idempotent(t3):
    suffix = ((1, (0,)),)
    once = refine(t3, suffix)
    assert refine(once, suffix).patterns == once.patterns


def test_refine_commutes_with_knowledge_growth(t3):
    suffix = ((1, (3,)),)
    assert refine(refine(t3, ()), suffix).patterns == refine(t3, suffix).patterns


# ---------------------------------------------------------------------------
# compatible environments

def test_compatible_envs_counts(t3):
    assert len(list(md.compatible_envs(fully_known_line()))) == 1
    envs = list(md.compatible_envs(t3))
    assert len(envs) == 2
    assert envs[0].successors[1] == (3,)
    assert envs[1].successors[1] == (0,)


def test_compatible_envs_product_count():
    m = md.Pkwts(
        n=4,
        initial=0,
        patterns=(
            ((1, 2),),
            ((3,), (0,)),
            ((3,), (0,)),
            ((3,),),
        ),
        weights={(0, 1): 1, (0, 2): 1, (1, 3): 1, (1, 0): 1,
                 (2, 3): 1, (2, 0): 1, (3, 3): 0},
        labels=(frozenset(), frozenset(), frozenset(), frozenset({"target"})),
    )
    envs = list(md.compatible_envs(m))
    assert len(envs) == 4
    assert all(md.is_compatible(t, m) for t in envs)


def test_compatible_envs_cap(t3):
    with pytest.raises(TooManyUnknowns):
        md.compatible_envs(t3, cap=0)


# ---------------------------------------------------------------------------
# product and shortest paths

def test_product_accepting_at_start(target_dfa):
    m = md.Wts(
        n=2,
        initial=0,
        successors=((1,), (0,)),
        weights={(0, 1): 1, (1, 0): 1},
        labels=(frozenset({"target"}), frozenset()),
    )
    p = md.product(m, target_dfa)
    assert p.accepting(p.initial)
    assert md.shortest_satisfying_cost(m, target_dfa) == 0


def test_product_costs_on_t3_envs(target_dfa):
    assert md.shortest_satisfying_cost(fixtures.t3_env_yes(), target_dfa) == 2
    assert md.shortest_satisfying_cost(fixtures.t3_env_no(), target_dfa) == 10


def test_product_rejects_atom_mismatch(target_dfa):
    m = md.Wts(
        n=1,
        initial=0,
        successors=((0,),),
        weights={(0, 0): 1},
        labels=(frozenset({"other"}),),
    )
    with pytest.raises(AtomMismatch):
        md.product(m, target_dfa)
    # the optimistic policy builds its product once, when it is made
    with pytest.raises(AtomMismatch):
        sv.best_case_policy(to_pkwts(m), target_dfa)
    # the arena builds and the best response index the labels the same way
    for build in (build_arena, build_ordered_arena, sv.BestResponse):
        with pytest.raises(AtomMismatch):
            build(to_pkwts(m), target_dfa)


def test_product_path_acceptance_matches_dfa(target_dfa):
    # exhaustive over short paths: product acceptance iff trace is accepted
    for env in (fixtures.t3_env_yes(), fixtures.t3_env_no()):
        p = md.product(env, target_dfa)
        paths = [[env.initial]]
        for _ in range(5):
            paths = [
                path + [y]
                for path in paths
                for y in env.successors[path[-1]]
            ]
            for path in paths:
                s = (env.initial, target_dfa.step(target_dfa.initial,
                                                  env.labels[env.initial]))
                in_acc = p.accepting(s)
                for y in path[1:]:
                    s = next(t for t, _ in p.get(s) if t[0] == y)
                    in_acc = p.accepting(s)
                trace = [env.labels[x] for x in path]
                assert in_acc == accepts(target_dfa, trace), path


def test_dijkstra_source_in_targets():
    adj = {0: ((1, 5),), 1: ()}
    dist = dict(md.dijkstra(adj, 0))
    assert dist[0] == 0


def test_dijkstra_unreachable_is_absent():
    adj = {0: ((1, 5),), 1: (), 2: ()}
    dist = dict(md.dijkstra(adj, 0))
    assert 2 not in dist


def test_dijkstra_negative_weight():
    with pytest.raises(NegativeWeight):
        list(md.dijkstra({0: ((1, -1),), 1: ()}, 0))


def test_shortest_path_reconstruction():
    adj = {0: ((1, 1), (2, 5)), 1: ((2, 1),), 2: ()}
    cost, path = md.shortest_path_to(adj, 0, {2}.__contains__)
    assert cost == 2
    assert path == [0, 1, 2]


def reference_dijkstra(adj, source):
    """Exhaustive Dijkstra keeping, for each vertex, the least vertex
    settled before it on a tight edge; returns (dist, pred)."""
    dist = {source: 0}
    pred = {source: None}
    heap = [(0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj.get(u, ()):
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and v not in done and pred[v] is not None and u < pred[v]:
                pred[v] = u
    return dist, pred


def reference_path_to(adj, source, targets):
    dist, pred = reference_dijkstra(adj, source)
    reached = [(dist[s], s) for s in targets if s in dist]
    if not reached:
        return INF, None
    cost, cur = min(reached)
    path = []
    while cur is not None:
        path.append(cur)
        cur = pred[cur]
    return cost, path[::-1]


def test_shortest_path_picks_least_target_settled_after_the_first():
    # target 2 settles first, but target 1 costs the same and is less
    adj = {0: ((2, 1),), 2: ((1, 0),), 1: ()}
    assert md.shortest_path_to(adj, 0, {1, 2}.__contains__) == (1, [0, 2, 1])


def test_shortest_path_predecessor_tie_prefers_least_vertex():
    # 1 and 4 both reach 2 at cost 2; 1 is less
    adj = {0: ((3, 1), (4, 1)), 3: ((1, 0),), 4: ((2, 1),), 1: ((2, 1),), 2: ()}
    assert md.shortest_path_to(adj, 0, {2}.__contains__) == (2, [0, 3, 1, 2])


def test_shortest_path_matches_exhaustive_reference():
    # zero-weight edges and few distinct weights make many equal-cost ties
    rng = Random(7)
    long_paths = target_ties = 0
    for _ in range(400):
        n = rng.randint(2, 12)
        adj = {
            u: tuple((rng.randrange(n), rng.choice((0, 0, 1, 1, 2)))
                     for _ in range(rng.randint(1, 4)))
            for u in range(n)
        }
        targets = set(rng.sample(range(1, n), rng.randint(1, n - 1)))
        cost, path = reference_path_to(adj, 0, targets)
        assert md.shortest_path_to(adj, 0, targets.__contains__) == (cost, path), (adj, targets)
        if path is not None:
            dist, _ = reference_dijkstra(adj, 0)
            long_paths += len(path) > 2
            target_ties += sum(dist.get(t) == cost for t in targets) > 1
    assert long_paths > 100 and target_ties > 100


def test_shortest_path_from_a_path_vertex_is_the_rest_of_the_path():
    # the optimistic policy keeps a search's whole path as its plan, which
    # is exact only if every vertex on the path would choose its rest
    rng = Random(11)
    paths = inner = 0
    for _ in range(1000):
        n = rng.randint(2, 12)
        adj = {
            u: tuple((rng.randrange(n), rng.choice((0, 0, 1, 1, 2)))
                     for _ in range(rng.randint(1, 4)))
            for u in range(n)
        }
        # few targets, so that paths are long
        targets = set(rng.sample(range(1, n), rng.randint(1, max(1, n // 3))))
        cost, path = md.shortest_path_to(adj, 0, targets.__contains__)
        if path is None:
            continue
        paths += 1
        dist, _ = reference_dijkstra(adj, 0)
        for i in range(1, len(path) - 1):
            inner += 1
            assert (md.shortest_path_to(adj, path[i], targets.__contains__)
                    == (cost - dist[path[i]], path[i:])), (adj, targets, path, i)
    assert paths > 800 and inner > 600


def check_history(m, history):
    """Validate a knowledge sequence: moves follow observations, repeated
    states repeat their observation, observations come from the model."""
    seen = {}
    for i, (x, o) in enumerate(history):
        o = tuple(o)
        if tuple(sorted(o)) not in {tuple(sorted(p)) for p in m.patterns[x]}:
            return False
        if x in seen and seen[x] != o:
            return False
        seen[x] = o
        if i + 1 < len(history) and history[i + 1][0] not in o:
            return False
    return True


def test_history_checker(t3):
    good = ((0, (1, 2)), (1, (0,)), (0, (1, 2)), (2, (3,)), (3, (3,)))
    assert check_history(t3, good)
    bad_move = ((0, (1, 2)), (3, (3,)))
    assert not check_history(t3, bad_move)
    flip_flop = ((0, (1, 2)), (1, (0,)), (0, (1, 2)), (1, (3,)))
    assert not check_history(t3, flip_flop)


# ---------------------------------------------------------------------------
# JSON round trip

def test_model_json_roundtrip(t3):
    data = md.model_to_json(t3)
    back = md.model_from_json(data)
    assert back.patterns == t3.patterns
    assert back.weights == t3.weights
    assert back.labels == t3.labels


def test_wts_json_roundtrip():
    t = fixtures.t3_env_yes()
    back = md.wts_from_json(md.model_to_json(to_pkwts(t)))
    assert back.successors == t.successors
    assert back.weights == t.weights


def test_wts_json_rejects_multi_pattern(t3):
    with pytest.raises(ValueError):
        md.wts_from_json(md.model_to_json(t3))
