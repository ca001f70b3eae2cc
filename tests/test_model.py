"""World-model operations: skeleton, knowledge, refinement, products, paths."""

import math

import pytest

from regretplan import fixtures
from regretplan import model as md
from regretplan.errors import (
    AtomMismatch,
    InconsistentKnowledge,
    NegativeWeight,
    TooManyUnknowns,
)
from regretplan.formula import parse, to_dfa

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

def test_skeleton_of_fully_known_is_identity(t3):
    m = fully_known_line()
    sk = md.skeleton(m)
    assert sk.successors == tuple(m.patterns[x][0] for x in range(m.n))


def test_skeleton_unions_patterns(t3):
    sk = md.skeleton(t3)
    assert sk.successors[1] == (0, 3)


def test_skeleton_union_of_overlapping_patterns():
    m = md.Pkwts(
        n=3,
        initial=0,
        patterns=(((1,),), ((0,), (0, 2)), ((0,),)),
        weights={(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 0): 1},
        labels=(frozenset(), frozenset(), frozenset()),
    )
    assert md.skeleton(m).successors[1] == (0, 2)


# ---------------------------------------------------------------------------
# knowledge

def test_initial_knowledge_orders_known_states(t3):
    k0 = md.initial_knowledge(t3)
    assert k0.base == ((0, (1, 2)), (2, (3,)), (3, (3,)))
    assert k0.suffix == ()


def test_initial_knowledge_fully_known_covers_everything():
    m = fully_known_line()
    k0 = md.initial_knowledge(m)
    assert [x for x, _ in k0.items()] == [0, 1, 2]


def test_update_appends_new_observation(t3):
    k0 = md.initial_knowledge(t3)
    k1 = md.update(k0, (1, (3,)))
    assert k1.suffix == ((1, (3,)),)
    assert k0.suffix == ()  # original untouched


def test_update_is_identity_on_explored(t3):
    k0 = md.initial_knowledge(t3)
    k1 = md.update(k0, (1, (3,)))
    assert md.update(k1, (1, (3,))) is k1
    assert md.update(k1, (0, (1, 2))) is k1


def test_update_rejects_conflict(t3):
    k0 = md.initial_knowledge(t3)
    k1 = md.update(k0, (1, (3,)))
    with pytest.raises(InconsistentKnowledge):
        md.update(k1, (1, (0,)))


def test_knowledge_equality_ignores_base(t3):
    k0 = md.initial_knowledge(t3)
    other = md.KnowledgeSet((), ())
    assert k0 == other  # same (empty) exploration suffix


# ---------------------------------------------------------------------------
# refine

def test_refine_with_initial_knowledge_is_identity(t3):
    refined = md.refine(t3, md.initial_knowledge(t3))
    assert refined.patterns == t3.patterns


def test_refine_resolves_unknown(t3):
    k = md.update(md.initial_knowledge(t3), (1, (3,)))
    refined = md.refine(t3, k)
    assert refined.patterns[1] == ((3,),)
    assert refined.fully_known
    assert md.is_compatible(fixtures.t3_env_yes(), refined)
    assert not md.is_compatible(fixtures.t3_env_no(), refined)


def test_refine_idempotent(t3):
    k = md.update(md.initial_knowledge(t3), (1, (0,)))
    once = md.refine(t3, k)
    assert md.refine(once, k).patterns == once.patterns


def test_refine_commutes_with_knowledge_growth(t3):
    k0 = md.initial_knowledge(t3)
    k1 = md.update(k0, (1, (3,)))
    assert md.refine(md.refine(t3, k0), k1).patterns == md.refine(t3, k1).patterns


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
    assert p.initial in p.accepting
    assert p.shortest_accepting_cost() == 0


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
                in_acc = s in p.accepting
                for y in path[1:]:
                    s = next(t for t, _ in p.adj[s] if t[0] == y)
                    in_acc = s in p.accepting
                trace = [env.labels[x] for x in path]
                assert in_acc == target_dfa.accepts(trace), path


def test_dijkstra_source_in_targets():
    adj = {0: ((1, 5),), 1: ()}
    dist, _ = md.dijkstra(adj, 0)
    assert dist[0] == 0


def test_dijkstra_unreachable_is_absent():
    adj = {0: ((1, 5),), 1: (), 2: ()}
    dist, _ = md.dijkstra(adj, 0)
    assert 2 not in dist


def test_dijkstra_negative_weight():
    with pytest.raises(NegativeWeight):
        md.dijkstra({0: ((1, -1),), 1: ()}, 0)


def test_shortest_path_reconstruction():
    adj = {0: ((1, 1), (2, 5)), 1: ((2, 1),), 2: ()}
    cost, path = md.shortest_path_to(adj, 0, {2})
    assert cost == 2
    assert path == [0, 1, 2]


def test_history_checker(t3):
    good = ((0, (1, 2)), (1, (0,)), (0, (1, 2)), (2, (3,)), (3, (3,)))
    assert md.check_history(t3, good)
    bad_move = ((0, (1, 2)), (3, (3,)))
    assert not md.check_history(t3, bad_move)
    flip_flop = ((0, (1, 2)), (1, (0,)), (0, (1, 2)), (1, (3,)))
    assert not md.check_history(t3, flip_flop)


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
    back = md.wts_from_json(md.wts_to_json(t))
    assert back.successors == t.successors
    assert back.weights == t.weights


def test_wts_json_rejects_multi_pattern(t3):
    with pytest.raises(ValueError):
        md.wts_from_json(md.model_to_json(t3))
