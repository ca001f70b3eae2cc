"""ASCII map ingestion and the two bundled map fixtures."""

import hashlib
import json

import pytest

from regretplan import bench, fixtures
from regretplan import grid as gr
from regretplan import model as md
from regretplan import oracle as orc
from regretplan import solver as sv
from regretplan.errors import MalformedGrid, UnknownGlyph
from regretplan.execute import run
from regretplan.formula import parse, to_dfa


def test_two_free_cells_mutual_edges():
    m = gr.grid_compile("I..")
    assert m.n == 2
    assert m.patterns == (((1,),), ((0,),))
    assert m.weights == {(0, 1): 1, (1, 0): 1}
    assert m.fully_known


POSSIBLE_WALL_SQUARE = "I..\n..~\n..."


def test_possible_wall_makes_both_cells_unknown():
    m = gr.grid_compile(POSSIBLE_WALL_SQUARE)
    assert m.n == 4
    assert m.unknown_states == (1, 3)
    assert len(m.patterns[1]) == 2
    assert len(m.patterns[3]) == 2
    assert m.coins == ((1, 3),)


def test_known_wall_blocks_both_ways():
    m = gr.grid_compile("I|.\n...\n...")
    # top pair separated, connected around through the bottom row
    assert 1 not in m.patterns[0][0]
    assert 0 not in m.patterns[1][0]


def test_solid_cells_are_not_states():
    m = gr.grid_compile("I...#\n.....\n.....")
    assert m.n == 5


def test_labeled_cell_gets_free_self_loop():
    m = gr.grid_compile("I.f")
    f = 1
    assert m.weights[(f, f)] == 0
    assert f in m.patterns[f][0]
    assert m.labels[f] == frozenset({"f"})


def test_legend_renames_atoms():
    m = gr.grid_compile("f=fire\n\nI.f")
    assert m.labels[1] == frozenset({"fire"})


def test_requires_one_initial():
    with pytest.raises(MalformedGrid):
        gr.grid_compile("...")
    with pytest.raises(MalformedGrid):
        gr.grid_compile("I.I")


def test_rejects_unknown_glyphs():
    with pytest.raises(UnknownGlyph):
        gr.grid_compile("I.Z")
    with pytest.raises(UnknownGlyph):
        gr.grid_compile("I*.")


def test_rejects_walled_in_cell():
    with pytest.raises(MalformedGrid):
        gr.grid_compile("I|.")


def test_initial_must_be_known():
    with pytest.raises(MalformedGrid):
        gr.grid_compile("I:.")


def test_wall_coin_sampling_is_symmetric():
    m = gr.grid_compile(POSSIBLE_WALL_SQUARE)
    open_env = bench.sample_env(m, 0.0, seed=1)
    blocked_env = bench.sample_env(m, 1.0, seed=1)
    assert 3 in open_env.successors[1] and 1 in open_env.successors[3]
    assert 3 not in blocked_env.successors[1] and 1 not in blocked_env.successors[3]
    assert md.is_compatible(open_env, m)
    assert md.is_compatible(blocked_env, m)


# ---------------------------------------------------------------------------
# bundled fixtures

REGION2_CELL = 9  # approach-side cell of the possible wall in the small map


@pytest.fixture(scope="module")
def fig1():
    m = gr.grid_compile(fixtures.FIG1_GRID)
    dfa = to_dfa(parse(fixtures.FIG1_TASK), {"f"})
    return m, dfa


def test_fig1_shape(fig1):
    m, _ = fig1
    assert m.n == 16
    assert m.initial == 4
    assert m.unknown_states == (5, 9)
    assert m.coins == ((5, 9),)


def test_fig1_values_and_deltas(fig1):
    m, dfa = fig1
    regret_strategy, regret_value = sv.solve_regret(m, dfa)
    worst_strategy, worst_value = sv.solve_worst_case(m, dfa)
    assert regret_value == 2
    assert worst_value == 10
    wall_absent = bench.sample_env(m, 0.0, seed=1)
    wall_present = bench.sample_env(m, 1.0, seed=1)
    for env, delta in ((wall_absent, 7), (wall_present, -2)):
        r = run(regret_strategy, m, dfa, env)
        w = run(worst_strategy, m, dfa, env)
        assert r.satisfied and w.satisfied
        assert w.cost - r.cost == delta
        first_unknown = next(x for x in r.path if x in m.unknown_states)
        assert first_unknown == REGION2_CELL


def test_fig1_oracle_certified(fig1):
    m, dfa = fig1
    value, _, _ = orc.brute_force_optimal_regret(m, dfa)
    assert value == 2
    assert sv.solve_regret(m, dfa)[1] == value


def grid_plus(k):
    """Grid +k: the case-study map with its first k known walls, in
    reading order of the map lines after the legend, turned into possible
    walls (``|`` into ``:``, ``-`` into ``~``)."""
    legend, _, body = fixtures.CASE_STUDY_GRID.partition("\n\n")
    cells = list(body)
    walls = [i for i, glyph in enumerate(cells) if glyph in "|-"][:k]
    for i in walls:
        cells[i] = ":" if cells[i] == "|" else "~"
    return legend + "\n\n" + "".join(cells)


def test_grid_plus_unknown_cells():
    assert grid_plus(0) == fixtures.CASE_STUDY_GRID
    assert [len(gr.grid_compile(grid_plus(k)).unknown_states)
            for k in range(2, 6)] == [8, 10, 12, 13]


@pytest.fixture(scope="module")
def case_study():
    m = gr.grid_compile(fixtures.CASE_STUDY_GRID)
    dfa = to_dfa(parse(fixtures.CASE_STUDY_TASK), {"fire", "extinguisher"})
    return m, dfa


def case_env(m, open_pairs):
    choice = {}
    for x in m.unknown_states:
        realized = set.intersection(*(set(p) for p in m.patterns[x]))
        for a, b in open_pairs:
            if x == a:
                realized.add(b)
            elif x == b:
                realized.add(a)
        choice[x] = m.patterns[x].index(tuple(sorted(realized)))
    return md.Wts(
        n=m.n,
        initial=m.initial,
        successors=tuple(m.patterns[x][choice.get(x, 0)] for x in range(m.n)),
        weights=m.weights,
        labels=m.labels,
    )


def strategy_digest(strategy):
    text = json.dumps(strategy.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_case_study_exploration_and_cost_orderings(case_study):
    m, dfa = case_study
    assert len(m.coins) == 2
    regret_strategy, regret_value = sv.solve_regret(m, dfa)
    worst_strategy, worst_value = sv.solve_worst_case(m, dfa)
    best = sv.best_case_policy(m, dfa)
    # golden digests: the strategy JSON is part of the contract, byte for byte
    assert (regret_value, len(regret_strategy.decisions)) == (4, 52)
    assert strategy_digest(regret_strategy) == \
        "19283849b9a8a62a77b14ac863fdd3441284604763be8800250f5d2982d0ba0a"
    assert (worst_value, len(worst_strategy.decisions)) == (22, 23)
    assert strategy_digest(worst_strategy) == \
        "8a8a663e7c4dc6aab740a1c8661b34cc688b831a3f017f4a2527c181f25720fb"
    regions = [set(m.coins[0]), set(m.coins[1])]

    showcased = {
        "one_open": case_env(m, [m.coins[0]]),
        "both_blocked": case_env(m, []),
    }
    costs = {}
    for name, env in showcased.items():
        for label, strategy in (("regret", regret_strategy),
                                ("worst", worst_strategy), ("best", best)):
            rec = run(strategy, m, dfa, env)
            assert rec.satisfied
            explored = [i for i, cells in enumerate(regions)
                        if set(rec.path) & cells]
            costs[(name, label)] = rec.cost
            if label == "regret":
                assert len(explored) == 1
            elif label == "worst":
                assert explored == []
            else:
                assert explored == [0, 1]

    assert costs[("one_open", "regret")] < costs[("one_open", "best")] \
        < costs[("one_open", "worst")]
    assert costs[("both_blocked", "worst")] < costs[("both_blocked", "regret")] \
        < costs[("both_blocked", "best")]
