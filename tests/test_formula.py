"""Task parsing, progression, and good-prefix automata."""

import itertools

import pytest

from regretplan import formula as fm
from regretplan.errors import (
    AlphabetTooLarge,
    AtomNotDeclared,
    FormulaSyntaxError,
    NotCoSafe,
)


def all_words(atoms, max_len):
    letters = [frozenset(c) for r in range(len(atoms) + 1)
               for c in itertools.combinations(sorted(atoms), r)]
    for n in range(max_len + 1):
        for word in itertools.product(letters, repeat=n):
            yield word


class RefDfa:
    """Hand-built reference acceptor: rows map letter (as sorted tuple) to state."""

    def __init__(self, atoms, rows, accepting):
        self.atoms = sorted(atoms)
        self.rows = rows
        self.accepting = accepting

    def accepts(self, word):
        q = 0
        for letter in word:
            q = self.rows[q][tuple(sorted(letter))]
        return q in self.accepting


def ref_eventually_a():
    # waiting / accepted, over {a}
    return RefDfa(
        {"a"},
        [
            {(): 0, ("a",): 1},
            {(): 1, ("a",): 1},
        ],
        {1},
    )


def ref_a_until_b():
    # waiting / accepted / dead, over {a, b}
    return RefDfa(
        {"a", "b"},
        [
            {(): 2, ("a",): 0, ("b",): 1, ("a", "b"): 1},
            {(): 1, ("a",): 1, ("b",): 1, ("a", "b"): 1},
            {(): 2, ("a",): 2, ("b",): 2, ("a", "b"): 2},
        ],
        {1},
    )


def ref_guarded_reach():
    # (!a U b) & F a: need b strictly before or together with the first a
    return RefDfa(
        {"a", "b"},
        [
            {(): 0, ("a",): 3, ("b",): 1, ("a", "b"): 2},
            {(): 1, ("b",): 1, ("a",): 2, ("a", "b"): 2},
            {(): 2, ("a",): 2, ("b",): 2, ("a", "b"): 2},
            {(): 3, ("a",): 3, ("b",): 3, ("a", "b"): 3},
        ],
        {2},
    )


FIXTURES = [
    ("F a", {"a"}, ref_eventually_a()),
    ("a U b", {"a", "b"}, ref_a_until_b()),
    ("(!a U b) & F a", {"a", "b"}, ref_guarded_reach()),
]


# ---------------------------------------------------------------------------
# parsing

def test_parse_eventually_sugar():
    assert fm.parse("F target") == fm.Eventually(fm.Atom("target"))


def test_parse_case_study_task():
    f = fm.parse("(!fire U extinguisher) & F fire")
    assert f == fm.And((
        fm.Until(fm.Not(fm.Atom("fire")), fm.Atom("extinguisher")),
        fm.Eventually(fm.Atom("fire")),
    ))


def test_parse_rejects_negated_temporal():
    with pytest.raises(NotCoSafe):
        fm.parse("!(F a)")


def test_parse_rejects_always_operator():
    with pytest.raises(NotCoSafe):
        fm.parse("G a")


@pytest.mark.parametrize("bad", ["", "a &", "(a", "a b", "U a", "a !b", "a & & b"])
def test_parse_malformed(bad):
    with pytest.raises(FormulaSyntaxError):
        fm.parse(bad)


def test_parse_precedence_and_associativity():
    assert fm.parse("a | b & c") == fm.Or((fm.Atom("a"),
                                           fm.And((fm.Atom("b"), fm.Atom("c")))))
    assert fm.parse("a U b U c") == fm.Until(
        fm.Atom("a"), fm.Until(fm.Atom("b"), fm.Atom("c")))
    assert fm.parse("X a U b") == fm.Until(fm.Next(fm.Atom("a")), fm.Atom("b"))


def test_str_roundtrip():
    texts = [
        "F a",
        "a U b",
        "(!a U b) & F a",
        "X (a U b) | true & !c",
        "F (a & X b)",
        "a U b U (c | d)",
    ]
    for text in texts:
        f = fm.parse(text)
        assert fm.parse(str(f)) == f


# ---------------------------------------------------------------------------
# progression

def test_progress_discharges_eventually():
    assert fm.progress(fm.parse("F b"), {"b"}) == fm.TRUE


def test_progress_waits_on_until():
    f = fm.parse("a U b")
    assert fm.progress(f, {"a"}) == fm.Until(fm.Atom("a"), fm.Atom("b"))


def test_progress_kills_until():
    assert fm.progress(fm.parse("a U b"), frozenset()) == fm.FALSE


def test_progression_oracle_on_references():
    for text, atoms, ref in FIXTURES:
        f = fm.parse(text)
        for word in all_words(atoms, 4):
            assert fm.good_prefix_by_progression(f, word) == ref.accepts(word), (
                text, word)


# ---------------------------------------------------------------------------
# translation

def test_eventually_two_state_shape():
    dfa = fm.to_dfa(fm.parse("F target"), {"target"})
    assert dfa.n == 2
    assert dfa.initial == 0
    assert dfa.accepting == frozenset({1})
    assert dfa.step(0, frozenset()) == 0
    assert dfa.step(0, {"target"}) == 1
    assert dfa.step(1, frozenset()) == 1
    assert dfa.step(1, {"target"}) == 1


def test_true_single_accepting_state():
    dfa = fm.to_dfa(fm.parse("true"), {"a"})
    assert dfa.n == 1
    assert dfa.accepts([])  # the empty word is a good prefix of a valid task
    assert dfa.accepts([{"a"}, frozenset()])


def test_until_three_state_shape():
    dfa = fm.to_dfa(fm.parse("a U b"), {"a", "b"})
    assert dfa.n == 3


def test_undeclared_atom_rejected():
    with pytest.raises(AtomNotDeclared):
        fm.to_dfa(fm.parse("F a"), {"b"})


def test_letter_index_memo_keeps_errors_equality_and_json():
    # the memo stores declared letters only, so an undeclared atom raises
    # on every call, and a queried automaton is the value it was
    dfa = fm.to_dfa(fm.parse("(!a U b) & F a"), {"a", "b"})
    fresh = fm.to_dfa(fm.parse("(!a U b) & F a"), {"a", "b"})
    for _ in range(2):
        with pytest.raises(AtomNotDeclared):
            dfa.letter_index({"a", "c"})
    assert dfa.letter_index({"b"}) == dfa.letter_index(["b"]) == 2
    assert dfa.step(dfa.initial, {"a", "b"}) == fresh.step(fresh.initial,
                                                           {"a", "b"})
    assert dfa == fresh and hash(dfa) == hash(fresh) and repr(dfa) == repr(fresh)
    assert fm.dfa_to_json(dfa) == fm.dfa_to_json(fresh)


def test_alphabet_cap():
    atoms = {f"a{i}" for i in range(9)}
    with pytest.raises(AlphabetTooLarge):
        fm.to_dfa(fm.parse("F a0"), atoms)


def test_dfa_matches_references_exhaustively():
    for text, atoms, ref in FIXTURES:
        dfa = fm.to_dfa(fm.parse(text), atoms)
        for word in all_words(atoms, 5):
            assert dfa.accepts(word) == ref.accepts(word), (text, word)


def test_dfa_agrees_with_progression_oracle():
    corpus = [
        ("F a", {"a"}),
        ("a U b", {"a", "b"}),
        ("(!a U b) & F a", {"a", "b"}),
        ("X a", {"a"}),
        ("F (a & F b)", {"a", "b"}),
        ("a U (b & X a)", {"a", "b"}),
    ]
    for text, atoms in corpus:
        f = fm.parse(text)
        dfa = fm.to_dfa(f, atoms)
        for word in all_words(atoms, 4):
            if fm.good_prefix_by_progression(f, word):
                assert dfa.accepts(word), (text, word)


def test_acceptance_closed_under_extension():
    specs = [("F a", {"a"}), ("a U b", {"a", "b"}), ("(!a U b) & F a", {"a", "b"}),
             ("X (a | b)", {"a", "b"}), ("true", {"a"})]
    for text, atoms in specs:
        dfa = fm.to_dfa(fm.parse(text), atoms)
        letters = dfa.letters()
        for word in all_words(atoms, 3):
            if dfa.accepts(word):
                for sigma in letters:
                    assert dfa.accepts(list(word) + [sigma]), (text, word, sigma)


def distinguishable(dfa, q1, q2):
    seen = {(q1, q2)}
    frontier = [(q1, q2)]
    letters = dfa.letters()
    while frontier:
        a, b = frontier.pop()
        if (a in dfa.accepting) != (b in dfa.accepting):
            return True
        for sigma in letters:
            pair = (dfa.step(a, sigma), dfa.step(b, sigma))
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return False


def test_minimality_pairwise_distinguishable():
    corpus = [("F a", {"a"}), ("a U b", {"a", "b"}), ("(!a U b) & F a", {"a", "b"}),
              ("F (a & F b)", {"a", "b"}), ("X X a", {"a"}), ("true", {"a", "b"})]
    for text, atoms in corpus:
        dfa = fm.to_dfa(fm.parse(text), atoms)
        for q1 in range(dfa.n):
            for q2 in range(q1 + 1, dfa.n):
                assert distinguishable(dfa, q1, q2), (text, q1, q2)


def test_tautology_accepts_immediately():
    # the one-step obligation is always dischargeable, so even the empty
    # word already guarantees satisfaction
    dfa = fm.to_dfa(fm.parse("X (a | !a)"), {"a"})
    assert dfa.n == 1
    assert dfa.accepts([])


def test_json_roundtrip():
    dfa = fm.to_dfa(fm.parse("(!a U b) & F a"), {"a", "b"})
    data = fm.dfa_to_json(dfa)
    back = fm.dfa_from_json(data)
    assert back == dfa
