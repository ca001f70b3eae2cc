"""Co-safe LTL tasks and their good-prefix automata.

Surface syntax: ``true``, atoms over ``[a-z0-9_]``, ``!`` (atoms only),
``&``, ``|``, ``X`` (next), ``U`` (until, right-associative), ``F``
(eventually), parentheses.  Precedence: unary > U > & > |.  Either
operand of ``U`` may be any task.

Translation goes residual-by-residual: reading a letter rewrites the
formula to the obligation that remains.  Every residual is kept in one
normal form, a disjunction of conjunctions with no conjunction implied
by another, over the literals and temporal subformulas of the task, so
there are finitely many.  The reachable residuals form a deterministic
automaton, which Moore refinement minimizes and which is numbered
breadth-first.  A word is accepted exactly when every infinite
continuation would discharge the remaining obligation, so accepting
states are closed under all transitions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    AlphabetTooLarge,
    AtomNotDeclared,
    FormulaSyntaxError,
    NotCoSafe,
    SolverInvariantError,
)

MAX_ATOMS = 8

Letter = frozenset


class Formula:
    """Base class for task formula nodes. Instances are immutable."""

    def __str__(self) -> str:
        return _to_str(self, 0)

    def __repr__(self) -> str:
        return str(self)


@dataclass(frozen=True, repr=False)
class TrueF(Formula):
    pass


@dataclass(frozen=True, repr=False)
class FalseF(Formula):
    """Unsatisfiable residual; never produced by the parser."""


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, repr=False)
class Not(Formula):
    arg: Atom


@dataclass(frozen=True, repr=False)
class And(Formula):
    args: tuple


@dataclass(frozen=True, repr=False)
class Or(Formula):
    args: tuple


@dataclass(frozen=True, repr=False)
class Next(Formula):
    arg: Formula


@dataclass(frozen=True, repr=False)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Eventually(Formula):
    """Until(true, arg), progressed directly."""

    arg: Formula


TRUE = TrueF()
FALSE = FalseF()

_PREC_OR, _PREC_AND, _PREC_UNTIL, _PREC_UNARY = 0, 1, 2, 3


def _to_str(f: Formula, ctx: int) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + f.arg.name
    if isinstance(f, Next):
        return "X " + _to_str(f.arg, _PREC_UNARY)
    if isinstance(f, Eventually):
        return "F " + _to_str(f.arg, _PREC_UNARY)
    if isinstance(f, Until):
        s = _to_str(f.left, _PREC_UNARY) + " U " + _to_str(f.right, _PREC_UNTIL)
        return "(" + s + ")" if ctx > _PREC_UNTIL else s
    if isinstance(f, And):
        s = " & ".join(_to_str(a, _PREC_AND + 1) for a in f.args)
        return "(" + s + ")" if ctx > _PREC_AND else s
    if isinstance(f, Or):
        s = " | ".join(_to_str(a, _PREC_OR + 1) for a in f.args)
        return "(" + s + ")" if ctx > _PREC_OR else s
    raise TypeError(f"not a formula: {f!r}")


def atoms_of(f: Formula) -> frozenset:
    """All atom names occurring in the formula."""
    if isinstance(f, Atom):
        return frozenset([f.name])
    if isinstance(f, Not):
        return frozenset([f.arg.name])
    if isinstance(f, (TrueF, FalseF)):
        return frozenset()
    if isinstance(f, (Next, Eventually)):
        return atoms_of(f.arg)
    if isinstance(f, Until):
        return atoms_of(f.left) | atoms_of(f.right)
    return frozenset().union(*(atoms_of(a) for a in f.args))


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\s*(?:([a-z0-9_]+)|([!&|()])|([XUFGR]))")

_ALWAYS_LIKE = {"G": "always", "R": "release"}


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise FormulaSyntaxError(f"unexpected character {rest[0]!r} at position {pos}")
        pos = m.end()
        word, punct, op = m.groups()
        if word is not None:
            tokens.append(("true", None) if word == "true" else ("atom", word))
        elif punct is not None:
            tokens.append((punct, None))
        else:
            if op in _ALWAYS_LIKE:
                raise NotCoSafe(f"operator {op!r} ({_ALWAYS_LIKE[op]}) is not co-safe")
            tokens.append((op, None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        if self.peek() != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {self.peek()!r}")
        return self.take()

    def parse_or(self) -> Formula:
        args = [self.parse_and()]
        while self.peek() == "|":
            self.take()
            args.append(self.parse_and())
        return args[0] if len(args) == 1 else Or(tuple(args))

    def parse_and(self) -> Formula:
        args = [self.parse_until()]
        while self.peek() == "&":
            self.take()
            args.append(self.parse_until())
        return args[0] if len(args) == 1 else And(tuple(args))

    def parse_until(self) -> Formula:
        left = self.parse_unary()
        if self.peek() == "U":
            self.take()
            return Until(left, self.parse_until())
        return left

    def parse_unary(self) -> Formula:
        kind = self.peek()
        if kind is None:
            raise FormulaSyntaxError("unexpected end of input")
        if kind == "!":
            self.take()
            arg = self.parse_unary()
            if not isinstance(arg, Atom):
                raise NotCoSafe(f"negation applied to non-atom: !({arg})")
            return Not(arg)
        if kind == "X":
            self.take()
            return Next(self.parse_unary())
        if kind == "F":
            self.take()
            return Eventually(self.parse_unary())
        if kind == "(":
            self.take()
            inner = self.parse_or()
            self.expect(")")
            return inner
        if kind == "true":
            self.take()
            return TRUE
        if kind == "atom":
            return Atom(self.take()[1])
        raise FormulaSyntaxError(f"unexpected token {kind!r}")


def parse(text: str) -> Formula:
    """Parse task text into a formula tree, kept as written."""
    parser = _Parser(_tokenize(text))
    try:
        f = parser.parse_or()
    except RecursionError:
        raise FormulaSyntaxError(
            "formula nests too deeply to parse; flatten its parentheses or "
            "X chains") from None
    if parser.peek() is not None:
        raise FormulaSyntaxError(f"trailing input starting at token {parser.peek()!r}")
    return f


# ---------------------------------------------------------------------------
# residuals in disjunctive normal form

def _key(f: Formula) -> str:
    return str(f)


def _clauses(f: Formula) -> list:
    """The disjuncts of a normal-form formula, each a dict from conjunct
    key to conjunct."""
    return [{_key(p): p for p in (d.args if isinstance(d, And) else (d,))}
            for d in (f.args if isinstance(f, Or) else (f,))]


def _dnf(clauses: list) -> Formula:
    """The disjunction of ``_clauses``-style clauses, without any clause
    whose conjuncts strictly contain another clause's (absorption)."""
    sets = {frozenset(c): c for c in clauses}
    out = []
    for c in sorted((c for s, c in sets.items() if not any(t < s for t in sets)),
                    key=sorted):
        args = tuple(c[k] for k in sorted(c))
        out.append(TRUE if not args else args[0] if len(args) == 1 else And(args))
    return out[0] if len(out) == 1 else Or(tuple(out))


def conj(items: Iterable[Formula]) -> Formula:
    """Conjunction of normal-form items, distributed over their
    disjunctions."""
    parts = []
    for it in items:
        if isinstance(it, FalseF):
            return FALSE
        if not isinstance(it, TrueF):
            parts.append(it)
    if len(parts) < 2:
        return parts[0] if parts else TRUE
    clauses = [{}]
    for it in parts:
        clauses = [{**c, **d} for c in clauses for d in _clauses(it)]
    return _dnf(clauses)


def disj(items: Iterable[Formula]) -> Formula:
    """Disjunction of normal-form items in the normal form."""
    parts = []
    for it in items:
        if isinstance(it, TrueF):
            return TRUE
        if not isinstance(it, FalseF):
            parts.append(it)
    if len(parts) < 2:
        return parts[0] if parts else FALSE
    return _dnf([c for it in parts for c in _clauses(it)])


def canonical(f: Formula) -> Formula:
    """Rebuild a formula in the residual normal form."""
    if isinstance(f, (TrueF, FalseF, Atom, Not)):
        return f
    if isinstance(f, Next):
        return Next(canonical(f.arg))
    if isinstance(f, Eventually):
        return Eventually(canonical(f.arg))
    if isinstance(f, Until):
        return Until(canonical(f.left), canonical(f.right))
    if isinstance(f, And):
        return conj(canonical(a) for a in f.args)
    return disj(canonical(a) for a in f.args)


def progress(f: Formula, letter) -> Formula:
    """Residual obligation after reading one letter (a set of atoms), in
    the normal form: a disjunction of conjunctions of literals and
    temporal subformulas of ``f``, none implied by another.

    Iterating progression over a word and landing on syntactic ``true``
    certifies the word as a good prefix; the converse direction is
    checked against reference automata in the test-suite.
    """
    return _progress(canonical(f), frozenset(letter))


def _progress(f: Formula, sigma: Letter) -> Formula:
    """``progress`` of a formula already in the normal form."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Atom):
        return TRUE if f.name in sigma else FALSE
    if isinstance(f, Not):
        return FALSE if f.arg.name in sigma else TRUE
    if isinstance(f, And):
        return conj(_progress(a, sigma) for a in f.args)
    if isinstance(f, Or):
        return disj(_progress(a, sigma) for a in f.args)
    if isinstance(f, Next):
        return f.arg
    if isinstance(f, Until):
        return disj([_progress(f.right, sigma), conj([_progress(f.left, sigma), f])])
    if isinstance(f, Eventually):
        return disj([_progress(f.arg, sigma), f])
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# deterministic automaton over 2^atoms

@dataclass(frozen=True)
class Dfa:
    """Total DFA over the powerset alphabet of a declared atom set.

    Letters are frozensets of atom names; internally a letter is the
    bitmask index over the sorted atom tuple.  Accepting states are
    absorbing, so acceptance is closed under word extension.  Dead
    states are the other end: no word leads from one to acceptance.
    """

    atoms: tuple
    n: int
    initial: int
    accepting: frozenset
    trans: tuple  # trans[q][letter_index] -> q'
    # states from which no word reaches an accepting state: derived from
    # trans once per automaton, and not part of equality or the JSON form
    dead: frozenset = field(init=False, repr=False, compare=False)
    # declared label -> its letter index, filled by ``letter_index``
    indices: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # one backward search from the accepting states.  Set here rather
        # than cached on first use: a cached attribute materializes the
        # instance __dict__, which slows every later attribute read
        preds = [set() for _ in range(self.n)]
        for q, row in enumerate(self.trans):
            for t in row:
                preds[t].add(q)
        live, stack = set(self.accepting), list(self.accepting)
        while stack:
            for p in preds[stack.pop()] - live:
                live.add(p)
                stack.append(p)
        object.__setattr__(self, "dead", frozenset(range(self.n)) - live)
        object.__setattr__(self, "indices", {})

    def letter_index(self, letter) -> int:
        sigma = frozenset(letter)
        idx = self.indices.get(sigma)
        if idx is None:
            unknown = sigma - set(self.atoms)
            if unknown:
                raise AtomNotDeclared(
                    f"letter uses undeclared atoms {sorted(unknown)}")
            idx = self.indices[sigma] = sum(
                1 << bit for bit, name in enumerate(self.atoms) if name in sigma)
        return idx

    def letters(self) -> list:
        out = []
        for idx in range(1 << len(self.atoms)):
            out.append(frozenset(a for bit, a in enumerate(self.atoms) if idx & (1 << bit)))
        return out

    def step(self, q: int, letter) -> int:
        return self.trans[q][self.letter_index(letter)]


def to_dfa(f: Formula, atoms: Iterable) -> Dfa:
    """Translate a task formula into the minimal good-prefix DFA.

    The states are the reachable residuals, finitely many because each
    is in the normal form of ``progress``.  Moore refinement merges the
    equivalent ones, and the blocks are numbered breadth-first from the
    initial one, taking letters in index order, which makes the result
    canonical: equal languages give equal automata.
    """
    atom_tuple = tuple(sorted(set(atoms)))
    if len(atom_tuple) > MAX_ATOMS:
        raise AlphabetTooLarge(f"{len(atom_tuple)} atoms exceeds cap of {MAX_ATOMS}")
    missing = atoms_of(f) - set(atom_tuple)
    if missing:
        raise AtomNotDeclared(f"formula uses undeclared atoms {sorted(missing)}")

    letters = [
        frozenset(a for bit, a in enumerate(atom_tuple) if idx & (1 << bit))
        for idx in range(1 << len(atom_tuple))
    ]

    root = canonical(f)
    states = {_key(root): 0}
    residuals = [root]
    trans: list = []
    for cur in residuals:  # grows while it is read
        row = []
        for letter in letters:
            nxt = _progress(cur, letter)
            q = states.setdefault(_key(nxt), len(residuals))
            if q == len(residuals):
                residuals.append(nxt)
            row.append(q)
        trans.append(row)

    accepting = _inevitable_true(residuals, trans)
    block, n = _moore(accepting, trans)
    succ = {block[q]: [block[t] for t in row] for q, row in enumerate(trans)}
    order = {block[0]: 0}
    queue = [block[0]]
    for b in queue:  # grows while it is read
        for t in succ[b]:
            if t not in order:
                order[t] = len(order)
                queue.append(t)
    if len(order) != n:  # every residual is reachable, so every block is
        raise SolverInvariantError("quotient automaton has unreachable states")
    tr = tuple(tuple(order[t] for t in succ[b]) for b in queue)
    acc = frozenset(order[block[q]] for q in accepting)

    for q in acc:
        for target in tr[q]:
            if target not in acc:
                raise SolverInvariantError("accepting states must be absorbing")
    return Dfa(atoms=atom_tuple, n=n, initial=0, accepting=acc, trans=tr)


def _inevitable_true(residuals: list, trans: list) -> set:
    """States from which every infinite letter sequence discharges the
    obligation (reaches the ``true`` residual)."""
    n = len(residuals)
    true_states = {i for i, r in enumerate(residuals) if isinstance(r, TrueF)}
    # peel states whose every transition leads into the already-settled set
    settled = set(true_states)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if i in settled:
                continue
            if all(t in settled for t in trans[i]):
                settled.add(i)
                changed = True
    return settled


def _moore(accepting: set, trans: list):
    """Moore refinement: from accepting / rejecting, split blocks by each
    state's block and its successors' blocks until the number of blocks
    stops changing.  Returns each state's block and the block count."""
    block = [int(q in accepting) for q in range(len(trans))]
    n = len(set(block))
    while True:
        sig: dict = {}
        block = [sig.setdefault((block[q], *(block[t] for t in row)), len(sig))
                 for q, row in enumerate(trans)]
        if len(sig) == n:
            return block, n
        n = len(sig)


# ---------------------------------------------------------------------------
# JSON form

def dfa_to_json(dfa: Dfa) -> dict:
    transitions = []
    letters = dfa.letters()
    for q in range(dfa.n):
        for idx, letter in enumerate(letters):
            transitions.append(
                {"from": q, "letter": sorted(letter), "to": dfa.trans[q][idx]}
            )
    return {
        "atoms": list(dfa.atoms),
        "states": dfa.n,
        "initial": dfa.initial,
        "accepting": sorted(dfa.accepting),
        "transitions": transitions,
    }


def dfa_from_json(data: dict) -> Dfa:
    atom_tuple = tuple(sorted(data["atoms"]))
    n = data["states"]
    k = 1 << len(atom_tuple)
    rows = [[None] * k for _ in range(n)]
    probe = Dfa(atoms=atom_tuple, n=n, initial=data["initial"],
                accepting=frozenset(data["accepting"]), trans=())
    for entry in data["transitions"]:
        rows[entry["from"]][probe.letter_index(entry["letter"])] = entry["to"]
    for q, row in enumerate(rows):
        if any(t is None for t in row):
            raise FormulaSyntaxError(f"transition table not exhaustive at state {q}")
    return Dfa(
        atoms=atom_tuple,
        n=n,
        initial=data["initial"],
        accepting=frozenset(data["accepting"]),
        trans=tuple(tuple(row) for row in rows),
    )
