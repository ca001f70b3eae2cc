"""World models: concrete transition systems, possible-world models with
successor patterns, knowledge bookkeeping, task products, and shortest paths.

Weights are nonnegative integers.  Zero weight is reserved for designated
self-loops at labeled goal states; every movement edge costs at least one
unit.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass
from typing import Mapping

from .errors import (
    AtomMismatch,
    InconsistentKnowledge,
    NegativeWeight,
    TooManyUnknowns,
)
from .formula import Dfa

INF = math.inf

DEFAULT_UNKNOWN_CAP = 12


def _check_weights(n, weights, labels, realizable):
    for (x, y), w in weights.items():
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"weight references unknown state pair ({x},{y})")
        if w < 0:
            raise ValueError(f"negative weight on ({x},{y})")
        if w == 0 and (x != y or not labels[x]):
            raise ValueError(
                f"zero weight on ({x},{y}); only labeled-state self-loops may be free")
    for pair in realizable:
        if pair not in weights:
            raise ValueError(f"missing weight for transition {pair}")


@dataclass(frozen=True)
class Wts:
    """Concrete environment: one successor set per state."""

    n: int
    initial: int
    successors: tuple
    weights: dict
    labels: tuple

    def __post_init__(self):
        if not (0 <= self.initial < self.n):
            raise ValueError("initial state out of range")
        if len(self.successors) != self.n or len(self.labels) != self.n:
            raise ValueError("successor/label tables must cover every state")
        object.__setattr__(
            self, "successors", tuple(tuple(sorted(s)) for s in self.successors))
        realizable = set()
        for x, succ in enumerate(self.successors):
            if not succ:
                raise ValueError(f"state {x} has no successors")
            for y in succ:
                realizable.add((x, y))
        _check_weights(self.n, self.weights, self.labels, realizable)

    @property
    def atoms(self):
        return tuple(sorted(frozenset().union(*self.labels)))

    def to_pkwts(self) -> "Pkwts":
        return Pkwts(
            n=self.n,
            initial=self.initial,
            patterns=tuple((succ,) for succ in self.successors),
            weights=self.weights,
            labels=self.labels,
        )


@dataclass(frozen=True)
class Pkwts:
    """Possible-world model: each state carries candidate successor patterns.

    ``coins`` optionally records symmetric possible-wall pairs for models
    imported from grid maps; the benchmark sampler flips one coin per pair.
    """

    n: int
    initial: int
    patterns: tuple
    weights: dict
    labels: tuple
    coins: tuple = ()

    def __post_init__(self):
        if not (0 <= self.initial < self.n):
            raise ValueError("initial state out of range")
        if len(self.patterns) != self.n or len(self.labels) != self.n:
            raise ValueError("pattern/label tables must cover every state")
        object.__setattr__(
            self, "patterns",
            tuple(tuple(tuple(sorted(p)) for p in fam) for fam in self.patterns))
        if len(self.patterns[self.initial]) != 1:
            raise ValueError("initial state must be known (single pattern)")
        realizable = set()
        for x, family in enumerate(self.patterns):
            if not family:
                raise ValueError(f"state {x} has an empty pattern family")
            if len(set(family)) != len(family):
                raise ValueError(f"state {x} has duplicate patterns")
            for pattern in family:
                if not pattern:
                    raise ValueError(f"state {x} has an empty pattern")
                for y in pattern:
                    realizable.add((x, y))
        _check_weights(self.n, self.weights, self.labels, realizable)

    @property
    def atoms(self):
        return tuple(sorted(frozenset().union(*self.labels)))

    @property
    def unknown_states(self):
        return tuple(x for x in range(self.n) if len(self.patterns[x]) > 1)

    @property
    def known_states(self):
        return tuple(x for x in range(self.n) if len(self.patterns[x]) == 1)

    @property
    def fully_known(self) -> bool:
        return not self.unknown_states


# ---------------------------------------------------------------------------
# knowledge

class KnowledgeSet:
    """Ordered record of observed successor patterns.

    The base part lists every a-priori known state in ascending id order;
    the suffix appends unknown states in the order they were explored.
    Equality and hashing look at the suffix only: the base is a per-model
    constant.
    """

    __slots__ = ("base", "suffix", "_omap")

    def __init__(self, base, suffix=()):
        object.__setattr__(self, "base", tuple(base))
        object.__setattr__(self, "suffix", tuple(suffix))
        omap = {}
        for x, o in self.base + self.suffix:
            o = tuple(o)
            if x in omap and omap[x] != o:
                raise InconsistentKnowledge(f"state {x} recorded with two observations")
            omap[x] = o
        object.__setattr__(self, "_omap", omap)

    def __setattr__(self, name, value):
        raise AttributeError("KnowledgeSet is immutable")

    def explored(self, x: int) -> bool:
        return x in self._omap

    def obs(self, x: int):
        return self._omap[x]

    def items(self):
        return self.base + self.suffix

    def __eq__(self, other):
        return isinstance(other, KnowledgeSet) and self.suffix == other.suffix

    def __hash__(self):
        return hash(self.suffix)

    def __repr__(self):
        return f"KnowledgeSet(suffix={self.suffix!r})"


def initial_knowledge(m: Pkwts) -> KnowledgeSet:
    base = tuple((x, m.patterns[x][0]) for x in m.known_states)
    return KnowledgeSet(base)


def update(k: KnowledgeSet, kn) -> KnowledgeSet:
    """Record one observation; re-observing an explored state must agree."""
    x, o = kn
    o = tuple(o)
    if k.explored(x):
        if k.obs(x) != o:
            raise InconsistentKnowledge(
                f"state {x}: recorded {k.obs(x)}, now observed {o}")
        return k
    return KnowledgeSet(k.base, k.suffix + ((x, o),))


def refine(m: Pkwts, k: KnowledgeSet) -> Pkwts:
    """Pin explored states to their observed pattern."""
    patterns = tuple(
        ((k.obs(x),) if k.explored(x) else m.patterns[x]) for x in range(m.n)
    )
    return Pkwts(
        n=m.n,
        initial=m.initial,
        patterns=patterns,
        weights=m.weights,
        labels=m.labels,
        coins=m.coins,
    )


def check_history(m: Pkwts, history) -> bool:
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


# ---------------------------------------------------------------------------
# skeleton / compatible environments

def skeleton(m: Pkwts) -> Wts:
    """Most permissive world: union of all patterns at each state."""
    successors = tuple(
        tuple(sorted(set().union(*m.patterns[x]))) for x in range(m.n)
    )
    return Wts(
        n=m.n,
        initial=m.initial,
        successors=successors,
        weights=m.weights,
        labels=m.labels,
    )


def compatible_envs(m: Pkwts, cap: int = DEFAULT_UNKNOWN_CAP):
    """Iterate over every compatible environment, lexicographic over
    pattern indices in ascending state order.  The cap is checked at the
    call, before any environment is built."""
    unknown = m.unknown_states
    if len(unknown) > cap:
        raise TooManyUnknowns(f"{len(unknown)} unknown states exceeds cap {cap}")
    combos = [range(len(m.patterns[x])) for x in range(m.n)]
    # plain odometer over pattern indices keeps the order well-defined
    return (
        Wts(
            n=m.n,
            initial=m.initial,
            successors=tuple(m.patterns[x][c] for x, c in enumerate(choice)),
            weights=m.weights,
            labels=m.labels,
        )
        for choice in itertools.product(*combos)
    )


def is_compatible(t: Wts, m: Pkwts) -> bool:
    if t.n != m.n or t.initial != m.initial or t.labels != m.labels:
        return False
    for x in range(m.n):
        if tuple(sorted(t.successors[x])) not in {
            tuple(sorted(p)) for p in m.patterns[x]
        }:
            return False
    return True


# ---------------------------------------------------------------------------
# product with the task automaton

@dataclass(frozen=True, eq=False)
class Product:
    """Reachable part of environment x automaton, with movement weights."""

    initial: tuple
    adj: dict
    accepting: frozenset


def product(t: Wts, a: Dfa) -> Product:
    model_atoms = set().union(*t.labels)
    if not model_atoms <= set(a.atoms):
        raise AtomMismatch(
            f"model atoms {sorted(model_atoms)} not covered by automaton atoms "
            f"{list(a.atoms)}")
    lab = [a.letter_index(t.labels[x]) for x in range(t.n)]
    s0 = (t.initial, a.trans[a.initial][lab[t.initial]])
    adj = {}
    queue = [s0]
    while queue:
        s = queue.pop()
        if s in adj:
            continue
        x, q = s
        out = []
        for y in t.successors[x]:
            succ = (y, a.trans[q][lab[y]])
            out.append((succ, t.weights[(x, y)]))
            if succ not in adj:
                queue.append(succ)
        adj[s] = tuple(out)
    accepting = frozenset(s for s in adj if s[1] in a.accepting)
    return Product(initial=s0, adj=adj, accepting=accepting)


def shortest_satisfying_cost(t: Wts, a: Dfa):
    """Cost of the cheapest path whose trace is a good prefix; INF if none."""
    prod = product(t, a)
    return next((d for s, d in dijkstra(prod.adj, prod.initial)
                 if s in prod.accepting), INF)


# ---------------------------------------------------------------------------
# shortest paths

def dijkstra(adj: Mapping, source):
    """Yield (vertex, dist) for each vertex reachable from source, in settle
    order: nondecreasing dist, so a caller stops at its answer.

    ``adj`` maps a vertex to an iterable of (successor, weight) pairs;
    only ``adj.get(u, default)`` is used, so a generator method serves.
    A heap entry is stale exactly when its distance exceeds dist.
    """
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        yield u, d
        for v, w in adj.get(u, ()):
            if w < 0:
                raise NegativeWeight(f"edge ({u},{v}) has negative weight {w}")
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))


def shortest_path_to(adj: Mapping, source, targets):
    """Cheapest path from source to the target set; (cost, path) or (INF, None).

    Ties pick the least (cost, target), then, walking back, the least vertex
    settled before each vertex on a tight edge.  All of these lie within the
    first target's distance D and settle as in a full search, but a
    zero-weight edge can settle one after the first target, so the search
    stops only past level D.
    """
    rank, dist, best = {}, {}, None
    for u, d in dijkstra(adj, source):
        if best is not None and d > dist[best]:
            break
        rank[u], dist[u] = len(rank), d
        if u in targets and (best is None or u < best):
            best = u
    if best is None:
        return INF, None
    pred = {}
    for u in rank:
        for v, w in adj.get(u, ()):
            if (rank.get(v, -1) > rank[u] and dist[u] + w == dist[v]
                    and (v not in pred or u < pred[v])):
                pred[v] = u
    path = [best]
    while path[-1] != source:
        path.append(pred[path[-1]])
    return dist[best], path[::-1]


# ---------------------------------------------------------------------------
# JSON form shared by concrete and possible-world models

def model_to_json(m: Pkwts) -> dict:
    data = {
        "states": m.n,
        "initial": m.initial,
        "labels": {str(x): sorted(m.labels[x]) for x in range(m.n) if m.labels[x]},
        "patterns": {
            str(x): [sorted(p) for p in m.patterns[x]] for x in range(m.n)
        },
        "weights": [
            {"from": x, "to": y, "w": w}
            for (x, y), w in sorted(m.weights.items())
        ],
    }
    if m.coins:
        data["coins"] = [list(c) for c in m.coins]
    return data


def model_from_json(data: dict) -> Pkwts:
    n = data["states"]
    labels = tuple(
        frozenset(data.get("labels", {}).get(str(x), ())) for x in range(n)
    )
    patterns = tuple(
        tuple(tuple(sorted(p)) for p in data["patterns"][str(x)]) for x in range(n)
    )
    weights = {(e["from"], e["to"]): e["w"] for e in data["weights"]}
    return Pkwts(
        n=n,
        initial=data["initial"],
        patterns=patterns,
        weights=weights,
        labels=labels,
        coins=tuple(tuple(c) for c in data.get("coins", ())),
    )


def wts_to_json(t: Wts) -> dict:
    return model_to_json(t.to_pkwts())


def wts_from_json(data: dict) -> Wts:
    m = model_from_json(data)
    if not m.fully_known:
        raise ValueError("concrete environment must list exactly one pattern per state")
    return Wts(
        n=m.n,
        initial=m.initial,
        successors=tuple(m.patterns[x][0] for x in range(m.n)),
        weights=m.weights,
        labels=m.labels,
    )


def load_model(path) -> Pkwts:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))


def load_env(path) -> Wts:
    with open(path, "r", encoding="utf-8") as fh:
        return wts_from_json(json.load(fh))
