"""Knowledge-based game arena.

A bipartite graph alternating agent moves (commit to a successor) and
environment moves (reveal the successor pattern at a newly explored
state).  Vertices carry the physical state, the automaton state, and the
exploration suffix of the knowledge record; they are interned so shared
knowledge prefixes cost nothing extra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArenaTooLarge, NotAPlay
from .formula import Dfa
from .model import Pkwts, skeleton

DEFAULT_VERTEX_CAP = 5_000_000

AGENT = "a"
ENV = "e"


@dataclass(frozen=True, eq=False)
class Arena:
    """Reachable game graph with movement weights on env->agent edges."""

    vertices: tuple          # id -> (AGENT, x, q, sfx) | (ENV, x, q, sfx, xhat)
    v0: int
    accepting: tuple         # sorted agent vertex ids with accepting q
    fwd: tuple               # id -> tuple of (succ id, weight), sorted by succ
    rev: tuple               # id -> tuple of (pred id, weight), sorted by pred
    index: dict              # vertex tuple -> id

    @property
    def n(self) -> int:
        return len(self.vertices)

    def is_agent(self, v: int) -> bool:
        return self.vertices[v][0] == AGENT

    def edge_weight(self, u: int, v: int):
        for t, w in self.fwd[u]:
            if t == v:
                return w
        return None

    def edges(self):
        for u, out in enumerate(self.fwd):
            for v, w in out:
                yield u, v, w


def build_arena(m: Pkwts, a: Dfa, cap: int = DEFAULT_VERTEX_CAP) -> Arena:
    """Breadth-first construction of everything reachable from the start."""
    lab = [a.letter_index(m.labels[x]) for x in range(m.n)]

    def obs_of(x, sfx):
        if len(m.patterns[x]) == 1:
            return m.patterns[x][0]
        for s, o in sfx:
            if s == x:
                return o
        return None

    v0 = (AGENT, m.initial, a.trans[a.initial][lab[m.initial]], ())
    index = {v0: 0}
    vertices = [v0]
    edges = []  # (u, v, w)
    queue = [0]
    head = 0

    def intern(vt):
        vid = index.get(vt)
        if vid is None:
            vid = len(vertices)
            if vid >= cap:
                raise ArenaTooLarge(f"arena exceeded {cap} vertices")
            index[vt] = vid
            vertices.append(vt)
            queue.append(vid)
        return vid

    while head < len(queue):
        vid = queue[head]
        head += 1
        vt = vertices[vid]
        if vt[0] == AGENT:
            _, x, q, sfx = vt
            for xhat in obs_of(x, sfx):
                eid = intern((ENV, x, q, sfx, xhat))
                edges.append((vid, eid, 0))
        else:
            _, x, q, sfx, xhat = vt
            q2 = a.trans[q][lab[xhat]]
            w = m.weights[(x, xhat)]
            if obs_of(xhat, sfx) is not None:
                succs = [(AGENT, xhat, q2, sfx)]
            else:
                succs = [
                    (AGENT, xhat, q2, sfx + ((xhat, o),))
                    for o in m.patterns[xhat]
                ]
            for st in succs:
                edges.append((vid, intern(st), w))

    n = len(vertices)
    fwd = [[] for _ in range(n)]
    rev = [[] for _ in range(n)]
    for u, v, w in edges:
        fwd[u].append((v, w))
        rev[v].append((u, w))
    for lst in fwd:
        lst.sort()
    for lst in rev:
        lst.sort()

    accepting = tuple(
        i for i, vt in enumerate(vertices)
        if vt[0] == AGENT and vt[2] in a.accepting
    )
    return Arena(
        vertices=tuple(vertices),
        v0=0,
        accepting=accepting,
        fwd=tuple(tuple(lst) for lst in fwd),
        rev=tuple(tuple(lst) for lst in rev),
        index=index,
    )


def play_cost(arena: Arena, play) -> int:
    """Total movement weight along a play; every hop must be an edge."""
    total = 0
    for u, v in zip(play, play[1:]):
        w = arena.edge_weight(u, v)
        if w is None:
            raise NotAPlay(f"({u},{v}) is not an arena edge")
        total += w
    return total


def size_bound(m: Pkwts, a: Dfa) -> int:
    """Worst-case vertex count: n! * 2^n * |X| * |Q| * |X| * skeleton edges."""
    n_un = len(m.unknown_states)
    sk = skeleton(m)
    edge_measure = m.n * sum(len(s) for s in sk.successors)
    return math.factorial(n_un) * (2 ** n_un) * m.n * a.n * edge_measure


def arena_to_json(arena: Arena) -> dict:
    verts = []
    for i, vt in enumerate(arena.vertices):
        entry = {
            "id": i,
            "kind": "agent" if vt[0] == AGENT else "env",
            "x": vt[1],
            "q": vt[2],
            "ksuffix": [[s, list(o)] for s, o in vt[3]],
        }
        if vt[0] == ENV:
            entry["xhat"] = vt[4]
        verts.append(entry)
    return {
        "initial": arena.v0,
        "accepting": list(arena.accepting),
        "vertices": verts,
        "edges": [{"from": u, "to": v, "w": w} for u, v, w in arena.edges()],
    }
