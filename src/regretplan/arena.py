"""Knowledge-based game arena.

A bipartite graph alternating agent moves (commit to a successor) and
environment moves (reveal the successor pattern at a newly explored
state).  A vertex carries the physical state, the automaton state and
the exploration suffix of the knowledge record; an env vertex also
carries the committed successor.  ``build_ordered_arena`` keeps the
order of exploration; ``build_arena`` builds the order-free quotient
the solvers play on.

Storage is flat and append-only.  Each knowledge suffix is interned
once as an integer id, with one row giving the observed pattern index of
every state (-1 while unexplored).
Vertices are numbered in order of discovery and kept as parallel
integer columns.  During the build only agent vertices are looked up, by
one integer key: an env vertex has a single predecessor and is created
once.  Edges are parallel arrays appended as vertices are expanded, so
an edge is an integer slot and a vertex's row is the contiguous run of
slots from its first slot, as long as its degree; the ordered arena
expands in id order, so its rows are in id order.  An agent's row lists
its moves in ascending committed successor, which in the ordered arena
is also target order; an env row is sorted by target.  Each edge is also
linked into its target's in-edge list, newest first, so the cut build
grows one arena in place.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import ArenaTooLarge
from .formula import Dfa
from .model import INF, Pkwts, dijkstra, letters, skeleton_successors

DEFAULT_VERTEX_CAP = 5_000_000

AGENT = "a"
ENV = "e"


class _Rows:
    """Forward adjacency view: ``rows[u]`` lists u's (successor, weight)
    pairs."""

    def __init__(self, first, deg, dst, wt):
        self._first, self._deg, self._dst, self._wt = first, deg, dst, wt

    def __len__(self):
        return len(self._first)

    def __getitem__(self, u):
        s = self._first[u]
        e = s + self._deg[u]
        return list(zip(self._dst[s:e], self._wt[s:e]))

    def __iter__(self):
        return (self[u] for u in range(len(self)))


@dataclass(frozen=True, eq=False)
class Arena:
    """Reachable game graph with movement weights on the edges entering
    agent vertices; in the quotient, reachable up to acceptance, a dead
    automaton state or the cut, and the row of an accepting, dead or
    unexpanded vertex is empty."""

    kind: bytearray          # id -> 0 on agent vertices, 1 on env vertices
    x: array                 # id -> physical state
    q: array                 # id -> automaton state
    sfx: array               # id -> knowledge suffix id
    xhat: array              # id -> committed successor (env), -1 (agent)
    first: array             # id -> first edge slot of its row
    deg: array               # id -> number of edge slots in its row
    last_in: array           # id -> newest edge slot entering it, -1 if none
    src: array               # edge slot -> source id; rows in expansion order
    dst: array               # edge slot -> target id; agent rows in committed
                             # successor order, env rows sorted by target
    wt: list                 # edge slot -> movement weight, 0 on commitments
    prev_in: array           # edge slot -> previous slot entering its target,
                             # -1 if none
    suffixes: list           # suffix id -> ((state, pattern), ...) in order
                             # of exploration, or of state in the quotient
    v0: int
    accepting: tuple         # sorted agent vertex ids with accepting q

    @property
    def n(self) -> int:
        return len(self.kind)

    @property
    def fwd(self) -> _Rows:
        return _Rows(self.first, self.deg, self.dst, self.wt)

    def is_agent(self, v: int) -> bool:
        return not self.kind[v]

    def vertex(self, v: int) -> tuple:
        """(AGENT, x, q, suffix) or (ENV, x, q, suffix, xhat)."""
        sfx = self.suffixes[self.sfx[v]]
        if self.kind[v]:
            return (ENV, self.x[v], self.q[v], sfx, self.xhat[v])
        return (AGENT, self.x[v], self.q[v], sfx)

    def edges(self):
        """(u, v, weight) in slot order."""
        return zip(self.src, self.dst, self.wt)


def _storage(m: Pkwts, a: Dfa, cap: int, lab: tuple):
    """An arena's append-only storage, as a dict of its vertex and edge
    fields, holding the start vertex, and the closures that extend it:
    ``grow`` counts one vertex against ``cap`` (ArenaTooLarge), ``add``
    appends a vertex and returns its id, ``agent`` looks an agent vertex
    up by one integer key, adding it when new, and ``link`` appends the
    edge u -> v of weight w to u's row and to v's in-edge list.  A row's
    edges are linked one after another, when its vertex is expanded.
    ``lab`` is the letter index of each state."""
    kind = bytearray()
    xs, qs, sfxs, xhats = array("i"), array("i"), array("i"), array("i")
    first, deg, last_in = array("i"), array("i"), array("i")
    src, dst, wt, prev_in = array("i"), array("i"), [], array("i")
    agent_ids = {}  # (sfx * |Q| + q) * |X| + x -> agent vertex id
    size = 0

    def grow():
        nonlocal size
        size += 1
        if size > cap:
            raise ArenaTooLarge(f"arena exceeded {cap} vertices")

    def add(k, x, q, sid, xhat):
        grow()
        vid = len(kind)
        kind.append(k)
        xs.append(x)
        qs.append(q)
        sfxs.append(sid)
        xhats.append(xhat)
        first.append(0)
        deg.append(0)
        last_in.append(-1)
        return vid

    def agent(x, q, sid):
        key = (sid * a.n + q) * m.n + x
        vid = agent_ids.get(key)
        if vid is None:
            vid = agent_ids[key] = add(0, x, q, sid, -1)
        return vid

    def link(u, v, w):
        e = len(dst)
        if not deg[u]:
            first[u] = e
        deg[u] += 1
        src.append(u)
        dst.append(v)
        wt.append(w)
        prev_in.append(last_in[v])
        last_in[v] = e

    agent(m.initial, a.trans[a.initial][lab[m.initial]], 0)
    store = dict(kind=kind, x=xs, q=qs, sfx=sfxs, xhat=xhats, first=first,
                 deg=deg, last_in=last_in, src=src, dst=dst, wt=wt,
                 prev_in=prev_in)
    return store, grow, add, agent, link


def _to_go(m: Pkwts, a: Dfa, lab: tuple, succ: tuple) -> tuple:
    """(h, settled): h at ``x * |Q| + q`` is the cheapest cost from
    (x, q) to acceptance in skeleton x automaton, INF where none.  h is 0
    at an accepting q and INF at a dead one, set without search; one
    backward search over the live automaton layers finds the rest, from a
    source joined to each live (x, q) at weight w(x, y) for every
    skeleton edge x -> y whose letter enters acceptance, and ``settled``
    counts the pairs it settles.  h is consistent, h(x, q) <= w(x, y) +
    h(y, q') on every edge, so it bounds the cost to acceptance in every
    world from below and is a feasible potential for a search on any
    subgraph (``BestResponse``, the U search).  ``lab`` is the letter
    index of each state and ``succ`` its skeleton successors
    (``skeleton_successors``), whose weights ``Pkwts`` has checked."""
    nq, trans, accepts, dead = a.n, a.trans, a.accepting, a.dead
    live = [q for q in range(nq) if q not in accepts and q not in dead]
    top = m.n * nq  # the search's source
    back = {top: []}  # (y, q') -> [((x, q), w(x, y)), ...], pairs as ids
    seeds, weights = back[top], m.weights
    for x, ys in enumerate(succ):
        for y in ys:
            col, w = lab[y], weights[(x, y)]
            for q in live:
                q2 = trans[q][col]
                if q2 in accepts:
                    seeds.append((x * nq + q, w))
                elif q2 not in dead:
                    back.setdefault(y * nq + q2, []).append((x * nq + q, w))
    h = [0 if q in accepts else INF for q in range(nq)] * m.n
    search = dijkstra(back, top)
    next(search)  # the source
    settled = 0
    for u, d in search:
        h[u] = d
        settled += 1
    return h, settled


def build_arena(m: Pkwts, a: Dfa, cap: int = DEFAULT_VERTEX_CAP,
                limit=INF) -> Arena:
    """The order-free quotient the solvers play on, built from the start
    up to acceptance, a dead automaton state, or the cut at ``limit``: a
    new ``CutBuild`` extended once.

    Knowledge is keyed by its observed-pattern row: a vertex is (x, q,
    row), the suffix of an id lists the row's observations in ascending
    state order, and plays that observed the same patterns in different
    orders meet.  Every env vertex with a single successor is contracted:
    a move into a known or already explored state is one agent->agent
    edge carrying the movement weight, and only a move that reveals an
    unexplored state keeps an env vertex.  A play's payoff is fixed at
    acceptance, and a play at a dead q (``Dfa.dead``) is lost in every
    world, so an accepting or dead agent vertex gets an empty row.
    Accepting automaton states are absorbing and so are dead ones, so
    what is dropped is only agent and env vertices with accepting or dead
    q.  ``cap`` bounds the uncontracted arena up to acceptance or a dead
    q: it counts each contracted env vertex and each accepting or dead
    vertex, but no successor of one.

    Vertices are expanded in order of f = g + h (A*), ties by id: g is
    the cheapest cost of reaching the vertex and h (``_to_go``, w(x, xhat)
    + h(xhat) at an env vertex) a consistent lower bound on the cost to
    acceptance.  The build expands every vertex with f <= ``limit`` and
    no other: a vertex met but not expanded keeps an empty row and is not
    accepting.  At ``limit`` INF every vertex is expanded."""
    return CutBuild(m, a, cap).extend(limit)


class CutBuild:
    """One quotient build (``build_arena``), resumable at a higher limit.

    It computes the model's skeleton index once: the letter index
    ``lab`` and h (``_to_go`` on the skeleton successors, settling
    ``h_settled`` pairs).  It keeps its heap, g and suffix rows between
    calls, and grows one arena in place.
    ``extend(limit)`` pops only while the heap's least f is at most
    ``limit``, so a build extended through increasing limits expands the
    vertices of one fresh build at the last limit, in the same order: A*
    pops f in nondecreasing order, h being consistent, and vertex ids are
    stable.  It returns ``arena``, the rows expanded so far, which is
    valid until the next ``extend`` grows it; a call that expands nothing
    returns the same arena.  ``next_f`` is the least f of a vertex not
    yet expanded, None once every vertex is; the search state is then
    dropped, and only the arena is kept."""

    def __init__(self, m: Pkwts, a: Dfa, cap: int = DEFAULT_VERTEX_CAP):
        self.lab = letters(m.labels, a)
        self.h, self.h_settled = _to_go(m, a, self.lab,
                                        skeleton_successors(m))
        self.arena = None
        self._rounds = _rounds(m, a, cap, self.lab, self.h)
        self.next_f = next(self._rounds)

    def extend(self, limit) -> Arena:
        if self.arena is None or (self.next_f is not None
                                  and self.next_f <= limit):
            self.arena, self.next_f = self._rounds.send(limit)
            if self.next_f is None:
                self._rounds = None
        return self.arena


def _rounds(m, a, cap, lab, h):
    """``CutBuild``'s state, as a generator that yields the least f in
    the heap, then, sent each round's limit, the arena grown that round
    and the least f left."""
    nq = a.n
    store, grow, add, agent, link = _storage(m, a, cap, lab)
    kind, xs, qs, sfxs, xhats = (store[k] for k in ("kind", "x", "q", "sfx",
                                                      "xhat"))
    patterns, weights, trans = m.patterns, m.weights, a.trans
    rows = [array("i", [0 if len(p) == 1 else -1 for p in patterns])]
    suffixes = [()]
    children = {}  # row -> suffix id

    def explore(sid, x, p):
        row = array("i", rows[sid])
        row[x] = p
        key = row.tobytes()
        child = children.get(key)
        if child is None:
            child = children[key] = len(suffixes)
            rows.append(row)
            suffixes.append(
                tuple(sorted(suffixes[sid] + ((x, patterns[x][p]),))))
        return child

    g = array("q")  # id -> cheapest cost found so far; -1 once expanded
    heap = []

    def reach(v, d, f):  # offer v the cost d; f = d + h(v)
        if v == len(g):
            g.append(d)
        elif d < g[v]:
            g[v] = d
        else:
            return
        heappush(heap, (f, v))

    reach(0, 0, h[xs[0] * nq + qs[0]])
    accepts, dead = a.accepting, a.dead
    accepting = []  # expanded agent vertices with accepting q
    limit = yield heap[0][0]
    while True:
        while heap and heap[0][0] <= limit:
            u = heappop(heap)[1]
            d = g[u]
            if d < 0:  # expanded at a lower f
                continue
            g[u] = -1
            x, q, sid = xs[u], qs[u], sfxs[u]
            row = rows[sid]
            if kind[u]:  # a committed move that reveals xhat's pattern
                xhat = xhats[u]
                q2 = trans[q][lab[xhat]]
                w = weights[(x, xhat)]
                fv = d + w + h[xhat * nq + q2]
                for v in sorted([agent(xhat, q2, explore(sid, xhat, p))
                                 for p in range(len(patterns[xhat]))]):
                    reach(v, d + w, fv)
                    link(u, v, w)
            elif q in accepts:  # the payoff is fixed at acceptance
                accepting.append(u)
            elif q not in dead:  # and a dead q loses in every world
                for xhat in patterns[x][row[x]]:
                    q2 = trans[q][lab[xhat]]
                    w = weights[(x, xhat)]
                    fv = d + w + h[xhat * nq + q2]
                    if row[xhat] >= 0:
                        grow()  # the env vertex this edge contracts
                        v = agent(xhat, q2, sid)
                        reach(v, d + w, fv)
                    else:
                        v, w = add(1, x, q, sid, xhat), 0
                        reach(v, d, fv)
                    link(u, v, w)
        while heap and g[heap[0][1]] < 0:  # entries of expanded vertices
            heappop(heap)
        limit = yield (Arena(**store, suffixes=suffixes, v0=0,
                             accepting=tuple(sorted(accepting))),
                       heap[0][0] if heap else None)


def build_ordered_arena(m: Pkwts, a: Dfa,
                        cap: int = DEFAULT_VERTEX_CAP) -> Arena:
    """Breadth-first construction of everything reachable from the start,
    with knowledge in order of exploration: suffixes are interned in a
    trie keyed by (parent id, state, pattern index).  ``cap`` bounds the
    vertex count."""
    lab = letters(m.labels, a)
    store, _, add, agent, link = _storage(m, a, cap, lab)
    kind, xs, qs, sfxs, xhats = (store[k] for k in ("kind", "x", "q", "sfx",
                                                      "xhat"))
    patterns, weights, trans = m.patterns, m.weights, a.trans
    rows = [array("i", [0 if len(p) == 1 else -1 for p in patterns])]
    suffixes = [()]
    children = {}  # (parent id, state, pattern index) -> suffix id

    def explore(sid, x, p):
        key = (sid, x, p)
        child = children.get(key)
        if child is None:
            child = children[key] = len(suffixes)
            row = array("i", rows[sid])
            row[x] = p
            rows.append(row)
            suffixes.append(suffixes[sid] + ((x, patterns[x][p]),))
        return child

    u = 0
    while u < len(kind):  # vertices are appended in BFS order
        x, q, sid = xs[u], qs[u], sfxs[u]
        row = rows[sid]
        if not kind[u]:
            for xhat in patterns[x][row[x]]:
                link(u, add(1, x, q, sid, xhat), 0)
        else:
            xhat = xhats[u]
            q2 = trans[q][lab[xhat]]
            w = weights[(x, xhat)]
            if row[xhat] >= 0:
                succs = (agent(xhat, q2, sid),)
            else:
                succs = sorted([agent(xhat, q2, explore(sid, xhat, p))
                                for p in range(len(patterns[xhat]))])
            for v in succs:
                link(u, v, w)
        u += 1
    accepting = tuple(v for v in range(len(kind))
                      if not kind[v] and qs[v] in a.accepting)
    return Arena(**store, suffixes=suffixes, v0=0, accepting=accepting)


def size_bound(m: Pkwts, a: Dfa) -> int:
    """Worst-case vertex count of the ordered arena, which bounds the
    quotient too: n! * 2^n * |X| * |Q| * |X| * skeleton edges."""
    n_un = len(m.unknown_states)
    edge_measure = m.n * sum(map(len, skeleton_successors(m)))
    return math.factorial(n_un) * (2 ** n_un) * m.n * a.n * edge_measure


def arena_to_json(arena: Arena) -> dict:
    verts = []
    for i in range(arena.n):
        vt = arena.vertex(i)
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
