"""Strategy synthesis on the knowledge-based arena.

Regret and worst case share one path: build the order-free quotient of
the arena, solve one Dijkstra-order min-max game over the movement
weights up to the root's value, then walk the ordered plays the solved
values allow, picking each agent's move where the walk meets it.  The
objectives differ only in the value of an accepting vertex: 0 for the
worst case, and minus the best response of its observed-pattern row for
regret.  So one ``QuotientGame`` per model makes one resumable build of
the quotient, in whichever solve comes first, and serves both objectives.
The best case plans on the refined skeleton.

Why this solves the regret game:

1. Regret is additive.  A strategy's regret is the largest, over its
   plays, of the play's cost minus the best response of the knowledge at
   its end; the best response depends only on the observed-pattern row.
   Split at any vertex, that is the cost so far plus (future cost minus
   br(final row)), so the min-max recursion with accepting vertices
   seeded at -br(row) is the regret game.
2. The quotient is the ordered arena with the order of the suffix
   forgotten and every single-successor env vertex contracted into the
   edge that enters it.  Forgetting the order preserves kind, x, q, row,
   committed successor, weights and acceptance, and carries each
   successor list onto the image's; an env vertex with one move is worth
   that move's value plus its weight, which is what the contracted edge
   charges.  So an agent vertex and its image have the same value.
3. The tie-break picks the same committed successor.  Both forms list an
   agent's moves in ascending committed successor and take the first
   move that attains the value, skipping a move that returns to the
   deciding vertex: an env vertex whose only move goes back, which the
   quotient contracts to a self-edge.  A move that reveals a pattern
   leads to a new row and never returns.
4. Ending the quotient at acceptance and at dead automaton states, and
   deriving best responses, are exact.  A play stops at its first
   accepting vertex, and the game solve pins accepting vertices and never
   relaxes them, so the moves of an accepting vertex and every vertex
   reached only through them change no value or choice of a vertex a
   play can meet before acceptance; the quotient builds neither.  From a
   dead q no word reaches acceptance and dead states are closed under
   every letter, so a dead vertex is worth INF in both games, with or
   without its moves, and has no edge into a live vertex: it is never a
   cheapest move and never ties, and cutting its moves changes no value,
   choice or tie-break of a live vertex.  The best-response search drops
   every vertex with h = INF (item 6), dead ones included: no world
   reaches acceptance from it.  It runs on the reduced weights
   w(x, y) + h(y, q') - h(x, q), which are nonnegative because h is
   consistent; a path's reduced cost is its cost plus h at its end minus
   h(v0), and h is 0 at acceptance, so the cheapest accepting vertex
   settles first and its reduced distance plus h(v0) is the value.  The
   worlds consistent with a row are the union, over the patterns of any
   one unexplored state, of the worlds of the row that fixes it, so the
   row's best response is the least of theirs.  The regret solve
   evaluates its seeds from the most-observed row down, so most partly
   observed rows find those rows memoized and need no search.
5. Stopping the solve past the root's value is exact.  An agent's move
   pays a nonnegative weight and an env vertex takes the largest of its
   successors, so no vertex on a play of the root's strategy is valued
   above the root.  Dijkstra order settles every vertex valued at most
   the root's value before the first pop above it, exactly.  When the
   solve stops, the heap minimum is above the root's value, so an
   unsettled agent vertex holds an offer above it and an unsettled env
   vertex is still INF: no move into an unsettled vertex ties with the
   value of a vertex the walk meets.  An INF root never stops the solve.
6. Cutting the build at a limit is exact, and deepening certifies the
   cut.  h(x, q), the cheapest cost to acceptance in skeleton x
   automaton, found once per game by one backward search over the live
   automaton layers (``arena._to_go``) that also gives h(v0), bounds
   every world's, so a play through v costs at least g(v) + h(v), g(v)
   being v's cheapest cost from the start; h is consistent, so
   ``build_arena`` expands every vertex with g + h <= limit.  U, the
   optimum of the intersection world (each state keeps the successors
   all its patterns share), is at least every world's optimum, so
   br(row) <= U for every row, and its path wins blindly: worst <= U and
   regret <= U - br0 <= U - h(v0).  U is found by A* on h: the
   intersection world is a subgraph of the skeleton, so h is consistent
   on it too, the reduced weights are nonnegative, and the first
   accepting pair settled is the cheapest.
   V, the cut game's root value, is an upper bound on the true value: a
   vertex past the cut has no moves and is INF, so no value falls, and a
   strategy of the cut game is one of the full game.  Take E = 0 (worst)
   or E = U (regret), the bound on a seed.  If g(v) + value(v) <= B,
   every play of v's strategy, entered along v's cheapest path, ends at a
   cost at most B + E, so the strategy is built within the cut at B + E
   and v's value is exact.  The walk meets only such vertices, a move
   attaining the full value leads to another, and any other move is
   valued higher: it picks the same moves.  The worst case is cut at
   B = U.  Regret deepens by rounds cut at B + U.  A round with V <= B
   is exact, since the true regret is at most V.  A round with V > B
   shows the true regret lies in (B, V], so the next round takes B' in
   (B, V], and no larger than U - h(v0), where a round is exact.  If no
   vertex is left with f <= V + U, the cut is already the cut at V + U,
   so the round is exact too.  The rounds end: each raises B by at least
   1, the weights being integers, and B never passes U - h(v0).

The paper's shortest-play reduction (charge cost minus best response on
edges entering an accepting vertex, forbid edges on no cheapest play) is
not equivalent on multi-goal tasks: a cheaper play can reach the same
ordered vertex only in worlds the agent cannot count on, and dropping
the dearer one overestimates regret
(tests/test_solver.py::test_regret_counterexample_to_shortest_play_reduction).
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import NamedTuple

from .arena import Arena, CutBuild
from .arena import build_arena  # noqa: F401  perfbench traces it from here
from .errors import (
    SolverInvariantError,
    StrategyIncomplete,
    StuckNoPath,
    UnrealizableTask,
)
from .formula import Dfa
from .model import INF, Pkwts, Product, dijkstra, letters
from .model import product  # noqa: F401  perfbench traces it from here
from .model import shortest_path_to, skeleton_successors

log = logging.getLogger("regretplan.solver")


@dataclass
class PositionalStrategy:
    """Decision map over (state, automaton state, exploration suffix)."""

    objective: str
    value: object
    decisions: dict  # key -> successor state id, or None for stop

    def decide(self, x: int, q: int, suffix):
        key = (x, q, suffix)
        if key not in self.decisions:
            raise StrategyIncomplete(f"no decision at {key}")
        return self.decisions[key]

    def to_json(self) -> dict:
        entries = []
        for (x, q, sfx), go in sorted(
            self.decisions.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
        ):
            entries.append({
                "x": x,
                "q": q,
                "ksuffix": [[s, list(o)] for s, o in sfx],
                "go": "stop" if go is None else go,
            })
        value = self.value
        if value == INF:
            value = None
        return {"objective": self.objective, "value": value, "decisions": entries}

    @classmethod
    def from_json(cls, data: dict) -> "PositionalStrategy":
        decisions = {}
        for entry in data["decisions"]:
            sfx = tuple((s, tuple(o)) for s, o in entry["ksuffix"])
            go = entry["go"]
            decisions[(entry["x"], entry["q"], sfx)] = None if go == "stop" else go
        return cls(objective=data["objective"], value=data["value"],
                   decisions=decisions)


class BestResponse:
    """Cheapest satisfying cost over the environments consistent with a
    knowledge record: ``min over worlds of opt(world)``, exactly.

    One ``model.dijkstra`` over search vertices ``(x, q, row)``, where
    ``row[j]`` is the pattern index of the j-th unknown state: observed,
    or -1 until a path first leaves that state.  Leaving it branches over
    its patterns and fixes the pick, so every search path lives in one
    world, and each world's cheapest satisfying path is a search path.
    The search is A*: it runs on weights reduced by ``h`` (``_to_go``),
    w(x, y) + h(y, q') - h(x, q) >= 0, and
    skips a successor with h = INF, dead automaton states included, from
    which no world accepts.  Accepting vertices end a path, and the
    search stops at the first one settled, the cheapest; the value is its
    reduced distance plus h(v0), and INF without a search when h(v0) is.
    The value depends on which patterns were observed, not in what order,
    so the memo is keyed by the order-free ``row``.

    A row's completions split by the pattern of any one unexplored state
    j, so its value is the least value of the rows that fix j.  Before it
    searches, a call looks for a j whose rows are all memoized and takes
    that least value instead.  It looks one level only: recursing over
    every completion would enumerate the worlds the lazy search avoids.
    ``searches`` and ``derived`` count the two paths, and ``settled`` the
    vertices the searches settle.  h and the letter index are read from
    ``build``, the game's ``CutBuild``, or from a new one when not given.
    """

    def __init__(self, m: Pkwts, a: Dfa, build: CutBuild | None = None):
        self.m = m
        self.a = a
        if build is None:
            build = CutBuild(m, a)
        self.lab, self.h = build.lab, build.h
        unknown = m.unknown_states
        self.slot = {x: j for j, x in enumerate(unknown)}
        self.n_patterns = [len(m.patterns[x]) for x in unknown]
        self.memo = {}
        self.searches = 0
        self.derived = 0
        self.settled = 0

    def __call__(self, suffix) -> object:
        row = [-1] * len(self.slot)
        for x, o in suffix:
            row[self.slot[x]] = self.m.patterns[x].index(tuple(o))
        row = tuple(row)
        if row not in self.memo:
            self.memo[row] = self._value(row)
        return self.memo[row]

    def _value(self, row):
        memo = self.memo
        for j, k in enumerate(self.n_patterns):
            if row[j] < 0:
                split = [row[:j] + (p,) + row[j + 1:] for p in range(k)]
                if all(r in memo for r in split):
                    self.derived += 1
                    return min(memo[r] for r in split)
        self.searches += 1
        m, a = self.m, self.a
        q0 = a.trans[a.initial][self.lab[m.initial]]
        h0 = self.h[m.initial * a.n + q0]
        if h0 == INF:
            return INF
        for (_, q, _), d in dijkstra(self, (m.initial, q0, row)):
            self.settled += 1
            if q in a.accepting:
                return d + h0
        return INF

    def get(self, u, default=None):
        """Search successors of ``u`` with their reduced weights."""
        x, q, row = u
        if q in self.a.accepting:
            return
        h, nq, trans, weights = self.h, self.a.n, self.a.trans[q], self.m.weights
        hu = h[x * nq + q]
        family, j = self.m.patterns[x], self.slot.get(x)
        if j is not None and row[j] < 0:
            picks = [(p, row[:j] + (i,) + row[j + 1:])
                     for i, p in enumerate(family)]
        else:
            picks = [(family[0 if j is None else row[j]], row)]
        for pattern, nrow in picks:
            for y in pattern:
                q2 = trans[self.lab[y]]
                hv = h[y * nq + q2]
                if hv < INF:
                    yield (y, q2, nrow), weights[(x, y)] + hv - hu


# ---------------------------------------------------------------------------
# min-max game solve (env maximizes, agent minimizes, each accepting
# vertex pinned to its terminal value)

class MinMaxResult(NamedTuple):
    values: list    # exact wherever <= values[v0], above values[v0] elsewhere
    sweeps: int     # vertices settled, i.e. vertices valued <= values[v0]


def solve_minmax(arena: Arena, terminal) -> MinMaxResult:
    """Min-cost reachability game over the movement weights, with each
    accepting vertex worth ``terminal(v)``, solved in Dijkstra order
    (Khachiyan et al., ToCS 2008; Brihaye et al., Acta Informatica 2017)
    up to the root's value (Liu & Smolka, ICALP 1998).

    Vertices settle in nondecreasing value from the accepting ones.  An
    agent vertex settles at its first pop, which is its cheapest move; an
    env vertex is pushed once its last successor has settled, at the
    largest ``value + weight``.  A play stops at its first accepting
    vertex, so accepting vertices keep their terminal value and are never
    relaxed.  The solve stops at the first pop above the root's value,
    once the root has settled, so ``values[v]`` is exact wherever it is
    at most ``values[v0]`` and greater than ``values[v0]`` everywhere
    else; an INF root never stops it, and a successor that never settles
    leaves a vertex at INF.  Each vertex settles at most once, so
    ``sweeps`` counts the vertices valued at most ``values[v0]``.
    """
    n = arena.n
    kind, src, wt = arena.kind, arena.src, arena.wt
    last_in, prev_in = arena.last_in, arena.prev_in
    v0 = arena.v0
    values = [INF] * n  # final once settled; an agent's best offer before
    final = bytearray(n)
    heap = []
    for v in arena.accepting:
        final[v] = 1
        values[v] = terminal(v)
        heap.append((values[v], v))
    heapq.heapify(heap)
    unsettled_succs = arena.deg.tolist()
    worst = [-INF] * n  # env: max of value + weight over settled successors
    settled = bytearray(n)
    sweeps = 0
    bound = INF  # the root's value once it has settled
    while heap:
        d, v = heapq.heappop(heap)
        if d > bound:
            break
        if settled[v]:
            continue
        settled[v] = 1
        values[v] = d
        sweeps += 1
        if v == v0:
            bound = d
        e = last_in[v]
        while e >= 0:  # the edges entering v, newest first
            u = src[e]
            if not (settled[u] or final[u]):
                cand = d + wt[e]
                if not kind[u]:
                    if cand < values[u]:
                        values[u] = cand
                        heapq.heappush(heap, (cand, u))
                else:
                    if cand > worst[u]:
                        worst[u] = cand
                    unsettled_succs[u] -= 1
                    if unsettled_succs[u] == 0:
                        heapq.heappush(heap, (worst[u], u))
            e = prev_in[e]
    return MinMaxResult(values=values, sweeps=sweeps)


def _best_move(arena: Arena, values: list, v: int) -> int:
    """The move of a solved agent vertex ``v`` that is not accepting: its
    first move in row order that attains its value, never a self-edge.
    In the quotient a self-edge is a goal self-loop's move, which makes no
    progress; the ordered arena routes that move through an env vertex,
    which is not skipped.  Exact for every ``v`` valued at most the
    root's value: a move into an unsettled vertex costs more than that."""
    dst, wt, first = arena.dst, arena.wt, arena.first[v]
    for e in range(first, first + arena.deg[v]):
        t = dst[e]
        if t != v and values[t] + wt[e] == values[v]:
            return t  # moves ascend by committed successor: first hit wins
    raise SolverInvariantError(f"no witness successor at vertex {v}")


def _reachable_decisions(arena: Arena, values: list) -> dict:
    """Walk the plays the solved values allow from the root, carrying each
    play's ordered knowledge suffix, and key every decision met by (state,
    automaton state, suffix).  An agent vertex stops if accepting and
    otherwise takes its ``_best_move``, picked where the walk meets it.
    Every vertex a play meets is valued at most the root's value: an
    agent's move pays a nonnegative weight and an env vertex takes the
    largest of its successors."""
    kind, first, deg, dst, sfx, x, xhat = (arena.kind, arena.first, arena.deg,
                                           arena.dst, arena.sfx, arena.x,
                                           arena.xhat)
    accepting = set(arena.accepting)
    decisions = {}
    seen = {(arena.v0, ())}
    stack = [(arena.v0, ())]
    while stack:
        v, suffix = stack.pop()
        if not kind[v]:
            go = None if v in accepting else _best_move(arena, values, v)
            decisions[(x[v], arena.q[v], suffix)] = (
                None if go is None else xhat[go] if kind[go] else x[go])
            nxt = () if go is None else ((go, suffix),)
        else:  # each successor observed the pattern at the committed state
            y = xhat[v]
            nxt = [(t, suffix + ((y, dict(arena.suffixes[sfx[t]])[y]),))
                   for t in dst[first[v]:first[v] + deg[v]]]
        for item in nxt:
            if item not in seen:
                seen.add(item)
                stack.append(item)
    return decisions


# ---------------------------------------------------------------------------
# the three synthesis entry points

class QuotientGame:
    """One model's quotient game, solvable for either objective on one
    resumable cut build (``CutBuild``; item 6), made by the first solve.
    The worst case extends it to U.  Regret deepens it by rounds B = 0,
    B1, ... at limit B + U, re-solving after each, until a round certifies
    its value V: V <= B, or no vertex has f <= V + U, so that the cut is
    already the cut at V + U.  The next B is the larger of the midpoint of
    B and V and the next f in the heap less U, capped at V and at
    U - h(v0).  The build grows one arena in place, and each round solves
    it before the next extends it.  Vertex ids are stable across rounds,
    so the seeds of the accepting vertices carry over by id, and one
    ``BestResponse`` serves every round and every regret solve.  A
    complete build drops its search state, so the game then keeps only
    the arena."""

    def __init__(self, m: Pkwts, a: Dfa):
        self.m = m
        self.a = a
        self._build = self._bounds = self._br = None
        self.u_settled = 0

    def bounds(self) -> tuple:
        """(U, h(v0)): the cheapest satisfying cost in the intersection
        world, where each unknown state keeps the successors common to
        all its patterns, and in the skeleton, read from the build's h.
        U is found by A* on h (item 6): a search on the reduced weights
        w(x, y) + h(y, q') - h(x, q) that skips successors with h = INF,
        whose first accepting pair settled is at U - h(v0).  U is INF
        without a search when h(v0) is; ``u_settled`` counts the pairs
        the search settles."""
        if self._bounds is None:
            m, a = self.m, self.a
            self._build = build = CutBuild(m, a)
            nq, lab, h = a.n, build.lab, build.h
            v0 = m.initial * nq + a.trans[a.initial][lab[m.initial]]
            common = tuple(family[0] if len(family) == 1
                           else set.intersection(*map(set, family))
                           for family in m.patterns)

            def get(u, default=None):  # vertex x * |Q| + q
                x, q = divmod(u, nq)
                hu, trans = h[u], a.trans[q]
                for y in common[x]:
                    v = y * nq + trans[lab[y]]
                    if h[v] < INF:
                        yield v, m.weights[(x, y)] + h[v] - hu

            u = INF
            if h[v0] < INF:
                for v, d in dijkstra(SimpleNamespace(get=get), v0):
                    self.u_settled += 1
                    if v % nq in a.accepting:
                        u = d + h[v0]
                        break
            self._bounds = (u, h[v0])
        return self._bounds

    def regret(self):
        u, h0 = self.bounds()
        top = u - h0 if u < INF else INF  # regret <= U - h(v0)
        if self._br is None:
            self._br = BestResponse(self.m, self.a, self._build)
        br, seeds, rounds, b = self._br, {}, [], 0
        while True:
            result = None  # free the last round's values before the next
            arena = self._build.extend(b + u)
            suffixes, sfx = arena.suffixes, arena.sfx
            # most-observed rows first, so that a partly observed row finds
            # the rows of its completions memoized; ties keep vertex order
            new = sorted((v for v in arena.accepting if v not in seeds),
                         key=lambda v: -len(suffixes[sfx[v]]))
            for v in new:
                seeds[v] = -br(suffixes[sfx[v]])
            result = solve_minmax(arena, seeds.__getitem__)
            value, f = result.values[arena.v0], self._build.next_f
            rounds.append((b + u, arena.n, value))
            if value <= b or f is None or f > value + u:
                break
            if b >= top:
                raise SolverInvariantError(
                    f"regret cut at {b + u} is worth {value} > {b}")
            b = min(value, top, max(-(-(b + value) // 2), f - u))
        return _positional("regret", arena, result, u, b + u, lambda: (
            f", {br.searches} best-response searches, {br.derived} derived,"
            f" {br.settled} search vertices settled, rounds"
            f" {' '.join('%s:%s:%s' % r for r in rounds)},"
            f" {self._build.h_settled} h-search and {self.u_settled}"
            f" U-search vertices settled"))

    def worst_case(self):
        u = self.bounds()[0]
        arena = self._build.extend(u)
        return _positional("worst", arena, solve_minmax(arena, lambda v: 0),
                           u, u)


def _game(m: Pkwts, a: Dfa, game) -> QuotientGame:
    if game is None:
        return QuotientGame(m, a)
    if (game.m, game.a) != (m, a):
        raise ValueError("the game was built for another model or automaton")
    return game


def solve_regret(m: Pkwts, a: Dfa, game: QuotientGame | None = None):
    """Regret-minimizing strategy and its regret value; pass the same
    ``game`` to both objectives to build the quotient once."""
    return _game(m, a, game).regret()


def solve_worst_case(m: Pkwts, a: Dfa, game: QuotientGame | None = None):
    """Strategy minimizing the worst-case total cost, and that cost."""
    return _game(m, a, game).worst_case()


def _positional(objective: str, arena: Arena, result: MinMaxResult,
                u, limit, note=None):
    """The solved game's strategy from the initial vertex, and its value.
    ``note`` returns the end of the debug line; it is called only when
    debug logging is on."""
    if log.isEnabledFor(logging.DEBUG):
        log.debug("%s game: U %s, limit %s, %d vertices, %d edges,"
                  " %d settled, %d distinct rows%s", objective, u, limit,
                  arena.n, len(arena.dst), result.sweeps,
                  len(arena.suffixes), note() if note else "")
    value = result.values[arena.v0]
    if value == INF:
        raise UnrealizableTask("no strategy wins in every compatible environment")
    decisions = _reachable_decisions(arena, result.values)
    return PositionalStrategy(objective, value, decisions), value


class OnlinePolicy:
    """Optimistic replanner: always treats the refined skeleton as the
    real world and follows its cheapest satisfying path, replanning as
    observations arrive.  Refining pins each explored state to the pattern
    it showed, so a search patches those rows of the skeleton's product,
    built once, and runs one settle-order search on it, which stops at
    dead automaton states (``Product.get``).

    Each search's path is kept as the plan for its knowledge, so a policy
    searches once per new observation, across all the runs it serves.
    Exact: from v on the path from s, dist_s = w(s..v) + dist_v keeps the
    least (cost, target), and each predecessor chosen from s is reached from
    v on tight edges, so the search from v returns the rest of the path."""

    objective = "best"
    value = None

    def __init__(self, m: Pkwts, a: Dfa):
        self.a = a
        lab = letters(m.labels, a)
        q0 = a.trans[a.initial][lab[m.initial]]
        self.prod = Product(initial=(m.initial, q0),
                            successors=skeleton_successors(m),
                            weights=m.weights, lab=lab, dfa=a)
        self.plan = {}
        self.searches = 0

    def decide(self, x: int, q: int, suffix):
        if q in self.a.accepting:
            return None
        key = (x, q, suffix)
        if key in self.plan:
            return self.plan[key]
        successors = list(self.prod.successors)
        for y, o in suffix:
            successors[y] = o
        prod = replace(self.prod, successors=successors)
        self.searches += 1
        cost, path = shortest_path_to(prod, (x, q), prod.accepting)
        if path is None:
            raise StuckNoPath(
                f"no satisfying path from state {x} under current knowledge")
        for (u, qu), (v, _) in zip(path, path[1:]):
            self.plan[u, qu, suffix] = v
        return self.plan[key]


def best_case_policy(m: Pkwts, a: Dfa) -> OnlinePolicy:
    return OnlinePolicy(m, a)
