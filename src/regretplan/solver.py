"""Strategy synthesis on the knowledge-based arena.

Regret and worst case share one game solver, a Dijkstra-order min-max
solve; the best case plans on the refined skeleton:

* regret: reweight edges so that finite-cost plays are exactly the
  shortest plays, with each accepting edge charged the gap between that
  play's cost and the best response for the knowledge collected; then
  solve the min-max game.  The best response is one exact search that
  picks unknown patterns lazily, memoized by the observed patterns.
* worst case: min-max over the original movement weights.
* best case: optimistic replanning on the refined skeleton, packaged as
  an online policy.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from typing import NamedTuple

from .arena import Arena, build_arena
from .errors import (
    SolverInvariantError,
    StrategyIncomplete,
    StuckNoPath,
    UnrealizableTask,
)
from .formula import Dfa
from .model import (
    INF,
    KnowledgeSet,
    Pkwts,
    dijkstra,
    initial_knowledge,
    product,
    refine,
    shortest_path_to,
    skeleton,
)

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
    Accepting vertices end a path and are not expanded.  The value
    depends on which patterns were observed, not in what order, so the
    memo is keyed by the order-free ``row``.
    """

    def __init__(self, m: Pkwts, a: Dfa):
        self.m = m
        self.a = a
        self.lab = [a.letter_index(m.labels[x]) for x in range(m.n)]
        self.slot = {x: j for j, x in enumerate(m.unknown_states)}
        self.memo = {}

    def __call__(self, suffix) -> object:
        row = [-1] * len(self.slot)
        for x, o in suffix:
            row[self.slot[x]] = self.m.patterns[x].index(tuple(o))
        row = tuple(row)
        if row not in self.memo:
            m, a = self.m, self.a
            q0 = a.trans[a.initial][self.lab[m.initial]]
            dist, _ = dijkstra(self, (m.initial, q0, row))
            self.memo[row] = min((d for (_, q, _), d in dist.items()
                                  if q in a.accepting), default=INF)
        return self.memo[row]

    def get(self, u, default=None):
        """Search successors of ``u`` with their movement weights."""
        x, q, row = u
        if q in self.a.accepting:
            return
        family, j = self.m.patterns[x], self.slot.get(x)
        if j is not None and row[j] < 0:
            picks = [(p, row[:j] + (i,) + row[j + 1:])
                     for i, p in enumerate(family)]
        else:
            picks = [(family[0 if j is None else row[j]], row)]
        for pattern, nrow in picks:
            for y in pattern:
                succ = (y, self.a.trans[q][self.lab[y]], nrow)
                yield succ, self.m.weights[(x, y)]


def best_response(m: Pkwts, a: Dfa, k: KnowledgeSet):
    """One-off best-response query; see BestResponse."""
    return BestResponse(m, a)(k.suffix)


# ---------------------------------------------------------------------------
# shortest-play edge set and the regret weight function

class EspResult(NamedTuple):
    edges: set        # slots of the edges on some cheapest play to a final
    dist: dict        # forward distances from the initial vertex


def compute_e_sp(arena: Arena) -> EspResult:
    """Shortest-play edges: the tight edges (``dist[u] + w == dist[v]``)
    from which a path of tight edges reaches a reachable accepting vertex.

    Along any path the slack ``dist[u] + w - dist[v]`` is nonnegative and
    telescopes, so a path from v0 is a cheapest play to its end exactly
    when every edge on it is tight.
    """
    dist, _ = dijkstra(arena.fwd, arena.v0)  # every vertex is reachable
    for u, v, w in arena.edges():
        if dist[u] + w < dist[v]:
            raise SolverInvariantError(
                f"edge ({u},{v}) undercuts the shortest distance to {v}")
    finals = [v for v in arena.accepting if v in dist]
    if not finals:
        raise UnrealizableTask("no accepting vertex is reachable")
    src, wt, rev_start, rev_edge = (
        arena.src, arena.wt, arena.rev_start, arena.rev_edge)
    edges = set()
    on_play = bytearray(arena.n)
    for v in finals:
        on_play[v] = 1
    stack = finals
    while stack:
        v = stack.pop()
        dv = dist[v]
        for e in rev_edge[rev_start[v]:rev_start[v + 1]]:
            u = src[e]
            if dist[u] + wt[e] == dv:
                edges.add(e)
                if not on_play[u]:
                    on_play[u] = 1
                    stack.append(u)
    return EspResult(edges=edges, dist=dist)


def build_mu(arena: Arena, esp: EspResult, br_fn) -> list:
    """Regret weight of each edge slot: zero on commitments and on
    shortest-play movement, infinite off the shortest plays, and
    cheapest-play cost minus best response on edges entering an accepting
    vertex."""
    accepting = bytearray(arena.n)
    for v in arena.accepting:
        accepting[v] = 1
    kind, esp_edges = arena.kind, esp.edges
    mu = []
    for e, (u, v) in enumerate(zip(arena.src, arena.dst)):
        if not kind[u]:
            mu.append(0)
        elif e not in esp_edges:
            mu.append(INF)
        elif accepting[v]:
            value = esp.dist[v] - br_fn(arena.suffixes[arena.sfx[v]])
            if value < 0:
                raise SolverInvariantError(
                    f"best response exceeds shortest-play cost at vertex {v}")
            mu.append(value)
        else:
            mu.append(0)
    return mu


# ---------------------------------------------------------------------------
# min-max game solve (env maximizes, agent minimizes, accepting vertices
# pinned to zero)

class MinMaxResult(NamedTuple):
    values: list
    choices: dict   # agent vertex id -> successor id, or None for stop
    sweeps: int     # vertices settled, i.e. vertices with a finite value


def solve_minmax(arena: Arena, weights) -> MinMaxResult:
    """Min-cost reachability game with nonnegative weights, one per edge
    slot, solved in Dijkstra order (Khachiyan et al., ToCS 2008; Brihaye
    et al., Acta Informatica 2017).

    Vertices settle in nondecreasing value from the accepting ones.  An
    agent vertex settles at its first pop, which is its cheapest move; an
    env vertex is pushed once its last successor has settled, at the
    largest ``value + weight``.  An infinite edge, or a successor that
    never settles, leaves a vertex at INF.  Each vertex settles at most
    once, so ``sweeps`` counts the vertices with a finite value.
    """
    n = arena.n
    kind, start, dst, src = arena.kind, arena.start, arena.dst, arena.src
    rev_start, rev_edge = arena.rev_start, arena.rev_edge
    values = [INF] * n  # final once settled; an agent's best offer before
    for v in arena.accepting:
        values[v] = 0
    unsettled_succs = [start[v + 1] - start[v] for v in range(n)]
    worst = [0] * n  # env: max of value + weight over settled successors
    settled = bytearray(n)
    heap = [(0, v) for v in arena.accepting]
    sweeps = 0
    while heap:
        d, v = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = 1
        values[v] = d
        sweeps += 1
        for e in rev_edge[rev_start[v]:rev_start[v + 1]]:
            u = src[e]
            if settled[u]:
                continue
            w = weights[e]
            if w == INF:
                continue
            cand = d + w
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
    log.debug("min-max settled %d of %d vertices", sweeps, n)

    accepting = set(arena.accepting)
    choices = {}
    for v in range(n):
        if kind[v]:
            continue
        if v in accepting:
            choices[v] = None
        elif values[v] < INF:
            best = None
            for e in range(start[v], start[v + 1]):
                t = dst[e]
                if _is_round_trip(arena, t, v):
                    continue
                if values[t] + weights[e] == values[v]:
                    best = t
                    break  # successors are sorted by id: first hit wins ties
            if best is None:
                raise SolverInvariantError(f"no witness successor at vertex {v}")
            choices[v] = best
    return MinMaxResult(values=values, choices=choices, sweeps=sweeps)


def _is_round_trip(arena: Arena, env_v: int, agent_v: int) -> bool:
    # an env vertex whose only move returns to the same agent vertex can
    # never make progress (designated goal self-loops produce these)
    s = arena.start[env_v]
    return arena.start[env_v + 1] == s + 1 and arena.dst[s] == agent_v


def _reachable_decisions(arena: Arena, choices: dict) -> dict:
    """Restrict a vertex-indexed decision map to play-reachable vertices,
    keyed by (state, automaton state, knowledge suffix)."""
    kind, start, dst = arena.kind, arena.start, arena.dst
    decisions = {}
    seen = {arena.v0}
    stack = [arena.v0]
    while stack:
        v = stack.pop()
        if not kind[v]:
            go = choices[v]
            decisions[arena.vertex(v)[1:]] = None if go is None else arena.xhat[go]
            nxt = () if go is None else (go,)
        else:
            nxt = dst[start[v]:start[v + 1]]
        for t in nxt:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return decisions


# ---------------------------------------------------------------------------
# the three synthesis entry points

def solve_regret(m: Pkwts, a: Dfa):
    """Regret-minimizing strategy and its regret value."""
    arena = build_arena(m, a)
    esp = compute_e_sp(arena)
    mu = build_mu(arena, esp, BestResponse(m, a))
    return _positional("regret", arena, solve_minmax(arena, mu))


def solve_worst_case(m: Pkwts, a: Dfa):
    """Strategy minimizing the worst-case total cost, and that cost."""
    arena = build_arena(m, a)
    return _positional("worst", arena, solve_minmax(arena, arena.wt))


def _positional(objective: str, arena: Arena, result: MinMaxResult):
    """The solved game's strategy from the initial vertex, and its value."""
    value = result.values[arena.v0]
    if value == INF:
        raise UnrealizableTask("no strategy wins in every compatible environment")
    decisions = _reachable_decisions(arena, result.choices)
    return PositionalStrategy(objective, value, decisions), value


class OnlinePolicy:
    """Optimistic replanner: always treats the refined skeleton as the
    real world and follows its cheapest satisfying path, replanning as
    observations arrive."""

    objective = "best"
    value = None

    def __init__(self, m: Pkwts, a: Dfa):
        self.m = m
        self.a = a
        self.base = initial_knowledge(m).base

    def decide(self, x: int, q: int, suffix):
        if q in self.a.accepting:
            return None
        refined = refine(self.m, KnowledgeSet(self.base, suffix))
        prod = product(skeleton(refined), self.a)
        source = (x, q)
        cost, path = shortest_path_to(prod.adj, source, prod.accepting)
        if path is None:
            raise StuckNoPath(
                f"no satisfying path from state {x} under current knowledge")
        return path[1][0]


def best_case_policy(m: Pkwts, a: Dfa) -> OnlinePolicy:
    return OnlinePolicy(m, a)
