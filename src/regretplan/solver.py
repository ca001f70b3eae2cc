"""Strategy synthesis on the knowledge-based arena.

Regret and worst case share one path: build the order-free quotient of
the arena, solve one Dijkstra-order min-max game over the movement
weights, then walk the ordered plays the solved choices allow.  The
objectives differ only in the value of an accepting vertex: 0 for the
worst case, and minus the best response of its observed-pattern row for
regret.  The best case plans on the refined skeleton.

Why this solves the regret game:

1. Regret is additive.  A strategy's regret is the largest, over its
   plays, of the play's cost minus the best response of the knowledge at
   its end; the best response depends only on the observed-pattern row.
   Split at any vertex, that is the cost so far plus (future cost minus
   br(final row)), so the min-max recursion with accepting vertices
   seeded at -br(row) is the regret game.
2. The ordered arena maps onto the quotient by forgetting the order of
   the suffix, and the map is a bisimulation: it preserves kind, x, q,
   row, committed successor, weights and acceptance, and carries each
   successor list onto the successor list of the image.  So a vertex and
   its image have the same value.
3. The first-by-id tie-break picks the same successor.  An agent vertex's
   env successors are created consecutively in ascending committed
   successor order in both forms, and the round-trip test reads only the
   same (x, q) in both, so both forms pick the same committed successor.

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
    Accepting vertices end a path, and the search stops at the first one
    settled, the cheapest.  The value depends on which patterns were
    observed, not in what order, so the memo is keyed by the order-free
    ``row``.
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
            search = dijkstra(self, (m.initial, q0, row))
            self.memo[row] = next((d for (_, q, _), d in search if q in a.accepting), INF)
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
# min-max game solve (env maximizes, agent minimizes, each accepting
# vertex pinned to its terminal value)

class MinMaxResult(NamedTuple):
    values: list
    choices: dict   # agent vertex id -> successor id, or None for stop
    sweeps: int     # vertices settled, i.e. vertices with a finite value


def solve_minmax(arena: Arena, terminal) -> MinMaxResult:
    """Min-cost reachability game over the movement weights, with each
    accepting vertex worth ``terminal(v)``, solved in Dijkstra order
    (Khachiyan et al., ToCS 2008; Brihaye et al., Acta Informatica 2017).

    Vertices settle in nondecreasing value from the accepting ones.  An
    agent vertex settles at its first pop, which is its cheapest move; an
    env vertex is pushed once its last successor has settled, at the
    largest ``value + weight``.  A play stops at its first accepting
    vertex, so accepting vertices keep their terminal value and are never
    relaxed.  A successor that never settles leaves a vertex at INF.  Each
    vertex settles at most once, so ``sweeps`` counts the vertices with a
    finite value.
    """
    n = arena.n
    kind, start, dst, src, wt = (
        arena.kind, arena.start, arena.dst, arena.src, arena.wt)
    rev_start, rev_edge = arena.rev_start, arena.rev_edge
    values = [INF] * n  # final once settled; an agent's best offer before
    final = bytearray(n)
    heap = []
    for v in arena.accepting:
        final[v] = 1
        values[v] = terminal(v)
        heap.append((values[v], v))
    heapq.heapify(heap)
    unsettled_succs = [start[v + 1] - start[v] for v in range(n)]
    worst = [-INF] * n  # env: max of value + weight over settled successors
    settled = bytearray(n)
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
            if settled[u] or final[u]:
                continue
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

    choices = {}
    for v in range(n):
        if kind[v]:
            continue
        if final[v]:
            choices[v] = None
        elif values[v] < INF:
            best = None
            for e in range(start[v], start[v + 1]):
                t = dst[e]
                if _is_round_trip(arena, t, v):
                    continue
                if values[t] + wt[e] == values[v]:
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
    """Walk the plays the choices allow, carrying each play's ordered
    knowledge suffix, and key every decision met by (state, automaton
    state, suffix)."""
    kind, start, dst, sfx, xhat = (
        arena.kind, arena.start, arena.dst, arena.sfx, arena.xhat)
    decisions = {}
    seen = {(arena.v0, ())}
    stack = [(arena.v0, ())]
    while stack:
        v, suffix = stack.pop()
        if not kind[v]:
            go = choices[v]
            decisions[(arena.x[v], arena.q[v], suffix)] = (
                None if go is None else xhat[go])
            nxt = () if go is None else ((go, suffix),)
        else:
            nxt = []
            for t in dst[start[v]:start[v + 1]]:
                if sfx[t] == sfx[v]:
                    nxt.append((t, suffix))
                else:  # t observed the pattern at the committed state
                    pattern = dict(arena.suffixes[sfx[t]])[xhat[v]]
                    nxt.append((t, suffix + ((xhat[v], pattern),)))
        for item in nxt:
            if item not in seen:
                seen.add(item)
                stack.append(item)
    return decisions


# ---------------------------------------------------------------------------
# the three synthesis entry points

def solve_regret(m: Pkwts, a: Dfa):
    """Regret-minimizing strategy and its regret value."""
    arena = build_arena(m, a, quotient=True)
    br = BestResponse(m, a)

    def terminal(v):
        return -br(arena.suffixes[arena.sfx[v]])
    return _positional("regret", arena, solve_minmax(arena, terminal))


def solve_worst_case(m: Pkwts, a: Dfa):
    """Strategy minimizing the worst-case total cost, and that cost."""
    arena = build_arena(m, a, quotient=True)
    return _positional("worst", arena, solve_minmax(arena, lambda v: 0))


def _positional(objective: str, arena: Arena, result: MinMaxResult):
    """The solved game's strategy from the initial vertex, and its value."""
    log.debug("%s game: %d vertices, %d edges, %d settled, %d distinct rows",
              objective, arena.n, len(arena.dst), result.sweeps,
              len(arena.suffixes))
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
