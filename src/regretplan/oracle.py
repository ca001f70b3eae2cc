"""Ground truth for tiny instances.

Enumerates positional strategies on the reachable arena, pruning
decisions at vertices no environment can reach under the choices already
fixed, and scores each winning strategy by exact regret.  Only meant to
certify the solver at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arena import Arena, build_ordered_arena
from .errors import ArenaTooLarge, SearchSpaceTooLarge
from .execute import run
from .formula import Dfa
from .model import (
    INF,
    Pkwts,
    compatible_envs,
    shortest_satisfying_cost,
)
from .solver import BestResponse, PositionalStrategy

ORACLE_VERTEX_CAP = 2000
ORACLE_UNKNOWN_CAP = 3
ORACLE_CHOICE_CAP = 10 ** 7


def brute_force_optimal_regret(
    m: Pkwts,
    a: Dfa,
    vertex_cap: int = ORACLE_VERTEX_CAP,
    unknown_cap: int = ORACLE_UNKNOWN_CAP,
    choice_cap: int = ORACLE_CHOICE_CAP,
):
    """Minimum regret over all positional strategies, with the witness.

    Returns (value, strategy, evaluated_count); value is INF and the
    strategy None when no strategy wins in every environment.
    """
    if len(m.unknown_states) > unknown_cap:
        raise SearchSpaceTooLarge(
            f"{len(m.unknown_states)} unknown states exceed oracle cap {unknown_cap}")
    try:
        arena = build_ordered_arena(m, a, cap=vertex_cap)
    except ArenaTooLarge as exc:
        raise SearchSpaceTooLarge(str(exc)) from exc

    opts, env_move = [], []
    for t in compatible_envs(m):
        opts.append(shortest_satisfying_cost(t, a))
        if opts[-1] == INF:
            return INF, None, 0
        env_move.append(_env_move_table(arena, t))

    accepting = set(arena.accepting)
    first, deg, dst = arena.first, arena.deg, arena.dst
    decisions: dict = {}
    costs: list = []
    best = [INF, None]
    evaluated = [0]
    work = [0]

    def score():
        evaluated[0] += 1
        value = max(c - o for c, o in zip(costs, opts))
        if value < best[0]:
            best[0] = value
            best[1] = dict(decisions)

    def advance(env_idx, v, cost, visited, partial):
        work[0] += 1
        if work[0] > choice_cap:
            raise SearchSpaceTooLarge(
                f"pruned strategy enumeration exceeded {choice_cap} steps")
        if partial >= best[0] and best[1] is not None:
            return
        if v in visited:
            return  # positional play revisiting a vertex loops forever
        if not arena.is_agent(v):
            nv, w = env_move[env_idx][v]
            advance(env_idx, nv, cost + w, visited | {v}, partial)
            return
        if v in accepting:
            costs.append(cost)
            gap = cost - opts[env_idx]
            if env_idx + 1 == len(opts):
                score()
            else:
                advance(env_idx + 1, arena.v0, 0, frozenset(), max(partial, gap))
            costs.pop()
            return
        if v in decisions:
            advance(env_idx, decisions[v], cost, visited | {v}, partial)
            return
        for t in dst[first[v]:first[v] + deg[v]]:
            decisions[v] = t
            advance(env_idx, t, cost, visited | {v}, partial)
            del decisions[v]

    try:
        advance(0, arena.v0, 0, frozenset(), -INF)
    finally:
        # advance refers to itself; breaking that cycle frees the arena and
        # the tables on return instead of at the next cyclic collection
        del advance

    if best[1] is None:
        return INF, None, evaluated[0]
    strategy = PositionalStrategy(
        objective="regret",
        value=best[0],
        decisions=_as_decision_map(arena, best[1], accepting),
    )
    return best[0], strategy, evaluated[0]


def _env_move_table(arena: Arena, env):
    """The unique move at every env vertex of the ordered arena in one
    environment.  A branching vertex's successor is found by the last
    entry of its suffix, the newest observation in exploration order; a
    quotient suffix is sorted by state instead."""
    table = {}
    for v in range(arena.n):
        if arena.is_agent(v):
            continue
        succs = arena.fwd[v]
        if len(succs) == 1:
            table[v] = succs[0]
            continue
        xhat = arena.xhat[v]
        wanted = env.successors[xhat]
        for t, w in succs:
            sfx = arena.suffixes[arena.sfx[t]]
            if sfx and sfx[-1] == (xhat, wanted):
                table[v] = (t, w)
                break
    return table


def _as_decision_map(arena: Arena, vertex_choices: dict, accepting) -> dict:
    decisions = {}
    for v, t in vertex_choices.items():
        decisions[arena.vertex(v)[1:]] = arena.xhat[t]
    for v in accepting:
        decisions[arena.vertex(v)[1:]] = None
    return decisions


# ---------------------------------------------------------------------------
# machine-checkable form of the bound linking regret and best responses

@dataclass(frozen=True)
class RegretBoundReport:
    entries: tuple          # one row per environment
    bound_holds: bool       # every per-env bound dominates the per-env regret
    equality_attained: bool
    max_regret: object
    max_bound: object
    violations: tuple

    @property
    def consistent(self) -> bool:
        return self.bound_holds and self.equality_attained \
            and self.max_regret == self.max_bound


def check_regret_bound(strategy, m: Pkwts, a: Dfa) -> RegretBoundReport:
    """For each environment, compare realized cost minus that
    environment's optimum against realized cost minus the best response
    of the terminal knowledge; the two maxima must agree and the bound
    must be tight somewhere."""
    br_fn = BestResponse(m, a)
    entries = []
    violations = []
    for idx, t in enumerate(compatible_envs(m)):
        rec = run(strategy, m, a, t)
        if not rec.satisfied:
            violations.append(f"environment {idx}: task not satisfied")
            continue
        opt = shortest_satisfying_cost(t, a)
        br = br_fn(rec.knowledge_final)
        per_env_regret = rec.cost - opt
        bound = rec.cost - br
        entries.append({
            "env": idx,
            "cost": rec.cost,
            "optimum": opt,
            "best_response": br,
            "regret": per_env_regret,
            "bound": bound,
            "slack": bound - per_env_regret,
        })
        if bound - per_env_regret < 0:
            violations.append(
                f"environment {idx}: bound {bound} below regret {per_env_regret}")

    max_regret = max((e["regret"] for e in entries), default=INF)
    max_bound = max((e["bound"] for e in entries), default=INF)
    equality = any(e["slack"] == 0 for e in entries)
    if not equality:
        violations.append("bound is never tight")
    if max_regret != max_bound:
        violations.append(
            f"regret {max_regret} differs from bound maximum {max_bound}")
    return RegretBoundReport(
        entries=tuple(entries),
        bound_holds=all(e["slack"] >= 0 for e in entries),
        equality_attained=equality,
        max_regret=max_regret,
        max_bound=max_bound,
        violations=tuple(violations),
    )
