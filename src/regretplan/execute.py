"""Run strategies against concrete hidden environments."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompatibleEnvironment, NonTermination, StrategyIncomplete
from .formula import Dfa
from .model import (
    DEFAULT_UNKNOWN_CAP,
    INF,
    Pkwts,
    Wts,
    compatible_envs,
    is_compatible,
    shortest_satisfying_cost,
)


@dataclass(frozen=True, eq=False)
class RunRecord:
    """One run.  ``knowledge_final`` is the exploration suffix
    ``((x, pattern), ...)``: each unknown state visited, with the pattern
    it showed, in the order of first visits."""

    path: tuple
    history: tuple           # (state, observed successor tuple) per visit
    cost: int
    satisfied: bool
    knowledge_final: tuple

    def to_json(self) -> dict:
        return {
            "path": list(self.path),
            "history": [[x, list(o)] for x, o in self.history],
            "cost": self.cost,
            "satisfied": self.satisfied,
            "knowledge_final": [[x, list(o)] for x, o in self.knowledge_final],
        }


def run(strategy, m: Pkwts, a: Dfa, actual: Wts) -> RunRecord:
    """Walk the environment under a strategy, observing successor patterns
    on arrival, until the strategy stops."""
    if not is_compatible(actual, m):
        raise IncompatibleEnvironment("environment does not match the possible world")

    unexplored = set(m.unknown_states)
    # between two explorations a terminating positional run cannot revisit
    # a (state, automaton state) pair, and there are at most |unknown|
    # exploration events
    cap = 4 * m.n * a.n * (len(unexplored) + 1)
    x = m.initial
    q = a.step(a.initial, m.labels[x])
    suffix = ()
    path = [x]
    history = [(x, actual.successors[x])]
    cost = 0

    while True:
        go = strategy.decide(x, q, suffix)
        if go is None:
            break
        if go not in actual.successors[x]:
            raise StrategyIncomplete(
                f"decision {x}->{go} is not an observed successor")
        cost += m.weights[(x, go)]
        x = go
        obs = actual.successors[x]
        if x in unexplored:
            unexplored.remove(x)
            suffix += ((x, obs),)
        history.append((x, obs))
        q = a.step(q, m.labels[x])
        path.append(x)
        if len(path) > cap:
            raise NonTermination(f"run exceeded {cap} steps without stopping")

    return RunRecord(
        path=tuple(path),
        history=tuple(history),
        cost=cost,
        satisfied=q in a.accepting,
        knowledge_final=suffix,
    )


def regret_of(strategy, m: Pkwts, a: Dfa, cap: int = DEFAULT_UNKNOWN_CAP):
    """Worst case, over compatible environments, of realized cost minus
    that environment's cheapest satisfying cost."""
    worst = -INF
    for t in compatible_envs(m, cap):
        rec = run(strategy, m, a, t)
        if not rec.satisfied:
            return INF
        worst = max(worst, rec.cost - shortest_satisfying_cost(t, a))
    return worst
