"""Independent checkers for the benchmark's outputs.

Nothing here calls the planner's own world enumeration, product,
shortest-path or automaton code: worlds, optima and task satisfaction
are recomputed from the raw model tables, so a fault in one of those
layers cannot hide itself.  Every check is one operation; a ``Tally``
counts how many were attempted and how many failed.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import math


class Tally:
    """Attempted and failed check counts, with the first few failure notes,
    and the number of checks that could not be made."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.skipped = 0
        self.notes = []

    def check(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)
        return ok


# ---------------------------------------------------------------------------
# task monitors: hand-written automata for the two tasks the workloads use

class EventuallyMonitor:
    """``F target``: accepts once a visited state carries the atom."""

    initial = 0

    def __init__(self, atom: str):
        self.atom = atom

    def step(self, state, labels):
        return 1 if state == 1 or self.atom in labels else 0

    def accepting(self, state) -> bool:
        return state == 1


class FetchThenReachMonitor:
    """``(!fire U extinguisher) & F fire``.

    State is (until part, fire seen): the until part is 0 while pending,
    1 once the extinguisher is reached with no fire before it, and 2 once
    fire was reached first (a dead end).
    """

    initial = (0, False)

    def step(self, state, labels):
        until, fire = state
        if until == 0:
            if "extinguisher" in labels:
                until = 1
            elif "fire" in labels:
                until = 2
        return until, fire or "fire" in labels

    def accepting(self, state) -> bool:
        return state == (1, True)


MONITORS = {
    "F target": lambda: EventuallyMonitor("target"),
    "(!fire U extinguisher) & F fire": FetchThenReachMonitor,
}


def monitor_for(task: str):
    return MONITORS[task]()


def satisfies(monitor, labels, path) -> bool:
    state = monitor.initial
    for x in path:
        state = monitor.step(state, labels[x])
        if monitor.accepting(state):
            return True
    return False


# ---------------------------------------------------------------------------
# worlds and their optima

def worlds_of(patterns):
    """Every world as a tuple of successor tuples: the product of pattern
    choices over the unknown states, in ascending state order."""
    families = [tuple(tuple(sorted(p)) for p in fam) for fam in patterns]
    return [tuple(choice) for choice in itertools.product(*families)]


def optimum(world, weights, labels, path, monitor):
    """Cheapest cost of satisfying the task in one world after walking
    ``path`` (at least the initial state), by Dijkstra over state x
    monitor state; ``math.inf`` when the task can no longer be satisfied."""
    state = monitor.initial
    for x in path:
        state = monitor.step(state, labels[x])
    start = (path[-1], state)
    dist = {start: 0}
    heap = [(0, 0, start)]
    tie = itertools.count(1)
    while heap:
        d, _, (x, s) = heapq.heappop(heap)
        if d > dist[(x, s)]:
            continue
        if monitor.accepting(s):
            return d
        for y in world[x]:
            nxt = (y, monitor.step(s, labels[y]))
            nd = d + weights[(x, y)]
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, next(tie), nxt))
    return math.inf


def run_ok(path, cost, world, weights, labels, initial, monitor):
    """A finished run starts at the initial state, follows the world's
    edges, costs the sum of its edge weights and satisfies the task.

    A stranded run (``cost`` None) must follow the world's edges up to a
    state from which the task can no longer be satisfied in that world:
    only then was there no path left to take.
    """
    if not path or path[0] != initial:
        return False
    total = 0
    for x, y in zip(path, path[1:]):
        if y not in world[x]:
            return False
        total += weights[(x, y)]
    if cost is None:
        return optimum(world, weights, labels, path, monitor) == math.inf
    return total == cost and satisfies(monitor, labels, path)


# ---------------------------------------------------------------------------
# composite checks used by the workloads

def check_solve(tally, name, regret_value, worst_value, outcomes, optima):
    """Checks on one instance solved both ways.

    ``outcomes[i]`` is ``(regret_cost, worst_cost)`` in world ``i`` and
    ``optima[i]`` that world's optimum.
    """
    regrets = [rc - o for (rc, _), o in zip(outcomes, optima)]
    worst_costs = [wc for _, wc in outcomes]
    worst_regret = max(wc - o for wc, o in zip(worst_costs, optima))
    tally.check(regret_value == max(regrets),
                f"{name}: regret value {regret_value} != max realized regret "
                f"{max(regrets)}")
    tally.check(worst_value == max(worst_costs),
                f"{name}: worst-case value {worst_value} != max realized cost "
                f"{max(worst_costs)}")
    tally.check(0 <= regret_value <= worst_regret,
                f"{name}: regret {regret_value} outside [0, {worst_regret}]")


def check_trial(tally, name, trial, opt):
    """Checks on one Monte-Carlo trial.

    ``trial`` holds ``regret_value``, ``worst_value``, ``oracle_value``
    (None when the oracle gave up) and ``costs``: strategy name ->
    realized cost, or None if stranded (``run_ok`` checks that a strand
    was forced).
    """
    costs = trial["costs"]
    if trial["oracle_value"] is None:
        tally.skipped += 1
    else:
        tally.check(trial["regret_value"] == trial["oracle_value"],
                    f"{name}: regret {trial['regret_value']} != oracle "
                    f"{trial['oracle_value']}")
    tally.check(costs["regret"] is not None
                and costs["regret"] <= opt + trial["regret_value"],
                f"{name}: regret cost {costs['regret']} > optimum {opt} + "
                f"regret {trial['regret_value']}")
    tally.check(costs["worst"] is not None
                and costs["worst"] <= trial["worst_value"],
                f"{name}: worst cost {costs['worst']} > worst value "
                f"{trial['worst_value']}")
    for strategy, cost in sorted(costs.items()):
        tally.check(cost is None or cost >= opt,
                    f"{name}: {strategy} cost {cost} below optimum {opt}")


def check_csv(tally, name, csv_text, costs_by_key):
    """Each row's trial count, mean cost and skips equal values recomputed
    from the captured costs; ``costs_by_key[(states, p, strategy)]`` lists
    them, None for a stranded run."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    tally.check(len(rows) == len(costs_by_key),
                f"{name}: {len(rows)} CSV rows for {len(costs_by_key)} keys")
    for row in rows:
        key = (int(row["states"]), f"{float(row['p']):.3f}", row["strategy"])
        runs = costs_by_key.get(key, [])
        data = [c for c in runs if c is not None]
        mean = math.fsum(data) / len(data) if data else math.nan
        skips = len(runs) - len(data)
        tally.check(int(row["trial_count"]) == len(data)
                    and row["mean_cost"] == f"{mean:.6f}"
                    and int(row["skips"]) == skips,
                    f"{name}: row {key} reads {row['trial_count']} trials, "
                    f"mean {row['mean_cost']}, {row['skips']} skips; "
                    f"recomputed {len(data)}, {mean:.6f}, {skips}")
