"""Random possible-world generation and the three-strategy comparison
harness.

Randomness comes from ``random.Random`` (Mersenne Twister), seeded per
trial by an explicit integer mix, so a fixed seed reproduces the same
models, environments, and CSV bytes on any platform.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from random import Random

from .errors import GenerationFailed, StuckNoPath
from .execute import run
from .formula import parse, to_dfa
from .model import Pkwts, Wts
from .solver import (
    QuotientGame,
    best_case_policy,
    solve_regret,
    solve_worst_case,
)

TARGET_TASK = "F target"

_TARGET_DFA = to_dfa(parse(TARGET_TASK), {"target"})

# every generated model shares these two label sets
_TARGET, _PLAIN = frozenset({"target"}), frozenset()

MAX_GENERATION_ATTEMPTS = 10_000


@dataclass(frozen=True)
class GenParams:
    """Knobs for random model generation.

    ``n_possible`` unknown states each carry one optional extra
    transition: pattern 0 includes it, pattern 1 does not.
    """

    n_states: int
    n_possible: int = 2
    min_succ: int = 1
    max_succ: int = 2
    min_cost: int = 1
    max_cost: int = 100
    n_targets: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_states < 2:
            raise ValueError("need at least two states")
        if not (1 <= self.min_succ <= self.max_succ):
            raise ValueError("successor bounds must satisfy 1 <= min <= max")
        if not (1 <= self.min_cost <= self.max_cost):
            raise ValueError("cost bounds must satisfy 1 <= min <= max")
        if not (0 <= self.n_possible <= self.n_states - 1):
            raise ValueError(f"too many unknown states: {self.n_possible}"
                             f" for {self.n_states} states")
        if not (1 <= self.n_targets <= self.n_states - 1):
            raise ValueError("target count out of range")


def generate(params: GenParams,
             max_attempts: int = MAX_GENERATION_ATTEMPTS) -> Pkwts:
    """Random model with a connected skeleton, redrawn while some unknown
    state has no spare successor to make optional.

    The task is achievable in every compatible environment, so all three
    strategies are comparable.  Each draw roots a spanning tree at state
    0, and every pattern of a state keeps that state's tree edges.  So
    the tree path from state 0 to a target exists in every world and is
    known before the first move, and the worst-case game is always won;
    no solve is needed to check it."""
    rng = Random(params.seed)
    for _ in range(max_attempts):
        m = _candidate(rng, params)
        if m is not None:
            return m
    raise GenerationFailed(f"no model drawn in {max_attempts} attempts")


def _candidate(rng: Random, p: GenParams):
    n = p.n_states
    degree = [rng.randint(p.min_succ, p.max_succ) for _ in range(n)]
    succ = [set() for _ in range(n)]

    # spanning tree rooted at 0 keeps the skeleton connected; parents are
    # drawn among earlier states that still have out-capacity
    for i in range(1, n):
        candidates = [j for j in range(i) if len(succ[j]) < p.max_succ]
        succ[rng.choice(candidates)].add(i)

    for x in range(n):
        pool = [y for y in range(n) if y != x and y not in succ[x]]
        while len(succ[x]) < degree[x] and pool:
            succ[x].add(pool.pop(rng.randrange(len(pool))))

    patterns = [[tuple(sorted(succ[x]))] for x in range(n)]
    for u in sorted(rng.sample(range(1, n), p.n_possible)):
        pool = [y for y in range(n) if y != u and y not in succ[u]]
        if not pool:
            return None
        extra = rng.choice(pool)
        patterns[u] = [tuple(sorted(succ[u] | {extra})), tuple(sorted(succ[u]))]

    weights = {}
    for x in range(n):
        for y in sorted(set().union(*map(set, patterns[x]))):
            weights[(x, y)] = rng.randint(p.min_cost, p.max_cost)

    targets = set(rng.sample(range(1, n), p.n_targets))
    labels = tuple(_TARGET if x in targets else _PLAIN for x in range(n))
    return Pkwts(
        n=n,
        initial=0,
        patterns=tuple(tuple(fam) for fam in patterns),
        weights=weights,
        labels=labels,
    )


def sample_env(m: Pkwts, p_obstacle: float, seed: int) -> Wts:
    """Draw a concrete environment: each optional transition is absent
    (obstacle present) independently with probability ``p_obstacle``.

    Grid-imported models flip one coin per possible wall and apply it to
    both incident cells; otherwise each unknown state gets its own coin,
    choosing the smallest pattern when the obstacle is present and the
    largest when it is absent.
    """
    if not 0 <= p_obstacle <= 1:
        raise ValueError("probability out of range")
    rng = Random(seed)
    choice = {}
    if m.coins:
        blocked = set()
        for pair in m.coins:
            if rng.random() < p_obstacle:
                blocked.add(tuple(pair))
        for x in m.unknown_states:
            minimal = set.intersection(*(set(pat) for pat in m.patterns[x]))
            realized = set(minimal)
            for a, b in m.coins:
                if (a, b) in blocked:
                    continue
                if x == a:
                    realized.add(b)
                elif x == b:
                    realized.add(a)
            realized = tuple(sorted(realized))
            choice[x] = m.patterns[x].index(realized)
    else:
        for x in m.unknown_states:
            ranked = sorted(
                range(len(m.patterns[x])),
                key=lambda i: (len(m.patterns[x][i]), m.patterns[x][i]),
            )
            choice[x] = ranked[0] if rng.random() < p_obstacle else ranked[-1]

    successors = tuple(
        m.patterns[x][choice.get(x, 0)] for x in range(m.n)
    )
    return Wts(
        n=m.n,
        initial=m.initial,
        successors=successors,
        weights=m.weights,
        labels=m.labels,
    )


# ---------------------------------------------------------------------------
# comparison harness

STRATEGIES = ("regret", "worst", "best")


@dataclass(frozen=True)
class BenchConfig:
    states: tuple
    p_values: tuple
    trials: int
    seed: int = 0
    params: GenParams = GenParams(n_states=15)  # template; n_states/seed overridden

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if not self.states or not self.p_values:
            raise ValueError("need at least one state count and probability")
        bad = [p for p in self.p_values if not 0 <= p <= 1]
        if bad:
            raise ValueError(f"probabilities must lie in [0, 1], got {bad}")
        for n in self.states:  # every state count meets GenParams' checks
            replace(self.params, n_states=n)


def _mix(*parts) -> int:
    h = 0
    for part in parts:
        h = (h * 1_000_003 + int(part) + 0x9E3779B9) % (1 << 63)
    return h


def run_benchmark(config: BenchConfig):
    """Mean realized cost per (state count, obstacle probability,
    strategy) over fresh (model, environment) pairs.  Each trial solves
    both objectives on one quotient game, built by the regret solve."""
    rows = []
    for si, n_states in enumerate(config.states):
        for pi, p in enumerate(config.p_values):
            costs = {name: [] for name in STRATEGIES}
            skips = {name: 0 for name in STRATEGIES}
            for trial in range(config.trials):
                model_seed = _mix(config.seed, si, pi, trial, 0)
                env_seed = _mix(config.seed, si, pi, trial, 1)
                params = replace(config.params, n_states=n_states,
                                 seed=model_seed)
                try:
                    m = generate(params)
                except GenerationFailed:
                    for name in STRATEGIES:
                        skips[name] += 1
                    continue
                env = sample_env(m, p, env_seed)
                game = QuotientGame(m, _TARGET_DFA)
                regret_strategy, _ = solve_regret(m, _TARGET_DFA, game)
                worst_strategy, _ = solve_worst_case(m, _TARGET_DFA, game)
                runners = {
                    "regret": regret_strategy,
                    "worst": worst_strategy,
                    "best": best_case_policy(m, _TARGET_DFA),
                }
                for name, strategy in runners.items():
                    try:
                        rec = run(strategy, m, _TARGET_DFA, env)
                        costs[name].append(rec.cost)
                    except StuckNoPath:
                        skips[name] += 1
            for name in STRATEGIES:
                data = costs[name]
                mean, err = _mean_stderr(data)
                rows.append({
                    "states": n_states,
                    "p": p,
                    "trial_count": len(data),
                    "strategy": name,
                    "mean_cost": mean,
                    "stderr": err,
                    "skips": skips[name],
                })
    return rows


def _mean_stderr(data):
    if not data:
        return float("nan"), float("nan")
    mean = math.fsum(data) / len(data)
    if len(data) == 1:
        return mean, 0.0
    var = math.fsum((c - mean) ** 2 for c in data) / (len(data) - 1)
    return mean, math.sqrt(var / len(data))


CSV_COLUMNS = ("states", "p", "trial_count", "strategy", "mean_cost",
               "stderr", "skips")


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row["states"],
            f"{row['p']:.3f}",
            row["trial_count"],
            row["strategy"],
            f"{row['mean_cost']:.6f}",
            f"{row['stderr']:.6f}",
            row["skips"],
        ])
    return buf.getvalue()
