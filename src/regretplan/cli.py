"""Command-line interface.

Subcommands: compile, solve, exec, regret, oracle, bench, arena, grid.
Exit codes: 0 success, 1 domain error (e.g. unrealizable task,
incompatible environment), 2 usage error.  Domain errors print a JSON
payload on stderr.  Set REGRETPLAN_LOG=debug for solver tracing.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from fractions import Fraction

from . import bench as bn
from . import solver as sv
from .arena import arena_to_json, build_arena
from .errors import RegretPlanError
from .execute import regret_of, run
from .formula import atoms_of, dfa_to_json, parse, to_dfa
from .grid import grid_compile
from .model import INF, load_env, load_model, model_to_json
from .oracle import brute_force_optimal_regret


def _emit(data, out_path):
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _task_dfa(task: str, extra_atoms=()):
    f = parse(task)
    return to_dfa(f, set(atoms_of(f)) | set(extra_atoms))


def _parse_p_grid(spec: str):
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("probability grid must be start:stop:step")
        start, stop, step = (Fraction(p) for p in parts)
        if step <= 0:
            raise ValueError("probability step must be positive")
        values = []
        v = start
        while v <= stop:
            values.append(float(v))
            v += step
        return tuple(values)
    return tuple(float(p) for p in spec.split(","))


def _json_value(value):
    return None if value == INF else value


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_compile(args):
    f = parse(args.formula)
    atoms = set(args.atoms.split(",")) if args.atoms else set(atoms_of(f))
    _emit(dfa_to_json(to_dfa(f, atoms)), args.output)
    return 0


def _cmd_grid(args):
    with open(args.map, "r", encoding="utf-8") as fh:
        text = fh.read()
    _emit(model_to_json(grid_compile(text, cost=args.cost)), args.output)
    return 0


def _cmd_solve(args):
    m = load_model(args.model)
    dfa = _task_dfa(args.task, m.atoms)
    if args.objective == "best":
        data = {"objective": "best", "value": None, "decisions": None}
        shown = "online"
    else:
        # an unwinnable task raises, so the value is always finite
        solve = sv.solve_regret if args.objective == "regret" else sv.solve_worst_case
        strategy, shown = solve(m, dfa)
        data = strategy.to_json()
    data["task"] = args.task
    _emit(data, args.output)
    print(shown)
    return 0


def _load_strategy(path, m, dfa):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data["objective"] == "best":
        return sv.best_case_policy(m, dfa), data
    return sv.PositionalStrategy.from_json(data), data


def _cmd_exec(args):
    m = load_model(args.model)
    env = load_env(args.env)
    with open(args.strategy, "r", encoding="utf-8") as fh:
        task = json.load(fh)["task"]
    dfa = _task_dfa(task, m.atoms)
    strategy, _ = _load_strategy(args.strategy, m, dfa)
    _emit(run(strategy, m, dfa, env).to_json(), args.output)
    return 0


def _cmd_regret(args):
    m = load_model(args.model)
    dfa = _task_dfa(args.task, m.atoms)
    strategy, _ = _load_strategy(args.strategy, m, dfa)
    value = regret_of(strategy, m, dfa)
    print("inf" if value == INF else value)
    return 0


def _cmd_oracle(args):
    m = load_model(args.model)
    dfa = _task_dfa(args.task, m.atoms)
    value, strategy, checked = brute_force_optimal_regret(m, dfa)
    _emit(
        {
            "value": _json_value(value),
            "strategy": None if strategy is None else strategy.to_json(),
            "checked": checked,
        },
        args.output,
    )
    return 0


def _cmd_arena(args):
    m = load_model(args.model)
    dfa = _task_dfa(args.task, m.atoms)
    _emit(arena_to_json(build_arena(m, dfa)), args.output)
    return 0


def _cmd_bench(args):
    config = bn.BenchConfig(
        states=tuple(int(s) for s in args.states.split(",")),
        p_values=_parse_p_grid(args.p),
        trials=args.trials,
        seed=args.seed,
        params=bn.GenParams(
            n_states=15,
            n_possible=args.possible,
            min_cost=args.min_cost,
            max_cost=args.max_cost,
        ),
    )
    csv_text = bn.rows_to_csv(bn.run_benchmark(config))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="regretplan",
        description="Plan exploration strategies for temporal-logic tasks "
                    "in partially-known environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="translate a task into its acceptor")
    p.add_argument("formula")
    p.add_argument("--atoms", help="comma-separated atom set (default: formula atoms)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("grid", help="compile an ASCII map into a model")
    p.add_argument("map")
    p.add_argument("--cost", type=int, default=1, help="movement cost per step")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("solve", help="synthesize a strategy")
    p.add_argument("model")
    p.add_argument("--task", required=True)
    p.add_argument("--objective", choices=("regret", "worst", "best"),
                   default="regret")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exec", help="run a strategy in a concrete environment")
    p.add_argument("strategy")
    p.add_argument("model")
    p.add_argument("env")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_exec)

    p = sub.add_parser("regret", help="exact regret of a strategy")
    p.add_argument("strategy")
    p.add_argument("model")
    p.add_argument("--task", required=True)
    p.set_defaults(func=_cmd_regret)

    p = sub.add_parser("oracle", help="brute-force optimal regret (tiny models)")
    p.add_argument("model")
    p.add_argument("--task", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("arena", help="dump the knowledge game arena")
    p.add_argument("model")
    p.add_argument("--task", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_arena)

    p = sub.add_parser("bench", help="compare strategies on random models")
    p.add_argument("--states", default="15")
    p.add_argument("--p", default="0:1:0.1")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--possible", type=int, default=2,
                   help="unknown states per model")
    p.add_argument("--min-cost", type=int, default=1)
    p.add_argument("--max-cost", type=int, default=100)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("REGRETPLAN_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except RegretPlanError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
