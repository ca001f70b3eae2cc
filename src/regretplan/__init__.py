"""Regret-minimizing exploration planning for co-safe temporal-logic tasks
in partially-known environments."""

from .arena import Arena, build_arena, build_ordered_arena, size_bound
from .bench import BenchConfig, GenParams, generate, run_benchmark, sample_env
from .errors import RegretPlanError
from .execute import RunRecord, regret_of, run
from .formula import Dfa, parse, progress, to_dfa
from .grid import grid_compile
from .model import (
    Pkwts,
    Product,
    Wts,
    compatible_envs,
    dijkstra,
    is_compatible,
    model_from_json,
    model_to_json,
    product,
)
from .oracle import brute_force_optimal_regret, check_regret_bound
from .solver import (
    OnlinePolicy,
    PositionalStrategy,
    QuotientGame,
    best_case_policy,
    solve_regret,
    solve_worst_case,
)

__version__ = "0.1.0"

__all__ = [
    "Arena",
    "BenchConfig",
    "Dfa",
    "GenParams",
    "OnlinePolicy",
    "Pkwts",
    "PositionalStrategy",
    "Product",
    "QuotientGame",
    "RegretPlanError",
    "RunRecord",
    "Wts",
    "best_case_policy",
    "brute_force_optimal_regret",
    "build_arena",
    "build_ordered_arena",
    "check_regret_bound",
    "compatible_envs",
    "dijkstra",
    "generate",
    "grid_compile",
    "is_compatible",
    "model_from_json",
    "model_to_json",
    "parse",
    "product",
    "progress",
    "regret_of",
    "run",
    "run_benchmark",
    "sample_env",
    "size_bound",
    "solve_regret",
    "solve_worst_case",
    "to_dfa",
]
