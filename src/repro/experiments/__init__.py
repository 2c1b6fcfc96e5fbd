"""Experiment harness shared by ``benchmarks/`` and ``examples/``.

Provides the system registry (build any of the paper's compared systems
by its figure label), a matrix runner that shares one functional
reference execution across all systems, and plain-text table/series
formatters that print rows in the shape of the paper's tables and
figures.
"""

from repro.experiments.breakdown import (
    bar_chart,
    bottleneck_histogram,
    describe,
    phase_shares,
)
from repro.experiments.parallel import RetryPolicy, run_matrix_parallel
from repro.experiments.runner import (
    ALGORITHM_ORDER,
    GRAPH_ORDER,
    SYSTEM_BUILDERS,
    ExperimentMatrix,
    build_system,
    cached_cell,
    execute_cell,
    geometric_mean,
    load_benchmark_graph,
    run_matrix,
)
from repro.experiments.store import (
    CODE_MODEL_VERSION,
    CacheStats,
    ResultCache,
    dataset_fingerprint,
    load_matrix_summaries,
    save_matrix,
)
from repro.experiments.tables import format_series, format_table

__all__ = [
    "ALGORITHM_ORDER",
    "GRAPH_ORDER",
    "SYSTEM_BUILDERS",
    "CODE_MODEL_VERSION",
    "CacheStats",
    "ExperimentMatrix",
    "ResultCache",
    "build_system",
    "cached_cell",
    "dataset_fingerprint",
    "execute_cell",
    "geometric_mean",
    "load_benchmark_graph",
    "run_matrix",
    "RetryPolicy",
    "run_matrix_parallel",
    "format_series",
    "format_table",
    "bar_chart",
    "bottleneck_histogram",
    "describe",
    "phase_shares",
    "load_matrix_summaries",
    "save_matrix",
]
