"""The Figure 14 sweep: 5 graphs x 4 algorithms x 5 systems, cold.

One operation is one whole matrix through ``run_matrix_parallel`` with
no result cache, the path every paper figure takes.  It does no
cycle-engine work, so engine changes should leave it unchanged.  The
measured pass runs at least ``MIN_OPS`` matrices.  Its times are host
times, not scaled by ``harness.HostClock``: the matrix keeps both cores
busy, and one-core clock readings do not track its speed (scaled, ten
seeds spread 30% against 7-11% unscaled).

The matrix runs at ``scale_shift=-2`` (quarter-size stand-ins): one
matrix takes ~5 s on a 2-core host, against ~26 s at full size and
~11 s at half size, where two matrices and the traced pass do not fit
the benchmark's time budget.  The dataset stand-ins are fixed recipes,
so ``--seed`` does not change this workload's inputs.

Set-up loads every cell's graph and runs the functional reference; each
report's gold properties must equal it.  The traced pass reruns the
matrix serially, untraced and then cell by cell inside layer spans with
profilers on the ScalaGraph models, and every report must equal the
parallel run's.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import SETUP_REPEATS, TOP_LAYERS, HostClock, Ledger, Outcome
from harness import Settings
from harness import Trace, median, own_peak_rss_mb, reap_children, tail
from harness import worker_count
from repro.algorithms import make_algorithm, run_reference
from repro.core import Profiler, ScalaGraph
from repro.experiments import (
    ALGORITHM_ORDER,
    GRAPH_ORDER,
    ExperimentMatrix,
    build_system,
    load_benchmark_graph,
    run_matrix_parallel,
)
from repro.experiments.runner import SYSTEM_ORDER

SCALE_SHIFT = -2
SMOKE_SCALE_SHIFT = -6

Cell = Tuple[str, str]


def set_up(scale_shift: int) -> Dict[Cell, np.ndarray]:
    """Gold properties of every (graph, algorithm) cell."""
    return {
        (graph, algorithm): run_reference(
            make_algorithm(algorithm),
            load_benchmark_graph(graph, algorithm, scale_shift),
        ).properties
        for graph in GRAPH_ORDER
        for algorithm in ALGORITHM_ORDER
    }


def _dicts(matrix: ExperimentMatrix) -> Dict[Tuple[str, str, str], dict]:
    out = {}
    for key, report in matrix.reports.items():
        data = report.to_dict(include_iterations=True)
        data.pop("profile", None)
        out[key] = data
    return out


def _check_matrix(
    matrix: ExperimentMatrix,
    gold: Dict[Cell, np.ndarray],
    ledger: Ledger,
    label: str,
) -> None:
    """One operation per report: present, with the reference's properties."""
    for graph, algorithm in gold:
        for system in SYSTEM_ORDER:
            report = matrix.reports.get((graph, algorithm, system))
            ok = (
                report is not None
                and report.properties is not None
                and np.array_equal(report.properties, gold[(graph, algorithm)])
            )
            ledger.record(
                ok,
                f"{label} {graph}/{algorithm}/{system}: report missing or its "
                "properties differ from run_reference",
            )


def run(
    name: str, settings: Settings, ledger: Ledger, clock: HostClock
) -> Outcome:
    scale_shift = SMOKE_SCALE_SHIFT if settings.smoke else SCALE_SHIFT
    workers = worker_count()

    setup_times: List[float] = []
    gold: Dict[Cell, np.ndarray] = {}
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        gold = set_up(scale_shift)
        setup_times.append(time.perf_counter() - start)

    times: List[float] = []
    first: Optional[Dict[Tuple[str, str, str], dict]] = None
    start = time.perf_counter()
    while settings.measuring(len(times), time.perf_counter() - start):
        began = time.perf_counter()
        matrix = run_matrix_parallel(
            scale_shift=scale_shift, max_workers=workers, cache=None
        )
        times.append(time.perf_counter() - began)
        reap_children()
        _check_matrix(matrix, gold, ledger, f"matrix {len(times)}")
        reports = _dicts(matrix)
        if first is None:
            first = reports
        ledger.record(
            reports == first, f"matrix {len(times)} differs from matrix 1"
        )
    assert first is not None
    cells = len(first)

    outcome = Outcome(
        end_to_end={
            "setup_s": median(setup_times),
            "latency_p50_ms": median(times) * 1e3,
            "latency_p95_ms": tail(times) * 1e3,
            "throughput_per_s": cells * len(times) / sum(times),
            "peak_rss_mb": own_peak_rss_mb(),
        },
        layers=("graph", "reference", "analytic", "baselines", "sweep", "trace"),
        samples={"setup_s": len(setup_times), "latency_ms": len(times)},
        info={
            "scale_shift": scale_shift,
            "workers": workers,
            "cells": cells,
            "matrix_s": times,
            "setup_s": setup_times,
        },
    )
    if settings.trace:
        outcome.per_layer = _traced_pass(
            scale_shift, workers, gold, first, median(times), ledger, outcome
        )
    return outcome


def _traced_pass(
    scale_shift: int,
    workers: int,
    gold: Dict[Cell, np.ndarray],
    parallel: Dict[Tuple[str, str, str], dict],
    parallel_s: float,
    ledger: Ledger,
    outcome: Outcome,
) -> Dict[str, float]:
    """Serial untraced matrix, then the serial traced recomputation."""
    began = time.perf_counter()
    serial = run_matrix_parallel(scale_shift=scale_shift, max_workers=1, cache=None)
    serial_s = time.perf_counter() - began
    ledger.record(
        _dicts(serial) == parallel, "serial matrix differs from the parallel one"
    )

    trace = Trace()
    profiler = Profiler()
    traced = ExperimentMatrix()
    cell_times: List[float] = []
    for graph_name in GRAPH_ORDER:
        for algorithm in ALGORITHM_ORDER:
            cell_start = time.perf_counter()
            with trace.span("graph.build"):
                graph = load_benchmark_graph(graph_name, algorithm, scale_shift)
            program = make_algorithm(algorithm)
            with trace.span("reference.run"):
                reference = run_reference(program, graph)
            for label in SYSTEM_ORDER:
                system = build_system(label)
                layer = "baselines.run"
                if isinstance(system, ScalaGraph):
                    system.profiler = profiler
                    layer = "analytic.run"
                with trace.span(layer):
                    report = system.run(program, graph, reference=reference)
                traced.reports[(graph_name, algorithm, label)] = report
            cell_times.append(time.perf_counter() - cell_start)
    trace.finish()
    _check_matrix(traced, gold, ledger, "traced")
    ledger.record(
        _dicts(traced) == parallel, "traced recomputation differs from the sweep"
    )

    outcome.spans = trace.spans
    layers = trace.layer_times(TOP_LAYERS)
    layers.update(
        {
            "analytic.scatter_model_s": profiler.timer_seconds(
                "analytic.scatter_model"
            ),
            "analytic.apply_model_s": profiler.timer_seconds(
                "analytic.apply_model"
            ),
            "analytic.workload_build_s": profiler.timer_seconds(
                "analytic.workload_build"
            ),
            "sweep.cell_s_max": max(cell_times),
            "sweep.parallel_efficiency": serial_s / (workers * parallel_s),
            "trace.overhead_ratio": trace.wall_s / serial_s - 1.0,
        }
    )
    outcome.info["serial_s"] = serial_s
    return layers
