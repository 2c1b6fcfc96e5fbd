"""The cycle-engine workloads: paper-scale PageRank and faulted BFS.

Both run the vectorized cycle engines (``repro.core.fastsim`` over
``repro.noc.fastmesh``) through :meth:`CycleAccurateScalaGraph.run`.
One operation is one whole simulation; its host time, scaled by the
host clock readings taken before and after it (``harness.HostClock``),
is the latency, and simulated edge updates per scaled second are the
throughput.  The measured pass runs at least ``MIN_OPS`` simulations,
even when one takes longer than the measuring time (PageRank at 32x32
takes ~11 s).

Set-up (repeated, median reported as ``setup_s``) builds the R-MAT
graphs, runs the functional reference and checks the engine twins: the
reference and vectorized engines must agree stat for stat on an 8x8
slice of the same workload.  After the measured pass the analytic model
runs once, for ``cycle.model_error_x``, which with the simulated counts
goes into the result's exact metrics.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, List, Optional

import numpy as np

from harness import SETUP_REPEATS, TOP_LAYERS, HostClock, Ledger, Outcome
from harness import Settings
from harness import Trace, median, own_peak_rss_mb, tail
from repro.algorithms import BFS, PageRank, run_reference
from repro.algorithms.base import VertexProgram
from repro.algorithms.reference import ReferenceResult
from repro.core import CycleAccurateScalaGraph, Profiler, ScalaGraph
from repro.core import ScalaGraphConfig
from repro.core.cycle_sim import CycleResult, CycleStats
from repro.core.stats import SimulationReport
from repro.faults import FaultConfig, FaultSchedule
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.noc.topology import MeshTopology


def _pagerank(graph: CSRGraph) -> VertexProgram:
    return PageRank(max_iters=2)


def _bfs_from_hub(graph: CSRGraph) -> VertexProgram:
    # Rooting BFS at the highest out-degree vertex keeps every seed's
    # frontier non-trivial (vertex 0 is a sink in some R-MAT draws).
    return BFS(root=int(np.argmax(graph.out_degrees)))


@dataclass(frozen=True)
class CycleSpec:
    """One cycle workload's inputs and hardware.

    ``faults`` holds :class:`FaultConfig` counts; the config's seed is
    the run's seed.  The twin-check slice uses the same program, fault
    counts and aggregation registers on ``slice_scale``/``slice_mesh``.
    ``exact`` selects exact property equality against the reference;
    otherwise ``rtol=1e-9`` (floating-point PageRank sums).
    """

    scale: int
    mesh: int
    registers: int
    program: Callable[[CSRGraph], VertexProgram]
    exact: bool
    slice_scale: int
    slice_mesh: int
    faults: Optional[Dict[str, int]] = None
    edge_factor: int = 16


_FAULTS = {"link_outages": 4, "fifo_stalls": 4, "pe_stalls": 4}

SPECS: Dict[str, CycleSpec] = {
    # The paper-scale point of bench_validation_cycle_sim.py.
    "cycle-pagerank-32x32": CycleSpec(
        scale=16, mesh=32, registers=64, program=_pagerank, exact=False,
        slice_scale=11, slice_mesh=8,
    ),
    "cycle-bfs-faults-16x16": CycleSpec(
        scale=14, mesh=16, registers=16, program=_bfs_from_hub, exact=True,
        slice_scale=11, slice_mesh=8, faults=_FAULTS,
    ),
}

SMOKE_SPECS: Dict[str, CycleSpec] = {
    "cycle-pagerank-32x32": CycleSpec(
        scale=10, mesh=8, registers=64, program=_pagerank, exact=False,
        slice_scale=8, slice_mesh=4,
    ),
    "cycle-bfs-faults-16x16": CycleSpec(
        scale=10, mesh=8, registers=16, program=_bfs_from_hub, exact=True,
        slice_scale=8, slice_mesh=4, faults=_FAULTS,
    ),
}


def _config(mesh: int, registers: int, engine: str) -> ScalaGraphConfig:
    return ScalaGraphConfig(
        num_tiles=1,
        pe_rows=mesh,
        pe_cols=mesh,
        aggregation_registers=registers,
        mapping="rom",
        cycle_engine=engine,
        noc_engine=engine,
    )


def _schedule(spec: CycleSpec, mesh: int, seed: int) -> Optional[FaultSchedule]:
    if spec.faults is None:
        return None
    return FaultSchedule(
        MeshTopology(rows=mesh, cols=mesh), FaultConfig(seed=seed, **spec.faults)
    )


def _simulate(
    config: ScalaGraphConfig,
    program: VertexProgram,
    graph: CSRGraph,
    faults: Optional[FaultSchedule],
    profiler: Optional[Profiler] = None,
) -> CycleResult:
    sim = CycleAccurateScalaGraph(
        config, profiler=profiler, sanitize=False, faults=faults
    )
    return sim.run(program, graph)


def _matches(spec: CycleSpec, got: np.ndarray, want: np.ndarray) -> bool:
    if spec.exact:
        return bool(np.array_equal(got, want))
    return bool(np.allclose(got, want, rtol=1e-9))


def _span(trace: Optional[Trace], name: str) -> ContextManager[None]:
    return trace.span(name) if trace is not None else nullcontext()


@dataclass
class Prepared:
    """What set-up hands to the measured pass."""

    graph: CSRGraph
    program: VertexProgram
    reference: ReferenceResult
    config: ScalaGraphConfig
    faults: Optional[FaultSchedule]
    twin_stats: CycleStats


def set_up(
    spec: CycleSpec, seed: int, problems: List[str], trace: Optional[Trace] = None
) -> Prepared:
    """Build the graphs, run the reference, check the engine twins.

    Twin-check failures are appended to ``problems``.
    """
    with _span(trace, "graph.build"):
        graph = rmat_graph(spec.scale, edge_factor=spec.edge_factor, seed=seed)
        slice_graph = rmat_graph(
            spec.slice_scale, edge_factor=spec.edge_factor, seed=seed
        )
    program = spec.program(graph)
    slice_program = spec.program(slice_graph)
    with _span(trace, "reference.run"):
        reference = run_reference(program, graph)
        slice_reference = run_reference(slice_program, slice_graph)
    with _span(trace, "cycle.twin_check"):
        slice_faults = _schedule(spec, spec.slice_mesh, seed)
        twins = [
            _simulate(
                _config(spec.slice_mesh, spec.registers, engine),
                slice_program,
                slice_graph,
                slice_faults,
            )
            for engine in ("reference", "vectorized")
        ]
    if twins[0].stats != twins[1].stats:
        problems.append("reference and vectorized engines disagree on the slice")
    if not all(
        _matches(spec, t.properties, slice_reference.properties) for t in twins
    ):
        problems.append("slice properties differ from run_reference")
    return Prepared(
        graph=graph,
        program=program,
        reference=reference,
        config=_config(spec.mesh, spec.registers, "vectorized"),
        faults=_schedule(spec, spec.mesh, seed),
        twin_stats=twins[0].stats,
    )


def analytic_report(
    prep: Prepared, profiler: Optional[Profiler] = None
) -> SimulationReport:
    return ScalaGraph(prep.config, profiler=profiler, faults=prep.faults).run(
        prep.program, prep.graph, reference=prep.reference
    )


def model_error_x(
    config: ScalaGraphConfig, stats: CycleStats, report: SimulationReport
) -> float:
    """max(cycle/analytic, analytic/cycle) on scatter cycles, with the
    analytic per-phase overhead removed, as in the paper-scale point of
    ``bench_validation_cycle_sim.py``."""
    overhead = config.timing.phase_overhead_cycles
    measured = sum(stats.scatter_cycles)
    modelled = sum(
        max(it.scatter_cycles - overhead, 1.0) for it in report.iterations
    )
    ratio = measured / modelled
    return max(ratio, 1.0 / ratio)


def exact_metrics(stats: CycleStats, error: float) -> Dict[str, float]:
    """The per-layer metrics one simulation fixes: counts and ratios of
    simulated events, and the analytic model's error against them."""
    return {
        "cycle.sim_cycles": stats.total_cycles,
        "cycle.scatter_cycles": sum(stats.scatter_cycles),
        "cycle.iterations": stats.iterations,
        "cycle.updates_processed": stats.updates_processed,
        "cycle.spd_reduces": stats.spd_reduces,
        "cycle.noc_hops": stats.noc_hops,
        "cycle.degraded_cycles": stats.degraded_cycles,
        "cycle.rerouted_packets": stats.rerouted_packets,
        "cycle.coalesce_ratio": (
            stats.updates_coalesced / max(stats.updates_processed, 1)
        ),
        "cycle.model_error_x": error,
    }


def _check_run(
    spec: CycleSpec, prep: Prepared, result: CycleResult, first: CycleStats
) -> List[str]:
    problems = []
    if not _matches(spec, result.properties, prep.reference.properties):
        problems.append("properties differ from run_reference")
    if result.stats != first:
        problems.append("simulated stats differ between repetitions")
    return problems


def run(
    name: str, settings: Settings, ledger: Ledger, clock: HostClock
) -> Outcome:
    spec = (SMOKE_SPECS if settings.smoke else SPECS)[name]

    setup_times: List[float] = []  # host seconds
    setup_scaled: List[float] = []  # HostClock.scale of each
    prep: Optional[Prepared] = None
    first_twin: Optional[CycleStats] = None
    for index in range(SETUP_REPEATS):
        prep = None  # let the previous graphs go before building again
        problems: List[str] = []
        start = time.perf_counter()
        prep = set_up(spec, settings.seed, problems)
        setup_times.append(time.perf_counter() - start)
        if first_twin is None:
            first_twin = prep.twin_stats
        elif prep.twin_stats != first_twin:
            problems.append("twin-check stats differ between set-ups")
        ledger.record(not problems, f"set-up {index}: " + "; ".join(problems))
        clock.read()
        setup_scaled.append(clock.scale(setup_times[-1]))
    assert prep is not None

    times: List[float] = []
    scaled: List[float] = []
    first: Optional[CycleStats] = None
    start = time.perf_counter()
    while settings.measuring(len(times), time.perf_counter() - start):
        began = time.perf_counter()
        result = _simulate(prep.config, prep.program, prep.graph, prep.faults)
        times.append(time.perf_counter() - began)
        if first is None:
            first = result.stats
        problems = _check_run(spec, prep, result, first)
        ledger.record(not problems, f"run {len(times)}: " + "; ".join(problems))
        clock.read()
        scaled.append(clock.scale(times[-1]))
    assert first is not None
    peak_rss = own_peak_rss_mb()

    error = model_error_x(prep.config, first, analytic_report(prep))
    ledger.record(np.isfinite(error), f"model_error_x is {error}")

    outcome = Outcome(
        end_to_end={
            "setup_s": median(setup_scaled),
            "latency_p50_ms": median(scaled) * 1e3,
            "latency_p95_ms": tail(scaled) * 1e3,
            "throughput_per_s": first.updates_processed * len(scaled) / sum(scaled),
            "peak_rss_mb": peak_rss,
        },
        exact=exact_metrics(first, error),
        layers=("graph", "reference", "cycle", "noc", "analytic", "trace"),
        samples={"setup_s": len(setup_times), "latency_ms": len(times)},
        info={
            "scatter_cycles": list(first.scatter_cycles),
            "edges": int(prep.graph.num_edges),
            "run_s": times,
            "setup_s": setup_times,
        },
    )
    if settings.trace:
        outcome.per_layer = _traced_pass(
            spec, settings.seed, ledger, first, error, median(times), outcome
        )
    return outcome


def _traced_pass(
    spec: CycleSpec,
    seed: int,
    ledger: Ledger,
    untraced: CycleStats,
    untraced_error: float,
    untraced_run_s: float,
    outcome: Outcome,
) -> Dict[str, float]:
    """One set-up and one simulation with profilers attached, plus the
    analytic run, each inside a layer span."""
    trace = Trace()
    problems: List[str] = []
    prep = set_up(spec, seed, problems, trace)
    cycle_prof = Profiler()
    with trace.span("cycle.run"):
        result = _simulate(
            prep.config, prep.program, prep.graph, prep.faults, cycle_prof
        )
    analytic_prof = Profiler()
    with trace.span("analytic.run"):
        report = analytic_report(prep, analytic_prof)
    trace.finish()

    problems += _check_run(spec, prep, result, untraced)
    error = model_error_x(prep.config, result.stats, report)
    if error != untraced_error:
        problems.append("model_error_x differs from the untraced pass")
    ledger.record(not problems, "traced pass: " + "; ".join(problems))

    scatter_s = cycle_prof.timer_seconds("cycle_sim.scatter")
    step_s = cycle_prof.timer_seconds("cycle_sim.noc_step")
    timers: Dict[str, Any] = cycle_prof.to_dict()["timers"]
    step_calls = timers.get("cycle_sim.noc_step", {}).get("calls", 0)
    run_s = trace.total("cycle.run")
    outcome.spans = trace.spans
    layers = trace.layer_times(TOP_LAYERS)
    layers.update(exact_metrics(result.stats, error))
    layers.update(
        {
            "cycle.scatter_s": scatter_s,
            "cycle.apply_s": cycle_prof.timer_seconds("cycle_sim.apply"),
            "noc.step_s": step_s,
            "cycle.scatter_self_s": scatter_s - step_s,
            "noc.step_calls": step_calls,
            "noc.fast_forward_ratio": (
                1.0 - step_calls / max(sum(result.stats.scatter_cycles), 1)
            ),
            "cycle.sim_cycles_per_s": untraced.total_cycles / untraced_run_s,
            "analytic.scatter_model_s": analytic_prof.timer_seconds(
                "analytic.scatter_model"
            ),
            "analytic.apply_model_s": analytic_prof.timer_seconds(
                "analytic.apply_model"
            ),
            "analytic.workload_build_s": analytic_prof.timer_seconds(
                "analytic.workload_build"
            ),
            "trace.overhead_ratio": run_s / untraced_run_s - 1.0,
        }
    )
    return layers
