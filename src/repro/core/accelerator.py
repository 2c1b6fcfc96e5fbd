"""ScalaGraph: the top-level cycle-approximate accelerator model.

``ScalaGraph.run`` executes a vertex program functionally (gold results)
and replays every iteration through the timing model.  Each Scatter
phase's duration is the maximum of four bounds — dispatch/compute
(degree-aware scheduling, Section IV-C), NoC link contention after
aggregation (Sections IV-A/IV-B), SPD reduce serialisation, and HBM
bandwidth — plus fixed pipeline-fill overheads; each Apply phase is
bounded by the busiest SPD slice and the active-list write-back.
Inter-phase pipelining (Section IV-D) overlaps Apply with the next
Scatter for monotonic algorithms on graphs that fit in one partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.algorithms.base import VertexProgram
from repro.algorithms.reference import (
    ReferenceResult,
    gather_frontier_edges,
    repeats_previous,
    run_reference,
)
from repro.core.config import ScalaGraphConfig
from repro.core.dispatcher import (
    apply_compute_cycles,
    pipeline_schedule,
    scatter_compute_cycles,
)
from repro.core.prefetcher import Prefetcher
from repro.core.profiling import NULL_PROFILER, Profiler
from repro.core.stats import IterationStats, PhaseCycles, SimulationReport
from repro.errors import CapacityError
from repro.graph.csr import CSRGraph
from repro.graph.partition import slice_intervals
from repro.mapping import MappingTraffic, make_mapping
from repro.memory.hbm import HBMModel
from repro.noc.topology import MeshTopology
from repro.util import unique_id_counts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultSchedule


@dataclass(frozen=True)
class WorkloadIteration:
    """One iteration's explicit workload for :meth:`ScalaGraph.run_trace`.

    Lets callers drive the timing model with workloads the standard
    push-based reference engine cannot express (e.g. the pull phases of
    direction-optimizing BFS, where the edge set is not the frontier's
    out-edges).

    Attributes:
        active_vertices: vertices whose records stream from HBM.
        edge_src / edge_dst: the edge workloads processed this iteration.
        num_updates: vertices whose property changes (next frontier size).
    """

    active_vertices: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    num_updates: int


class ScalaGraph:
    """The ScalaGraph accelerator (Sections III-IV).

    Args:
        config: hardware configuration; defaults to the paper's flagship
            two-tile, 512-PE instance.
        enforce_capacity: raise :class:`~repro.errors.CapacityError` when
            a mapping needs more on-chip storage than the scratchpad has
            (the paper relaxes this only for the Figure 17 DOM study,
            which used 'a cycle-accurate accelerator with a large
            on-chip memory').
        profiler: optional wall-clock profiler; when given, per-phase
            host-time timers and counters are accumulated and attached
            to the report's ``profile`` field.
        faults: optional :class:`~repro.faults.FaultSchedule`.  The
            analytic model has no per-cycle state to fault, so the
            schedule degrades its *resource budgets* instead — HBM
            bandwidth loses the disabled channels and the NoC link
            bandwidth is scaled by the schedule's link availability
            (:meth:`~repro.faults.FaultSchedule.apply_to_config`).  The
            report gains ``degraded_cycles`` (slowdown versus a clean
            twin run), ``fault_seed``, ``hbm_bandwidth_fraction`` and
            ``link_availability`` entries in ``extra``.
    """

    name = "ScalaGraph"

    def __init__(
        self,
        config: Optional[ScalaGraphConfig] = None,
        enforce_capacity: bool = True,
        profiler: Optional[Profiler] = None,
        faults: Optional["FaultSchedule"] = None,
    ) -> None:
        self._clean_config = config or ScalaGraphConfig()
        self.faults = faults
        self.config = (
            faults.apply_to_config(self._clean_config)
            if faults is not None
            else self._clean_config
        )
        self.enforce_capacity = enforce_capacity
        self.profiler = profiler
        self.topology = MeshTopology(
            rows=self.config.pe_rows, cols=self.config.total_cols
        )
        self.mapping = make_mapping(self.config.mapping, self.topology)
        hbm_model = HBMModel(self.config.hbm, self.config.clock_hz)
        self.prefetcher = Prefetcher(
            hbm_model, vertex_bytes=self.config.vertex_bytes
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        program: VertexProgram,
        graph: CSRGraph,
        max_iterations: Optional[int] = None,
        reference: Optional[ReferenceResult] = None,
    ) -> SimulationReport:
        """Simulate one algorithm run.

        Args:
            program: the vertex program.
            graph: the input graph.
            max_iterations: optional iteration cap.
            reference: a pre-computed functional run to replay (lets
                sweeps share one reference execution).

        Returns:
            A :class:`SimulationReport` carrying the gold properties and
            the timing accounting.
        """
        prof = self.profiler or NULL_PROFILER
        with prof.timer("analytic.reference"):
            ref = reference or run_reference(program, graph, max_iterations)
        with prof.timer("analytic.workload_build"):
            workload: list[WorkloadIteration] = []
            previous = None
            for trace in ref.iterations:
                active = trace.active_vertices
                if not repeats_previous(previous, (active,)):
                    src, dst, _ = gather_frontier_edges(graph, active)
                previous = (active,)
                workload.append(
                    WorkloadIteration(active, src, dst, trace.num_updates)
                )
        return self.run_trace(
            graph,
            workload,
            algorithm=program.name,
            monotonic=program.monotonic,
            properties=ref.properties,
        )

    def run_trace(
        self,
        graph: CSRGraph,
        workload: Sequence[WorkloadIteration],
        algorithm: str = "trace",
        monotonic: bool = False,
        properties: Optional[np.ndarray] = None,
    ) -> SimulationReport:
        """Simulate an explicit per-iteration workload.

        The standard :meth:`run` path derives the workload from a
        reference execution; this entry point accepts arbitrary
        iteration traces (pull-mode BFS phases, replayed logs, synthetic
        stress patterns).

        Args:
            graph: the graph the workload runs over (for partitioning
                and report metadata).
            workload: per-iteration explicit edge sets.
            algorithm: label for the report.
            monotonic: whether inter-phase pipelining is allowed.
            properties: optional gold results to attach.
        """
        cfg = self.config
        prof = self.profiler or NULL_PROFILER
        partitions = self._partitions(graph)

        use_pipelining = (
            cfg.inter_phase_pipelining
            and monotonic
            and len(partitions) == 1
        )
        window = cfg.aggregation_registers * cfg.timing.agg_window_per_register

        scatter_totals: list[float] = []
        apply_totals: list[float] = []
        iteration_stats: list[IterationStats] = []
        compute_cycle_total = 0.0
        # Per partition, the current frontier's Scatter phase and Apply
        # compute bound: modelled once per run of repeated iterations.
        scatter_phases: list[dict] = []
        apply_computes: list[float] = []
        previous = None

        for index, item in enumerate(workload):
            active = np.asarray(item.active_vertices, dtype=np.int64)
            src = np.asarray(item.edge_src, dtype=np.int64)
            dst = np.asarray(item.edge_dst, dtype=np.int64)
            repeat = repeats_previous(previous, (active, src, dst))
            previous = (active, src, dst)
            if repeat:
                prof.count("analytic.scatter_phases_reused", len(partitions))
            else:
                scatter_phases, apply_computes = [], []
            scatter_cycles = 0.0
            apply_cycles = 0.0
            messages = hops = coalesced = 0
            offchip = 0.0
            bottleneck = "compute"

            for p, part in enumerate(partitions):
                if not repeat:
                    if len(partitions) == 1:
                        src_p, dst_p = src, dst
                    else:
                        mask = part.mask(dst)
                        src_p, dst_p = src[mask], dst[mask]
                    with prof.timer("analytic.scatter_model"):
                        scatter_phases.append(
                            self._scatter_phase(active, src_p, dst_p, window)
                        )
                phase = scatter_phases[p]
                scatter_cycles += phase["cycles"].total
                compute_cycle_total += phase["cycles"].compute
                messages += phase["noc"].num_messages
                hops += phase["noc"].total_hops
                coalesced += phase["noc"].coalesced
                offchip += phase["offchip_bytes"]
                bottleneck = phase["cycles"].bottleneck

                with prof.timer("analytic.apply_model"):
                    if not repeat:
                        apply_computes.append(self._apply_compute(dst_p))
                    apply_phase = self._apply_phase(
                        apply_computes[p], item.num_updates
                    )
                apply_cycles += apply_phase["cycles"]
                offchip += apply_phase["offchip_bytes"]

            scatter_totals.append(scatter_cycles)
            apply_totals.append(apply_cycles)
            iteration_stats.append(
                IterationStats(
                    index=index,
                    num_active=int(active.size),
                    num_edges=int(src.size),
                    scatter_cycles=scatter_cycles,
                    apply_cycles=apply_cycles,
                    noc_messages=messages,
                    noc_hops=hops,
                    coalesced_updates=coalesced,
                    offchip_bytes=offchip,
                    scatter_bottleneck=bottleneck,
                )
            )

        total_cycles, overlaps = pipeline_schedule(
            scatter_totals,
            apply_totals,
            enabled=use_pipelining,
            efficiency=cfg.timing.pipelining_efficiency,
        )
        for stats, overlap in zip(iteration_stats, overlaps):
            stats.overlap_cycles = overlap

        from repro.models.energy import accelerator_power_watts

        power = accelerator_power_watts(
            cfg.num_pes, cfg.interconnect, cfg.clock_mhz
        ).total_watts

        extra = {
            "pipelining_used": float(use_pipelining),
            "aggregation_window": float(window),
            "scatter_compute_cycles": compute_cycle_total,
        }
        if self.faults is not None:
            # Slowdown attributable to the faults: re-run the (cheap,
            # analytic) timing model on an identical clean twin and take
            # the cycle delta.  The twin shares this instance's workload
            # so the comparison is exact.
            clean = ScalaGraph(
                self._clean_config, enforce_capacity=self.enforce_capacity
            ).run_trace(
                graph, workload, algorithm=algorithm, monotonic=monotonic
            )
            extra["degraded_cycles"] = max(
                0.0, total_cycles - clean.total_cycles
            )
            extra["fault_seed"] = float(self.faults.seed)
            extra["hbm_bandwidth_fraction"] = (
                self.faults.hbm_bandwidth_fraction
            )
            extra["link_availability"] = self.faults.link_availability

        prof.count("analytic.iterations", len(workload))
        prof.count(
            "analytic.scatter_phases", len(workload) * len(partitions)
        )
        prof.count("analytic.partitions", len(partitions))
        prof.count(
            "analytic.edges_traversed",
            sum(int(np.asarray(w.edge_src).size) for w in workload),
        )

        return SimulationReport(
            accelerator=f"{self.name}-{cfg.num_pes}",
            algorithm=algorithm,
            graph_name=graph.name,
            num_pes=cfg.num_pes,
            frequency_mhz=cfg.clock_mhz,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            total_edges_traversed=sum(
                int(np.asarray(w.edge_src).size) for w in workload
            ),
            total_cycles=total_cycles,
            iterations=iteration_stats,
            properties=properties,
            num_partitions=len(partitions),
            power_watts=power,
            extra=extra,
            profile=(
                self.profiler.to_dict() if self.profiler is not None else None
            ),
        )

    # ------------------------------------------------------------------
    # Phase models
    # ------------------------------------------------------------------
    def _scatter_phase(
        self,
        active: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        window: float,
    ) -> dict:
        cfg = self.config
        timing = cfg.timing
        if src.size == 0:
            return {
                "cycles": PhaseCycles(0, 0, 0, 0, timing.phase_overhead_cycles),
                "noc": MappingTraffic(0, 0),
                "offchip_bytes": 0.0,
            }

        vertices, degrees = unique_id_counts(
            self.mapping.dispatch_group(src, dst)
        )
        rows = self.topology.rows_of(self.mapping.home(vertices))
        compute = scatter_compute_cycles(
            degrees,
            rows,
            num_rows=self.topology.rows,
            line_width=self.topology.cols,
            window=cfg.degree_aware_window,
            dispatch_efficiency=timing.dispatch_efficiency,
        )

        noc = self.mapping.scatter_traffic(
            src,
            dst,
            window,
            spd_forwarding_window=timing.spd_forwarding_window,
        )
        # Service: the busiest link moves `noc_link_updates_per_cycle`
        # updates per cycle; the phase additionally pays the mapping's
        # average routing latency once (pipeline fill — a property of the
        # route geometry, independent of how much traffic coalesced).
        noc_service = noc.max_link_load / timing.noc_link_updates_per_cycle
        noc_fill = (
            self.mapping.average_route_distance()
            + timing.noc_pipeline_latency
        )

        offchip = self.mapping.offchip_bytes(
            int(active.size), int(src.size), cfg.vertex_bytes, cfg.edge_bytes
        )
        cycles = PhaseCycles(
            compute=compute,
            noc=noc_service + noc_fill,
            spd=noc.spd_load,
            memory=self.prefetcher.hbm.stream_cycles(offchip),
            overhead=timing.phase_overhead_cycles,
        )
        return {"cycles": cycles, "noc": noc, "offchip_bytes": offchip}

    def _apply_compute(self, dst: np.ndarray) -> float:
        """Apply's compute bound: the busiest node's touched vertices."""
        touched, _ = unique_id_counts(dst)
        return apply_compute_cycles(
            self.mapping.home(touched), self.topology.num_nodes
        )

    def _apply_phase(self, compute: float, num_updates: int) -> dict:
        cfg = self.config
        noc = self.mapping.apply_service_cycles(num_updates)
        traffic = self.prefetcher.apply_traffic(num_updates)
        memory = self.prefetcher.cycles(traffic)
        cycles = max(compute, noc, memory) + cfg.timing.phase_overhead_cycles
        return {"cycles": cycles, "offchip_bytes": traffic.total_bytes}

    # ------------------------------------------------------------------
    # Capacity / partitioning
    # ------------------------------------------------------------------
    def _partitions(self, graph: CSRGraph):
        cfg = self.config
        if self.enforce_capacity:
            replicas = self.mapping.replica_storage_vertices(graph.num_vertices)
            if replicas and replicas > cfg.spd.capacity_vertices:
                raise CapacityError(
                    f"{self.mapping.name} needs {replicas:,} on-chip vertex "
                    f"replicas but the scratchpad holds "
                    f"{cfg.spd.capacity_vertices:,} (Section IV-A: DOM's "
                    "O(N*K) storage)"
                )
            footprint = (
                graph.num_vertices * cfg.vertex_bytes
                + graph.num_edges * cfg.edge_bytes
            )
            if footprint > cfg.hbm.total_capacity_bytes:
                raise CapacityError(
                    f"graph footprint {footprint:,} B exceeds the "
                    f"{cfg.hbm.total_capacity_bytes:,} B of HBM on the "
                    f"card (Section V-A: two 4 GB stacks)"
                )
        return slice_intervals(graph, cfg.spd.capacity_vertices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScalaGraph(pes={self.config.num_pes}, "
            f"mapping={self.config.mapping}, "
            f"clock={self.config.clock_mhz:.0f}MHz)"
        )
