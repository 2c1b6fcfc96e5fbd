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

from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ScalaGraphConfig
from repro.core.dispatcher import (
    apply_compute_cycles,
    pipeline_schedule,
    scatter_compute_cycles,
)
from repro.core.profiling import NULL_PROFILER, Profiler
from repro.core.replay import (
    ModelledSystem,
    PartitionEdges,
    PhaseModel,
    Replay,
    WorkloadIteration,
    replay,
)
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


class ScalaGraph(ModelledSystem):
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
        self.hbm = HBMModel(self.config.hbm, self.config.clock_hz)

    # ------------------------------------------------------------------
    # Public API (``run`` is ModelledSystem's)
    # ------------------------------------------------------------------
    def run_trace(
        self,
        graph: CSRGraph,
        workload: Iterable[WorkloadIteration],
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
        return replay(
            graph, workload, [self], algorithm, monotonic, properties
        )[0]

    def phase_model(self, graph: CSRGraph) -> PhaseModel:
        """This machine's phase bounds over ``graph``, for
        :func:`~repro.core.replay.replay`.  Under faults the model walks
        a clean twin beside it, whose cycles give ``degraded_cycles``."""
        twin = None
        if self.faults is not None:
            twin = ScalaGraph(
                self._clean_config, enforce_capacity=self.enforce_capacity
            ).phase_model(graph)
        return _ScalaGraphModel(self, graph, twin)

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
            memory=self.hbm.stream_cycles(offchip),
            overhead=timing.phase_overhead_cycles,
        )
        return {"cycles": cycles, "noc": noc, "offchip_bytes": offchip}

    def _apply_compute(self, touched: np.ndarray) -> float:
        """Apply's compute bound: the busiest node's share of the
        ``touched`` vertices (distinct, ascending)."""
        return apply_compute_cycles(
            self.mapping.home(touched), self.topology.num_nodes
        )

    def _apply_phase(
        self, compute: float, num_updates: int
    ) -> Tuple[float, float]:
        """Apply's cycles and off-chip bytes: the busiest node's
        compute, the mapping's flood, and the write-back of the new
        active list.  Prefetching hides the stream's latency (Section
        III-A), so only its bandwidth occupancy is charged."""
        cfg = self.config
        noc = self.mapping.apply_service_cycles(num_updates)
        writeback = float(num_updates * cfg.vertex_bytes)
        memory = self.hbm.stream_cycles(writeback)
        cycles = max(compute, noc, memory) + cfg.timing.phase_overhead_cycles
        return cycles, writeback

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


class _ScalaGraphModel(PhaseModel):
    """One :class:`ScalaGraph` run, as :func:`~repro.core.replay.replay`
    walks it."""

    def __init__(
        self, system: ScalaGraph, graph: CSRGraph, twin: Optional[PhaseModel]
    ) -> None:
        super().__init__(system, system._partitions(graph), twin)
        self.prof = system.profiler or NULL_PROFILER
        cfg = system.config
        self.window = (
            cfg.aggregation_registers * cfg.timing.agg_window_per_register
        )
        self.compute_cycles = 0.0

    def frontier(
        self, active: np.ndarray, edges: PartitionEdges
    ) -> Tuple[dict, float]:
        """The partition's Scatter phase and its Apply compute bound."""
        with self.prof.timer("analytic.scatter_model"):
            return (
                self.system._scatter_phase(
                    active, edges.src, edges.dst, self.window
                ),
                self.system._apply_compute(edges.touched),
            )

    def iteration(
        self,
        index: int,
        step: WorkloadIteration,
        terms: Sequence[Tuple[dict, float]],
    ) -> IterationStats:
        scatter_cycles = 0.0
        apply_cycles = 0.0
        messages = hops = coalesced = 0
        offchip = 0.0
        bottleneck = "compute"
        for phase, apply_compute in terms:
            scatter_cycles += phase["cycles"].total
            self.compute_cycles += phase["cycles"].compute
            messages += phase["noc"].num_messages
            hops += phase["noc"].total_hops
            coalesced += phase["noc"].coalesced
            offchip += phase["offchip_bytes"]
            bottleneck = phase["cycles"].bottleneck
            with self.prof.timer("analytic.apply_model"):
                cycles, writeback = self.system._apply_phase(
                    apply_compute, step.num_updates
                )
            apply_cycles += cycles
            offchip += writeback
        return IterationStats(
            index=index,
            num_active=step.active_vertices.size,
            num_edges=step.edge_src.size,
            scatter_cycles=scatter_cycles,
            apply_cycles=apply_cycles,
            noc_messages=messages,
            noc_hops=hops,
            coalesced_updates=coalesced,
            offchip_bytes=offchip,
            scatter_bottleneck=bottleneck,
        )

    def report(self, graph: CSRGraph, run: Replay) -> SimulationReport:
        from repro.models.energy import accelerator_power_watts

        system, prof = self.system, self.prof
        cfg = system.config
        partitions = len(self.partitions)
        use_pipelining = (
            cfg.inter_phase_pipelining and run.monotonic and partitions == 1
        )
        total_cycles, overlaps = pipeline_schedule(
            [stats.scatter_cycles for stats in self.iterations],
            [stats.apply_cycles for stats in self.iterations],
            enabled=use_pipelining,
            efficiency=cfg.timing.pipelining_efficiency,
        )
        for stats, overlap in zip(self.iterations, overlaps):
            stats.overlap_cycles = overlap

        extra = {
            "pipelining_used": float(use_pipelining),
            "aggregation_window": float(self.window),
            "scatter_compute_cycles": self.compute_cycles,
        }
        if self.twin is not None:
            # Slowdown attributable to the faults: the clean twin walked
            # the same workload, so the comparison is exact.
            faults = system.faults
            clean = self.twin.report(graph, run)
            extra["degraded_cycles"] = max(
                0.0, total_cycles - clean.total_cycles
            )
            extra["fault_seed"] = float(faults.seed)
            extra["hbm_bandwidth_fraction"] = faults.hbm_bandwidth_fraction
            extra["link_availability"] = faults.link_availability

        iterations = len(self.iterations)
        prof.count("analytic.iterations", iterations)
        prof.count("analytic.scatter_phases", iterations * partitions)
        if run.repeats:
            prof.count(
                "analytic.scatter_phases_reused", run.repeats * partitions
            )
        prof.count("analytic.partitions", partitions)
        prof.count("analytic.edges_traversed", run.edges_traversed)

        return run.report(
            graph,
            self,
            accelerator=f"{system.name}-{cfg.num_pes}",
            num_pes=cfg.num_pes,
            frequency_mhz=cfg.clock_mhz,
            total_cycles=total_cycles,
            power_watts=accelerator_power_watts(
                cfg.num_pes, cfg.interconnect, cfg.clock_mhz
            ).total_watts,
            extra=extra,
            profile=(
                system.profiler.to_dict()
                if system.profiler is not None
                else None
            ),
        )
