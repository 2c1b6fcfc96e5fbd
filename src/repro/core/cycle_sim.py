"""Cycle-accurate single-tile simulator.

Where :class:`~repro.core.accelerator.ScalaGraph` computes analytic
bounds, this simulator advances a whole tile **cycle by cycle**: every
cycle each row's dispatching unit issues one line of edge workloads
(degree-aware packing, Section IV-C), every GU processes one workload,
every RU offers its update to its aggregation pipeline and injects at
most one surviving update into the mesh (Section IV-B), the routers
move single-flit update packets (one per link per cycle) under XY
routing with backpressure, and every SPD slice retires one Reduce per
cycle.

It exists to validate the analytic timing model: tests check that on
small graphs the two models' Scatter-phase cycle counts agree within a
small factor, that without aggregation its NoC hop count equals the
mapping's analytic link-load accounting, and that the architecture
still computes exactly the Figure 1 result.  Two independently
selectable engines cover the per-cycle work: the mesh-NoC step is
delegated to :attr:`~repro.core.config.ScalaGraphConfig.noc_engine`
(by default the compiled struct-of-arrays engine at every mesh size;
see :mod:`repro.noc.fastmesh`), and the scatter-phase loops around it —
dispatch, aggregation, RU egress, SPD retire — to
:attr:`~repro.core.config.ScalaGraphConfig.cycle_engine` (by default
the behaviourally identical :mod:`repro.core.fastsim` engine, which
runs the whole cycle loop, mesh step included, in compiled code; this
class's ``_scatter_phase`` is the auditable reference, and the only
engine on a host without a C compiler).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import ProgramContext, VertexProgram
from repro.algorithms.reference import gather_frontier_edges, repeats_previous
from repro.analysis.sanitizer import SimSanitizer, maybe_sanitizer
from repro.core.config import ScalaGraphConfig
from repro.core.fastsim import (
    PhaseRecord,
    resolve_cycle_engine,
    scatter_phase_fast,
)
from repro.core.profiling import NULL_PROFILER, Profiler
from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultSchedule
from repro.graph.csr import CSRGraph
from repro.mapping import make_mapping
from repro.noc.aggregation import AggregationPipeline, aggregation_geometry
from repro.noc.fastmesh import make_mesh_network, resolve_engine
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology


@dataclass
class CycleStats:
    """Cycle-level accounting of one run.

    The ``phase_*`` lists hold one entry per Scatter phase (parallel to
    :attr:`scatter_cycles`); per phase the invariant
    ``phase_updates[i] - phase_coalesced[i] == phase_spd_reduces[i]``
    holds — every dispatched update either coalesces in an aggregation
    pipeline or retires as exactly one SPD Reduce.
    """

    total_cycles: int = 0
    scatter_cycles: List[int] = field(default_factory=list)
    apply_cycles: List[int] = field(default_factory=list)
    updates_processed: int = 0
    updates_coalesced: int = 0
    noc_hops: int = 0
    spd_reduces: int = 0
    dispatch_lines: int = 0
    iterations: int = 0
    phase_updates: List[int] = field(default_factory=list)
    phase_coalesced: List[int] = field(default_factory=list)
    phase_spd_reduces: List[int] = field(default_factory=list)
    #: Scatter cycles in which an armed fault schedule degraded progress
    #: (a mesh fault touched live traffic, or a stalled PE sat on
    #: pending work).  Zero without faults.
    degraded_cycles: int = 0
    #: Committed mesh traversals that detoured around a dead link.
    rerouted_packets: int = 0


@dataclass
class CycleResult:
    properties: np.ndarray
    stats: CycleStats
    converged: bool
    #: Wall-clock profiling breakdown, set when the simulator was
    #: constructed with a :class:`~repro.core.profiling.Profiler`.
    profile: Optional[Dict] = None


class _RowDispatcher:
    """One DU: packs a row's edge workloads into per-cycle lines.

    Workloads arrive grouped by vertex; each cycle the DU emits at most
    ``line_width`` edges drawn from at most ``window`` distinct vertices
    at the head of its queue (Section IV-C's degree-aware packing).
    """

    def __init__(self, line_width: int, window: int) -> None:
        self.line_width = line_width
        self.window = window
        # Queue of per-vertex edge lists: (vertex, deque of edge indices).
        self.queue: Deque[Tuple[int, Deque[int]]] = deque()

    def push_vertex(self, vertex: int, edge_indices: np.ndarray) -> None:
        if edge_indices.size:
            self.queue.append((vertex, deque(int(e) for e in edge_indices)))

    @property
    def busy(self) -> bool:
        return bool(self.queue)

    def issue_line(self) -> List[int]:
        """Edges dispatched this cycle (possibly empty)."""
        line: List[int] = []
        vertices_used = 0
        while (
            self.queue
            and len(line) < self.line_width
            and vertices_used < self.window
        ):
            vertex, edges = self.queue[0]
            while edges and len(line) < self.line_width:
                line.append(edges.popleft())
            if edges:
                break  # line full mid-vertex; resume next cycle
            self.queue.popleft()
            vertices_used += 1
        return line


class CycleAccurateScalaGraph:
    """A single-tile, cycle-driven ScalaGraph model.

    Args:
        config: hardware configuration (defaults to a 4x4 single tile).
        noc_buffer_depth: per-port router buffer depth of the simulated
            mesh; shallow buffers (1) stress backpressure handling.
        profiler: optional wall-clock profiler; when given, the run's
            per-phase host-time breakdown lands on
            :attr:`CycleResult.profile`.
        sanitize: arm the :class:`~repro.analysis.sanitizer.SimSanitizer`
            runtime invariant checks (update conservation, FIFO depths,
            cycle monotonicity, SPD accounting).  None defers to the
            ``REPRO_SANITIZE`` environment variable.
        faults: optional :class:`~repro.faults.FaultSchedule` built for
            this simulator's topology.  Mesh faults and PE stall
            windows replay from cycle 0 of *every* Scatter phase (each
            phase builds a fresh mesh), which keeps fault replay
            deterministic regardless of how many phases a run needs.
    """

    def __init__(
        self,
        config: Optional[ScalaGraphConfig] = None,
        noc_buffer_depth: int = 4,
        profiler: Optional[Profiler] = None,
        sanitize: Optional[bool] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        self.config = config or ScalaGraphConfig(
            num_tiles=1, pe_rows=4, pe_cols=4
        )
        self.noc_buffer_depth = noc_buffer_depth
        self.profiler = profiler
        self.sanitizer: Optional[SimSanitizer] = maybe_sanitizer(
            sanitize, context="cycle_sim"
        )
        self.topology = MeshTopology(
            rows=self.config.pe_rows, cols=self.config.total_cols
        )
        self.mapping = make_mapping(self.config.mapping, self.topology)
        if faults is not None and (
            faults.topology.rows != self.topology.rows
            or faults.topology.cols != self.topology.cols
        ):
            raise ConfigurationError(
                f"fault schedule was built for a "
                f"{faults.topology.rows}x{faults.topology.cols} mesh; "
                f"this simulator is "
                f"{self.topology.rows}x{self.topology.cols}"
            )
        self.faults = faults

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        program: VertexProgram,
        graph: CSRGraph,
        max_iterations: Optional[int] = None,
        max_cycles_per_phase: int = 2_000_000,
    ) -> CycleResult:
        """Simulate ``program`` over ``graph`` cycle by cycle.

        With a sanitizer armed, a violated invariant raises its
        :class:`~repro.errors.SanitizerError` out of this call, whichever
        engines ran.
        """
        cfg = self.config
        # The vectorized scatter phase always steps the compiled mesh, so
        # naming it names the kernel.  Only the mesh resolver checks
        # that the kernel can run, once per run.
        engine = resolve_engine(
            "vectorized"
            if cfg.cycle_engine.lower() == "vectorized"
            else cfg.noc_engine
        )
        cycle_engine = resolve_cycle_engine(
            cfg.cycle_engine, engine, program.reduce_ufunc
        )
        ctx = ProgramContext(graph=graph)
        program.validate(ctx)
        props = program.initial_properties(ctx)
        active = np.asarray(program.initial_active(ctx), dtype=np.int64)
        limit = (
            max_iterations
            if max_iterations is not None
            else program.max_iterations(ctx)
        )
        stats = CycleStats()
        prof = self.profiler or NULL_PROFILER
        # The vectorized engine's record of the previous phase: a phase
        # over the same frontier folds its values with it instead of
        # simulating (see repro.core.fastsim).
        record: Optional[PhaseRecord] = None
        previous = None
        reused = 0

        iteration = 0
        while active.size and iteration < limit:
            repeat = repeats_previous(previous, (active,))
            previous = (active,)
            vtemp = np.full(
                graph.num_vertices, program.reduce_identity, dtype=np.float64
            )
            # Which vertices actually received an SPD Reduce this phase.
            # Comparing vtemp against the reduce identity is not enough:
            # an aggregated value can legitimately *equal* the identity
            # (a zero-valued contribution under a + reduce) and must
            # still be charged an Apply slot.
            touched_mask = np.zeros(graph.num_vertices, dtype=bool)
            with prof.timer("cycle_sim.scatter"):
                if cycle_engine == "vectorized":
                    if repeat and record is not None:
                        reused += 1
                    else:
                        record = None  # let it go before the next phase
                    cycles, record = scatter_phase_fast(
                        self, program, ctx, graph, active, props, vtemp,
                        touched_mask, stats, max_cycles_per_phase, record,
                    )
                else:
                    cycles = self._scatter_phase(
                        program, ctx, graph, active, props, vtemp,
                        touched_mask, stats, max_cycles_per_phase, engine,
                    )
            stats.scatter_cycles.append(cycles)

            # Apply: every touched slice applies one vertex per cycle.
            with prof.timer("cycle_sim.apply"):
                touched = np.flatnonzero(touched_mask)
                if program.all_active:
                    touched = np.arange(graph.num_vertices, dtype=np.int64)
                apply_cycles = self._apply_cycles(touched)
                stats.apply_cycles.append(apply_cycles)

                new_props = program.apply_values(ctx, props, vtemp)
                updated = program.is_updated(props, new_props)
            props = new_props
            active = (
                np.arange(graph.num_vertices, dtype=np.int64)
                if (program.all_active and np.any(updated))
                else np.flatnonzero(updated).astype(np.int64)
            )
            iteration += 1

        stats.iterations = iteration
        stats.total_cycles = sum(stats.scatter_cycles) + sum(
            stats.apply_cycles
        )
        if self.sanitizer is not None:
            self._check_run_totals(stats)
        prof.count("cycle_sim.iterations", iteration)
        prof.count("cycle_sim.scatter_phases_reused", reused)
        prof.count("cycle_sim.scatter_cycles", sum(stats.scatter_cycles))
        prof.count("cycle_sim.apply_cycles", sum(stats.apply_cycles))
        prof.count("cycle_sim.spd_reduces", stats.spd_reduces)
        prof.count("cycle_sim.updates_coalesced", stats.updates_coalesced)
        prof.count("cycle_sim.noc_hops", stats.noc_hops)
        return CycleResult(
            properties=props,
            stats=stats,
            converged=active.size == 0,
            profile=(
                self.profiler.to_dict() if self.profiler is not None else None
            ),
        )

    def _check_run_totals(self, stats: CycleStats) -> None:
        """End-of-run audit: the per-phase ledgers must sum to the run
        totals, and the run totals must balance."""
        san = self.sanitizer
        assert san is not None
        san.begin_epoch("run-totals")
        san.check_conservation(
            injected=stats.updates_processed,
            delivered=stats.spd_reduces,
            coalesced=stats.updates_coalesced,
            in_flight=0,
            where="run totals",
        )
        san.check_spd_accounting(
            spd_reduces=stats.spd_reduces,
            updates=stats.updates_processed,
            coalesced=stats.updates_coalesced,
        )
        if sum(stats.phase_updates) != stats.updates_processed:
            san.fail(
                "update-conservation",
                f"per-phase updates {sum(stats.phase_updates)} != run "
                f"total {stats.updates_processed}",
            )

    # ------------------------------------------------------------------
    # Scatter: the cycle loop
    # ------------------------------------------------------------------
    def _scatter_phase(
        self,
        program: VertexProgram,
        ctx: ProgramContext,
        graph: CSRGraph,
        active: np.ndarray,
        props: np.ndarray,
        vtemp: np.ndarray,
        touched_mask: np.ndarray,
        stats: CycleStats,
        max_cycles: int,
        engine: str,
    ) -> int:
        cfg = self.config
        prof = self.profiler
        src, dst, weights = gather_frontier_edges(graph, active)
        if src.size == 0:
            stats.phase_updates.append(0)
            stats.phase_coalesced.append(0)
            stats.phase_spd_reduces.append(0)
            return 0
        values = program.scatter_value(ctx, src, weights, props[src])
        exec_pe = self.mapping.execution_pe(src, dst)
        reduce_ufunc = program.reduce_ufunc
        reduce_fn = lambda a, b: float(reduce_ufunc(a, b))
        num_pes = self.topology.num_nodes
        # Each vertex's home PE, as a list: the loop below reads it one
        # vertex at a time.
        home = self.mapping.home(
            np.arange(graph.num_vertices, dtype=np.int64)
        ).tolist()

        # Fill each row's dispatcher with its vertices' edge groups, in
        # the groups the mapping names.
        dispatchers = [
            _RowDispatcher(self.topology.cols, cfg.degree_aware_window)
            for _ in range(self.topology.rows)
        ]
        group = self.mapping.dispatch_group(src, dst)
        order = np.argsort(group, kind="stable")
        sorted_group = group[order]
        boundaries = np.flatnonzero(
            np.diff(np.concatenate([[-1], sorted_group]))
        )
        for i, start in enumerate(boundaries):
            stop = (
                boundaries[i + 1] if i + 1 < len(boundaries) else order.size
            )
            vertex = int(sorted_group[start])
            dispatchers[home[vertex] // self.topology.cols].push_vertex(
                vertex, order[start:stop]
            )

        # Per-PE aggregation pipelines (none without registers) and
        # outgoing FIFOs.
        registers = cfg.aggregation_registers
        pipelines = [
            AggregationPipeline(
                *aggregation_geometry(registers),
                reduce_fn=reduce_fn,
                sanitizer=self.sanitizer,
            )
            for _ in range(num_pes if registers > 0 else 0)
        ]
        out_fifos: List[Deque[Tuple[int, float]]] = [
            deque() for _ in range(num_pes)
        ]
        spd_fifos: List[Deque[Tuple[int, float]]] = [
            deque() for _ in range(num_pes)
        ]
        if self.sanitizer is not None:
            self.sanitizer.begin_epoch(
                f"scatter[{len(stats.scatter_cycles)}]"
            )
        network = make_mesh_network(
            self.topology,
            buffer_depth=self.noc_buffer_depth,
            sanitizer=self.sanitizer,
            engine=engine,
            faults=self.faults,
        )
        # One timer object, entered every loop iteration.
        noc_timer = (prof or NULL_PROFILER).timer("cycle_sim.noc_step")

        faults = self.faults
        no_stalls = [False] * num_pes
        cycle = 0
        edges_remaining = int(src.size)
        phase_coalesced = phase_spd = 0
        while True:
            progressed = False
            # A stalled PE (fault injection) emits no update and retires
            # no SPD reduce this cycle; the flag records whether a stall
            # actually blocked pending work (feeds degraded_cycles).
            stalled = (
                faults.pe_stall_mask(cycle).tolist() if faults else no_stalls
            )
            pe_stall_hit = False
            net_degraded_before = network.stats.degraded_cycles

            # 1. Dispatch: one line per row per cycle; each edge's GU
            #    produces its update in the same cycle (pipelined).
            for dispatcher in dispatchers:
                line = dispatcher.issue_line()
                if not line:
                    continue
                progressed = True
                stats.dispatch_lines += 1
                edges_remaining -= len(line)
                for edge in line:
                    pe = int(exec_pe[edge])
                    vertex = int(dst[edge])
                    value = float(values[edge])
                    if not pipelines:
                        out_fifos[pe].append((vertex, value))
                        continue
                    pipe = pipelines[pe]
                    outcome = pipe.offer(vertex, value)
                    if outcome == "coalesced":
                        phase_coalesced += 1
                    elif outcome == "rejected":
                        evicted = pipe.emit(column=pipe.column_of(vertex))
                        if evicted is not None:
                            out_fifos[pe].append(evicted)
                        if pipe.offer(vertex, value) == "rejected":
                            raise SimulationError("aggregation stuck")

            # 2. RU egress: each PE emits one update per cycle — from its
            #    FIFO first, then by draining its pipeline once dispatch
            #    for the phase is done.  An update whose injection the
            #    mesh refuses (backpressure) goes back to the *head* of
            #    its FIFO — it keeps its place in the stream and retries
            #    next cycle; the phase-exit test below reads the FIFOs
            #    directly, so a requeued update can never be dropped or
            #    double-counted by a shadow counter.
            drain_pipelines = bool(pipelines) and all(
                not d.busy for d in dispatchers
            )
            for pe in range(num_pes):
                if stalled[pe]:
                    if out_fifos[pe] or (
                        drain_pipelines and pipelines[pe].occupancy()
                    ):
                        pe_stall_hit = True
                    continue
                item = None
                if out_fifos[pe]:
                    item = out_fifos[pe].popleft()
                elif drain_pipelines:
                    item = pipelines[pe].emit()
                if item is None:
                    continue
                progressed = True
                vertex, value = item
                target = home[vertex]
                if target == pe:
                    spd_fifos[pe].append((vertex, value))
                else:
                    if not network.inject(
                        Packet(src=pe, dst=target, vertex=vertex, value=value)
                    ):
                        # Backpressure: requeue and retry next cycle.
                        out_fifos[pe].appendleft((vertex, value))

            # 3. NoC: one router cycle; deliveries feed the SPD FIFOs.
            before = len(network.delivered)
            with noc_timer:
                network.step()
            for packet in network.delivered[before:]:
                spd_fifos[packet.dst].append((packet.vertex, packet.value))
            if len(network.delivered) != before or network.total_occupancy():
                progressed = True

            # 4. SPD: one Reduce per slice per cycle.
            for pe in range(num_pes):
                if spd_fifos[pe]:
                    if stalled[pe]:
                        pe_stall_hit = True
                        continue
                    vertex, value = spd_fifos[pe].popleft()
                    vtemp[vertex] = reduce_ufunc(vtemp[vertex], value)
                    touched_mask[vertex] = True
                    phase_spd += 1
                    progressed = True

            if (
                pe_stall_hit
                or network.stats.degraded_cycles > net_degraded_before
            ):
                stats.degraded_cycles += 1

            cycle += 1
            if cycle > max_cycles:
                raise SimulationError(
                    f"scatter phase did not drain in {max_cycles} cycles"
                )

            if (
                not progressed
                and edges_remaining == 0
                and not any(out_fifos)
                and not any(p.occupancy() for p in pipelines)
                and not any(spd_fifos)
                and not network.total_occupancy()
            ):
                break

        stats.updates_processed += int(src.size)
        stats.updates_coalesced += phase_coalesced
        stats.spd_reduces += phase_spd
        stats.noc_hops += network.stats.total_hops
        stats.rerouted_packets += network.stats.rerouted_packets
        stats.phase_updates.append(int(src.size))
        stats.phase_coalesced.append(phase_coalesced)
        stats.phase_spd_reduces.append(phase_spd)
        if self.sanitizer is not None:
            in_flight = (
                edges_remaining
                + sum(len(f) for f in out_fifos)
                + sum(len(f) for f in spd_fifos)
                + sum(p.occupancy() for p in pipelines)
                + network.total_occupancy()
            )
            self.sanitizer.check_conservation(
                injected=int(src.size),
                delivered=phase_spd,
                coalesced=phase_coalesced,
                in_flight=in_flight,
                where="scatter phase",
                cycle=cycle,
            )
            self.sanitizer.check_spd_accounting(
                spd_reduces=phase_spd,
                updates=int(src.size),
                coalesced=phase_coalesced,
                cycle=cycle,
            )
        return cycle

    def _apply_cycles(self, touched: np.ndarray) -> int:
        if touched.size == 0:
            return 0
        loads = np.bincount(
            self.mapping.home(touched), minlength=self.topology.num_nodes
        )
        return int(loads.max())
