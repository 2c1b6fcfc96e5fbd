"""Shared model for centralised-crossbar graph accelerators.

Prior accelerators (Figure 3) connect every PE to every on-chip memory
partition through a VOQ crossbar: routing takes one cycle, conflicting
updates to the same partition serialise at the output port (softened by
vectorised/accumulator designs), and the O(N^2) hardware caps the clock
(:mod:`repro.models.frequency`).  Designs wider than one crossbar's
route-failure limit instantiate several crossbar tiles joined by a small
tile-level mesh — the GraphDynS-512 construction of Section V-A — and
pay for the inter-tile traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.algorithms.base import VertexProgram
from repro.algorithms.reference import (
    ReferenceResult,
    gather_frontier_edges,
    repeats_previous,
    run_reference,
)
from repro.core.stats import IterationStats, PhaseCycles, SimulationReport
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.partition import slice_intervals
from repro.memory.hbm import HBMConfig, HBMModel
from repro.memory.spd import ScratchpadConfig
from repro.models.frequency import Interconnect, max_frequency_mhz
from repro.util import unique_id_counts

#: Average tile-to-tile hops of crossing traffic on the 2x2 tile mesh
#: (8 of 12 ordered tile pairs are adjacent, 4 are diagonal).
_INTER_TILE_AVG_HOPS = 4.0 / 3.0
#: Directed links of a 2x2 mesh.
_INTER_TILE_LINKS = 8


@dataclass(frozen=True)
class CrossbarAcceleratorConfig:
    """Configuration of a crossbar-based baseline.

    Attributes:
        name: display name ('GraphDynS', 'AccuGraph').
        num_pes: total PEs.
        num_tiles: crossbar tiles; >1 adds the tile-level mesh.
        frequency_mhz: explicit clock; None derives it from the crossbar
            synthesis model at the per-tile radix.
        with_crossbar: False models the Figure 4 'crossbar removed
            without ensuring accuracy' variant — full 300 MHz clock and
            no conflict serialisation.
        vector_width: same-partition updates absorbed per cycle
            (GraphDynS's vectorised vertex access / AccuGraph's parallel
            accumulator).
        dispatch_efficiency: dispatcher slot utilisation.
        inter_tile_link_updates_per_cycle: width of each tile-to-tile
            channel in updates per cycle.
        phase_overhead_cycles: fixed per-phase overhead (the crossbar's
            single-cycle routing keeps this small).
        hbm / spd: memory parameters; the Figure 4 builders
            (``GraphDynS.with_pes``, ``AccuGraph.with_pes``) set the
            prototypes' 4 MB of BRAM (Section II-B).
        edge_bytes / vertex_bytes: record sizes.
    """

    name: str = "CrossbarAccel"
    num_pes: int = 128
    num_tiles: int = 1
    frequency_mhz: Optional[float] = None
    with_crossbar: bool = True
    vector_width: int = 8
    dispatch_efficiency: float = 0.95
    inter_tile_link_updates_per_cycle: float = 32.0
    phase_overhead_cycles: float = 12.0
    hbm: HBMConfig = field(default_factory=HBMConfig)
    spd: ScratchpadConfig = field(default_factory=ScratchpadConfig)
    edge_bytes: int = 4
    vertex_bytes: int = 8

    def __post_init__(self) -> None:
        if self.num_pes <= 0 or self.num_tiles <= 0:
            raise ConfigurationError("num_pes/num_tiles must be positive")
        if self.num_pes % self.num_tiles:
            raise ConfigurationError("num_pes must divide into tiles")
        if self.vector_width <= 0:
            raise ConfigurationError("vector_width must be positive")

    @property
    def pes_per_tile(self) -> int:
        return self.num_pes // self.num_tiles

    @property
    def clock_mhz(self) -> float:
        if self.frequency_mhz is not None:
            return self.frequency_mhz
        if not self.with_crossbar:
            # Figure 4: the crossbar-free variants hold ~300 MHz.
            return 300.0
        # The clock is set by the largest crossbar instance (the tile).
        return max_frequency_mhz(Interconnect.CROSSBAR, self.pes_per_tile)

    @property
    def clock_hz(self) -> float:
        return self.clock_mhz * 1e6


class CrossbarAccelerator:
    """Cycle-approximate model of a crossbar-based accelerator."""

    def __init__(self, config: CrossbarAcceleratorConfig) -> None:
        self.config = config
        self._hbm = HBMModel(config.hbm, config.clock_hz)

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
        cfg = self.config
        ref = reference or run_reference(program, graph, max_iterations)
        partitions = slice_intervals(graph, cfg.spd.capacity_vertices)

        iteration_stats: list[IterationStats] = []
        total_cycles = 0.0
        compute_cycle_total = 0.0
        # Per partition, the current frontier's Scatter phase, edge count
        # and Apply PE load: modelled once per run of repeated frontiers.
        modelled: list[tuple[PhaseCycles, int, float]] = []
        previous = None
        for trace in ref.iterations:
            active = trace.active_vertices
            if not repeats_previous(previous, (active,)):
                src, dst, _ = gather_frontier_edges(graph, active)
                modelled = []
                for part in partitions:
                    if len(partitions) == 1:
                        src_p, dst_p = src, dst
                    else:
                        mask = part.mask(dst)
                        src_p, dst_p = src[mask], dst[mask]
                    modelled.append(
                        (
                            self._scatter_phase(active, src_p, dst_p),
                            src_p.size,
                            self._apply_load(dst_p),
                        )
                    )
            previous = (active,)
            scatter = apply = offchip = 0.0
            bottleneck = "compute"
            for phase, num_edges, load in modelled:
                scatter += phase.total
                compute_cycle_total += phase.compute
                bottleneck = phase.bottleneck
                apply_cycles, apply_bytes = self._apply_phase(
                    load, trace.num_updates
                )
                apply += apply_cycles
                offchip += (
                    num_edges * cfg.edge_bytes
                    + active.size * cfg.vertex_bytes
                    + apply_bytes
                )
            total_cycles += scatter + apply
            iteration_stats.append(
                IterationStats(
                    index=trace.index,
                    num_active=int(active.size),
                    num_edges=trace.num_edges,
                    scatter_cycles=scatter,
                    apply_cycles=apply,
                    offchip_bytes=offchip,
                    scatter_bottleneck=bottleneck,
                )
            )

        from repro.models.energy import accelerator_power_watts

        power = accelerator_power_watts(
            cfg.num_pes,
            Interconnect.CROSSBAR if cfg.with_crossbar else Interconnect.MESH,
            cfg.clock_mhz,
        ).total_watts

        return SimulationReport(
            accelerator=f"{cfg.name}-{cfg.num_pes}",
            algorithm=program.name,
            graph_name=graph.name,
            num_pes=cfg.num_pes,
            frequency_mhz=cfg.clock_mhz,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            total_edges_traversed=ref.total_edges_traversed,
            total_cycles=total_cycles,
            iterations=iteration_stats,
            properties=ref.properties,
            num_partitions=len(partitions),
            power_watts=power,
            extra={"scatter_compute_cycles": compute_cycle_total},
        )

    # ------------------------------------------------------------------
    # Phase models
    # ------------------------------------------------------------------
    def _scatter_phase(
        self, active: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> PhaseCycles:
        cfg = self.config
        if src.size == 0:
            return PhaseCycles(0, 0, 0, 0, cfg.phase_overhead_cycles)

        # Dynamic edge scheduling spreads edges over all PEs.
        compute = src.size / cfg.num_pes / cfg.dispatch_efficiency

        # Same-partition updates serialise at the crossbar output; the
        # vectorised access path absorbs `vector_width` per cycle.
        conflict = 0.0
        if cfg.with_crossbar:
            mp_loads = np.bincount(dst % cfg.num_pes, minlength=cfg.num_pes)
            conflict = float(mp_loads.max()) / cfg.vector_width

        inter_tile = self._inter_tile_cycles(src, dst)
        memory = self._hbm.stream_cycles(
            src.size * cfg.edge_bytes + active.size * cfg.vertex_bytes
        )
        return PhaseCycles(
            compute=compute,
            noc=inter_tile,
            spd=conflict,
            memory=memory,
            overhead=cfg.phase_overhead_cycles,
        )

    def _apply_load(self, dst: np.ndarray) -> float:
        """Apply's PE bound: the busiest PE's touched-vertex count."""
        cfg = self.config
        touched, _ = unique_id_counts(dst)
        if not touched.size:
            return 0.0
        loads = np.bincount(touched % cfg.num_pes, minlength=cfg.num_pes)
        return float(loads.max())

    def _apply_phase(
        self, load: float, num_updates: int
    ) -> tuple[float, float]:
        cfg = self.config
        writeback = num_updates * cfg.vertex_bytes
        cycles = max(
            load, self._hbm.stream_cycles(writeback)
        ) + cfg.phase_overhead_cycles
        return cycles, float(writeback)

    def _inter_tile_cycles(self, src: np.ndarray, dst: np.ndarray) -> float:
        """Tile-level mesh service for multi-tile designs (GraphDynS-512).

        Source-oriented execution places each edge at its source's home
        tile; updates whose destination lives in another tile cross the
        2x2 mesh, whose per-link width bounds throughput.
        """
        cfg = self.config
        if cfg.num_tiles <= 1:
            return 0.0
        src_tile = (src % cfg.num_pes) // cfg.pes_per_tile
        dst_tile = (dst % cfg.num_pes) // cfg.pes_per_tile
        crossing = int(np.count_nonzero(src_tile != dst_tile))
        link_cycles = crossing * _INTER_TILE_AVG_HOPS / (
            _INTER_TILE_LINKS * cfg.inter_tile_link_updates_per_cycle
        )
        return link_cycles
