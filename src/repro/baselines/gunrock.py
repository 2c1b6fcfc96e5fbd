"""Gunrock-on-V100 baseline (Wang et al., PPoPP 2016).

The paper runs Gunrock on an NVIDIA V100 (32 GB HBM2, 900 GB/s).  Its
deficits relative to ScalaGraph come from two mechanisms the paper
quantifies (Section V-B):

* **off-chip amplification** — random vertex accesses fetch 32-byte
  sectors to use 4-8 bytes; ScalaGraph 'reduces 52.2% memory accesses on
  average';
* **atomic stalls** — concurrent same-vertex updates 'often take more
  than 15% execution time of GPU-based graph systems'.

The model charges per-iteration bytes (frontier + CSR + amplified random
vertex traffic) against the achievable bandwidth, inflates by the atomic
stall factor, and adds a per-iteration kernel-launch overhead (which is
what erodes Gunrock's BFS performance on high-diameter frontiers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algorithms.base import VertexProgram
from repro.algorithms.reference import (
    ReferenceResult,
    gather_frontier_edges,
    repeats_previous,
    run_reference,
)
from repro.core.stats import IterationStats, SimulationReport
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.memory.request import cachelines_touched
from repro.models.energy import gpu_power_watts

GB = 1_000_000_000


@dataclass(frozen=True)
class GunrockConfig:
    """V100 execution parameters.

    Attributes:
        peak_bandwidth_gbs: HBM2 peak (V100: 900).
        bandwidth_efficiency: achieved fraction under irregular access.
        sector_bytes: memory transaction granularity (32-byte sectors).
        l2_hit_rate: fraction of random vertex reads served on-chip.
        atomic_stall_factor: execution-time inflation from atomics.
        kernel_launch_us: per-iteration launch + frontier compaction.
        sm_throughput_gteps: compute roofline in traversed edges/s.
        clock_mhz: boost clock, used only to express time in cycles.
    """

    peak_bandwidth_gbs: float = 900.0
    bandwidth_efficiency: float = 0.70
    sector_bytes: int = 32
    l2_hit_rate: float = 0.50
    atomic_stall_factor: float = 1.15
    kernel_launch_us: float = 1.0
    sm_throughput_gteps: float = 150.0
    clock_mhz: float = 1380.0

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth_efficiency <= 1:
            raise ConfigurationError("bandwidth_efficiency must be in (0, 1]")
        if not 0 <= self.l2_hit_rate <= 1:
            raise ConfigurationError("l2_hit_rate must be in [0, 1]")
        if self.atomic_stall_factor < 1:
            raise ConfigurationError("atomic_stall_factor must be >= 1")

    @property
    def achieved_bandwidth_bytes_per_s(self) -> float:
        return self.peak_bandwidth_gbs * GB * self.bandwidth_efficiency


class Gunrock:
    """Analytic Gunrock/V100 model producing the same report type."""

    name = "Gunrock"

    def __init__(self, config: Optional[GunrockConfig] = None) -> None:
        self.config = config or GunrockConfig()

    def run(
        self,
        program: VertexProgram,
        graph: CSRGraph,
        max_iterations: Optional[int] = None,
        reference: Optional[ReferenceResult] = None,
    ) -> SimulationReport:
        cfg = self.config
        ref = reference or run_reference(program, graph, max_iterations)

        iteration_stats: list[IterationStats] = []
        total_seconds = 0.0
        previous = None
        for trace in ref.iterations:
            active = trace.active_vertices
            if not repeats_previous(previous, (active,)):
                _, dst, _ = gather_frontier_edges(graph, active)
                num_edges = int(dst.size)
                lines = cachelines_touched(dst * 4, cfg.sector_bytes)
            previous = (active,)
            seconds, traffic = self._iteration_seconds(
                int(active.size), num_edges, lines, trace.num_updates
            )
            total_seconds += seconds
            iteration_stats.append(
                IterationStats(
                    index=trace.index,
                    num_active=int(trace.active_vertices.size),
                    num_edges=trace.num_edges,
                    scatter_cycles=seconds * cfg.clock_mhz * 1e6,
                    apply_cycles=0.0,
                    offchip_bytes=traffic,
                )
            )

        total_cycles = total_seconds * cfg.clock_mhz * 1e6
        return SimulationReport(
            accelerator="Gunrock-V100",
            algorithm=program.name,
            graph_name=graph.name,
            num_pes=80 * 64,  # V100: 80 SMs x 64 FP32 lanes
            frequency_mhz=cfg.clock_mhz,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            total_edges_traversed=ref.total_edges_traversed,
            total_cycles=total_cycles,
            iterations=iteration_stats,
            properties=ref.properties,
            power_watts=gpu_power_watts(),
        )

    # ------------------------------------------------------------------
    # Per-iteration time
    # ------------------------------------------------------------------
    def _iteration_seconds(
        self,
        num_active: int,
        num_edges: int,
        lines: int,
        num_updates: int,
    ) -> tuple[float, float]:
        cfg = self.config

        # Streaming traffic: frontier (8 B/vertex) + CSR edges (8 B/edge:
        # column index + offsets/weights).
        streamed = num_active * 8.0 + num_edges * 8.0
        # Random destination-vertex traffic: one sector per miss; the
        # frontier's distinct `lines` give a cheap lower bound on reuse,
        # the hit rate models L2.
        misses = lines + (num_edges - lines) * (1.0 - cfg.l2_hit_rate)
        random_bytes = misses * cfg.sector_bytes
        writeback = num_updates * 8.0
        total_bytes = streamed + random_bytes + writeback

        memory_s = total_bytes / cfg.achieved_bandwidth_bytes_per_s
        compute_s = num_edges / (cfg.sm_throughput_gteps * 1e9)
        body_s = max(memory_s, compute_s) * cfg.atomic_stall_factor
        return body_s + cfg.kernel_launch_us * 1e-6, total_bytes
