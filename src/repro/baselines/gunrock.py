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
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.replay import (
    ModelledSystem,
    PartitionEdges,
    PhaseModel,
    Replay,
    WorkloadIteration,
)
from repro.core.stats import IterationStats, SimulationReport
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.partition import Partition
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


class Gunrock(ModelledSystem):
    """Analytic Gunrock/V100 model producing the same report type."""

    name = "Gunrock"

    def __init__(self, config: Optional[GunrockConfig] = None) -> None:
        self.config = config or GunrockConfig()

    def phase_model(self, graph: CSRGraph) -> PhaseModel:
        """The GPU's per-iteration time over ``graph``, for
        :func:`~repro.core.replay.replay`."""
        return _GunrockModel(self, graph)

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


class _GunrockModel(PhaseModel):
    """One :class:`Gunrock` run, as :func:`~repro.core.replay.replay`
    walks it."""

    def __init__(self, system: Gunrock, graph: CSRGraph) -> None:
        # The GPU's memory holds every vertex: one partition.
        whole = Partition(0, 0, graph.num_vertices)
        super().__init__(system, [whole])
        self.seconds = 0.0

    def frontier(
        self, active: np.ndarray, edges: PartitionEdges
    ) -> Tuple[int, int]:
        """The frontier's edge count and its distinct 32-B sectors."""
        sector_bytes = self.system.config.sector_bytes
        dst = edges.dst
        return dst.size, cachelines_touched(dst * 4, sector_bytes)

    def iteration(
        self,
        index: int,
        step: WorkloadIteration,
        terms: Sequence[Tuple[int, int]],
    ) -> IterationStats:
        ((edges, lines),) = terms
        num_active = step.active_vertices.size
        seconds, traffic = self.system._iteration_seconds(
            num_active, edges, lines, step.num_updates
        )
        self.seconds += seconds
        return IterationStats(
            index=index,
            num_active=num_active,
            num_edges=step.edge_src.size,
            scatter_cycles=seconds * self.system.config.clock_mhz * 1e6,
            apply_cycles=0.0,
            offchip_bytes=traffic,
        )

    def report(self, graph: CSRGraph, run: Replay) -> SimulationReport:
        cfg = self.system.config
        return run.report(
            graph,
            self,
            accelerator="Gunrock-V100",
            num_pes=80 * 64,  # V100: 80 SMs x 64 FP32 lanes
            frequency_mhz=cfg.clock_mhz,
            total_cycles=self.seconds * cfg.clock_mhz * 1e6,
            power_watts=gpu_power_watts(),
        )
