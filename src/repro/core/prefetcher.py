"""Prefetcher model: off-chip traffic accounting (Section III-A).

Each tile's prefetcher module binds vertex and edge prefetchers to HBM
pseudo channels and streams (a) the active-vertex records (vertex ID +
edge memory address) and (b) the associated edge lists.  Because
ScalaGraph keeps vertex properties on-chip, its off-chip traffic per
iteration is the sequential O(N + M) stream of Table II (the mapping
counts a Scatter phase's bytes: :meth:`repro.mapping.Mapping.
offchip_bytes`); the model converts bytes to cycles through
:class:`~repro.memory.hbm.HBMModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.hbm import HBMModel


@dataclass(frozen=True)
class PhaseTraffic:
    """Off-chip bytes moved during one phase."""

    vertex_bytes: float = 0.0
    edge_bytes: float = 0.0
    writeback_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.vertex_bytes + self.edge_bytes + self.writeback_bytes


class Prefetcher:
    """Streams graph data from HBM and accounts the cycles it takes."""

    def __init__(self, hbm: HBMModel, vertex_bytes: int) -> None:
        self.hbm = hbm
        self.vertex_bytes = vertex_bytes

    def apply_traffic(self, num_updates: int) -> PhaseTraffic:
        """Apply phase: write-back of the new active-vertex list."""
        return PhaseTraffic(writeback_bytes=num_updates * self.vertex_bytes)

    def cycles(self, traffic: PhaseTraffic) -> float:
        """Cycles the stream occupies the HBM channels.

        Prefetching hides latency in steady state (explicit prefetching,
        Section III-A), so only bandwidth occupancy is charged; the
        first-access latency is part of the per-phase overhead constant.
        """
        return self.hbm.stream_cycles(traffic.total_bytes)
