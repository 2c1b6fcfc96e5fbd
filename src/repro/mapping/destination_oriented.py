"""Destination-oriented mapping (DOM) — the HMC-accelerator approach.

Edges are partitioned by destination vertex, and every PE keeps a replica
of all source vertex properties it may read (Figure 10c).  Scatter then
runs entirely locally, but every newly-activated vertex must refresh its
replica in all K PEs during Apply — O(N * K) traffic and O(N * K) extra
storage, plus per-partition CSR structures off-chip (O(N * K + M)).
"""

from __future__ import annotations

import numpy as np

from repro.mapping.base import Mapping, MappingTraffic


class DestinationOrientedMapping(Mapping):
    """Edges execute at the destination vertex's home PE; sources are
    read from local replicas."""

    name = "dom"

    def execution_pe(
        self, edge_src: np.ndarray, edge_dst: np.ndarray
    ) -> np.ndarray:
        return self.home(edge_dst)

    def dispatch_group(
        self, edge_src: np.ndarray, edge_dst: np.ndarray
    ) -> np.ndarray:
        """The per-partition CSR groups edges by destination."""
        return edge_dst

    def scatter_traffic(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        window: float = 0.0,
        spd_forwarding_window: float = 0.0,
    ) -> MappingTraffic:
        """Source replicas and the destination property are both local,
        so nothing is routed or coalesced; same-vertex reduces serialise
        at the owning PE but need no aggregation hardware (they are
        already grouped per partition)."""
        return MappingTraffic(
            num_messages=0,
            total_hops=0,
            spd_load=self._busiest_pe_load(self.home(edge_dst)),
        )

    def apply_traffic(self, updated_vertices: np.ndarray) -> MappingTraffic:
        """Replica refresh: each updated vertex reaches all other PEs.

        The update is flooded along a mesh spanning tree, so K - 1 link
        traversals deliver the K - 1 remote replicas of one vertex.
        """
        count = int(np.asarray(updated_vertices).size)
        k = self.num_pes
        return MappingTraffic(
            num_messages=count * max(k - 1, 0),
            total_hops=count * max(k - 1, 0),
        )

    def apply_service_cycles(self, num_updates: int) -> float:
        """Every PE ingests all ``num_updates`` replica writes (one per
        cycle), and the flood's K - 1 hops per update also occupy the
        mesh links."""
        if num_updates <= 0:
            return 0.0
        rows, cols = self.topology.rows, self.topology.cols
        links = 2 * (rows * (cols - 1) + cols * (rows - 1))
        hops = num_updates * max(self.num_pes - 1, 0)
        return max(float(num_updates), hops / max(links, 1))

    def offchip_bytes(
        self,
        num_active_vertices: int,
        num_active_edges: int,
        vertex_bytes: int = 8,
        edge_bytes: int = 4,
    ) -> int:
        """O(N * K + M): every partition maintains a private CSR whose
        vertex-side structures are re-streamed per iteration."""
        return (
            num_active_vertices * self.num_pes * vertex_bytes
            + num_active_edges * edge_bytes
        )

    def average_route_distance(self) -> float:
        """Scatter accesses are all local under DOM."""
        return 0.0

    def replica_storage_vertices(self, num_vertices: int) -> int:
        """One replica of every source vertex in every PE.

        Section V-C notes this 'significantly exceeds the BRAM capacity of
        the FPGA used' — the accelerator model raises
        :class:`~repro.errors.CapacityError` when it does.
        """
        return num_vertices * self.num_pes
