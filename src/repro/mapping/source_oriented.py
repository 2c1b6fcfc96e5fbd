"""Source-oriented mapping (SOM) — the prior-accelerator default.

All workloads of a source vertex execute at the PE owning its property
(Figure 10b).  Destination vertices are generally remote, so every edge's
update is routed across both mesh dimensions: O(M * sqrt(K)) Scatter
traffic.  Apply is free of NoC traffic because every property is local.
"""

from __future__ import annotations

import numpy as np

from repro.mapping.base import Mapping, MappingTraffic
from repro.noc.traffic import LinkLoadReport, mesh_link_loads


class SourceOrientedMapping(Mapping):
    """Edges execute at the source vertex's home PE."""

    name = "som"
    #: Updates to one vertex converge only on the destination column's
    #: final segment, so the register arrays see them later than under
    #: ROM.
    aggregation_effectiveness = 0.5

    def execution_pe(
        self, edge_src: np.ndarray, edge_dst: np.ndarray
    ) -> np.ndarray:
        return self.home(edge_src)

    def link_loads(
        self,
        src_home: np.ndarray,
        dst_home: np.ndarray,
        dst_col: np.ndarray,
        keep: np.ndarray,
    ) -> LinkLoadReport:
        """Every remote update crosses its source row, since aggregation
        merges only in the destination column; the survivors alone
        continue along the column."""
        topology = self.topology
        remote = src_home != dst_home
        full = mesh_link_loads(topology, src_home[remote], dst_home[remote])
        kept = remote & keep
        survivors = mesh_link_loads(topology, src_home[kept], dst_home[kept])
        hops = (
            full.east.sum()
            + full.west.sum()
            + survivors.south.sum()
            + survivors.north.sum()
        )
        return LinkLoadReport(
            east=full.east,
            west=full.west,
            south=survivors.south,
            north=survivors.north,
            total_flit_hops=int(hops),
            num_packets=full.num_packets,
        )

    def apply_traffic(self, updated_vertices: np.ndarray) -> MappingTraffic:
        # Properties are applied in place at their home PE; the new active
        # list is written back off-chip (O(N)), with no NoC routing.
        return MappingTraffic(num_messages=0, total_hops=0)
