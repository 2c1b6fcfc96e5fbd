"""Row-oriented mapping (ROM) — the paper's contribution (Section IV-A).

An edge workload is placed at the PE whose *row* matches the source
vertex's home row and whose *column* matches the destination vertex's
home column (Figure 10d).  The dispatcher broadcasts the source property
along the row, the GU executes Process, and the resulting update routes
*only along its column* to the destination's home row.  Same-row remote
accesses become local, halving SOM's Scatter traffic; Apply stays local
as in SOM, and a single global CSR suffices (minimal off-chip traffic and
no replicas — the best of both prior mappings, Table II).
"""

from __future__ import annotations

import numpy as np

from repro.mapping.base import Mapping, MappingTraffic
from repro.noc.traffic import LinkLoadReport, column_link_loads


class RowOrientedMapping(Mapping):
    """Edges execute at (row of source home, column of destination home)."""

    name = "rom"
    #: Link loads of column-only traffic; the torus variant swaps in the
    #: shortest-ring version.
    column_link_loads = staticmethod(column_link_loads)

    def execution_pe(
        self, edge_src: np.ndarray, edge_dst: np.ndarray
    ) -> np.ndarray:
        src_row = self.topology.rows_of(self.home(edge_src))
        dst_col = self.topology.cols_of(self.home(edge_dst))
        return src_row * self.topology.cols + dst_col

    def link_loads(
        self,
        src_home: np.ndarray,
        dst_home: np.ndarray,
        dst_col: np.ndarray,
        keep: np.ndarray,
    ) -> LinkLoadReport:
        """Surviving updates travel only along their destination column,
        and only when the destination lies in another row: same-row
        accesses became local."""
        topology = self.topology
        src_row = topology.rows_of(src_home)
        dst_row = topology.rows_of(dst_home)
        remote = (src_row != dst_row) & keep
        return self.column_link_loads(
            rows=topology.rows,
            column=dst_col[remote],
            src_row=src_row[remote],
            dst_row=dst_row[remote],
            num_cols=topology.cols,
        )

    def apply_traffic(self, updated_vertices: np.ndarray) -> MappingTraffic:
        # As in SOM: applies are local to the home PE.
        return MappingTraffic(num_messages=0, total_hops=0)

    def average_route_distance(self) -> float:
        """ROM routes only along columns (Section V-C: 5.9-cycle average
        packet latency vs SOM's 15.6 on the 16-row matrix)."""
        return self.topology.average_column_distance()
