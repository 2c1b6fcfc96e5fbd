"""Row-oriented mapping on a 2D torus (future-work NoC exploration).

Identical workload placement to :class:`RowOrientedMapping`, but updates
route the *shorter way around* vertical rings, roughly halving column
hop distances.  Used by the NoC-choice ablation bench; Section III-A
leaves "determining the most appropriate NoC" as future work.
"""

from __future__ import annotations

import numpy as np

from repro.mapping.base import MappingTraffic
from repro.mapping.row_oriented import RowOrientedMapping
from repro.noc.torus import TorusTopology, torus_column_link_loads


class RowOrientedTorusMapping(RowOrientedMapping):
    """ROM placement with shortest-ring column routing."""

    name = "rom-torus"

    def scatter_traffic(
        self, edge_src: np.ndarray, edge_dst: np.ndarray
    ) -> MappingTraffic:
        src_home = self.home(edge_src)
        dst_home = self.home(edge_dst)
        src_row = self.topology.rows_of(src_home)
        dst_row = self.topology.rows_of(dst_home)
        dst_col = self.topology.cols_of(dst_home)
        remote = src_row != dst_row
        report = torus_column_link_loads(
            rows=self.topology.rows,
            column=dst_col[remote],
            src_row=src_row[remote],
            dst_row=dst_row[remote],
            num_cols=self.topology.cols,
        )
        return MappingTraffic(
            num_messages=int(np.count_nonzero(remote)),
            total_hops=report.total_flit_hops,
            link_report=report,
        )

    def average_route_distance(self) -> float:
        return self.as_torus().average_column_distance()

    def as_torus(self) -> TorusTopology:
        """The torus view of this mapping's PE matrix."""
        return TorusTopology(self.topology.rows, self.topology.cols)
