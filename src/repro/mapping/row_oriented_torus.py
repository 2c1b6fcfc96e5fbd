"""Row-oriented mapping on a 2D torus (future-work NoC exploration).

Identical workload placement to :class:`RowOrientedMapping`, but updates
route the *shorter way around* vertical rings, roughly halving column
hop distances.  Used by the NoC-choice ablation bench; Section III-A
leaves "determining the most appropriate NoC" as future work.
"""

from __future__ import annotations

from repro.mapping.row_oriented import RowOrientedMapping
from repro.models.frequency import Interconnect
from repro.noc.torus import TorusTopology, torus_column_link_loads


class RowOrientedTorusMapping(RowOrientedMapping):
    """ROM placement with shortest-ring column routing."""

    name = "rom-torus"
    interconnect = Interconnect.TORUS
    column_link_loads = staticmethod(torus_column_link_loads)

    def average_route_distance(self) -> float:
        return self.as_torus().average_column_distance()

    def as_torus(self) -> TorusTopology:
        """The torus view of this mapping's PE matrix."""
        return TorusTopology(self.topology.rows, self.topology.cols)
