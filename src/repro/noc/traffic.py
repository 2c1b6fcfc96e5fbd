"""Vectorised NoC traffic accounting: hop counts and link loads.

The at-scale timing model does not push millions of packets through the
cycle-level mesh; instead it computes, per Scatter phase, the exact load
each directed mesh link would carry under XY routing, and bounds the NoC
service time by the busiest link (plus the pipeline fill latency).  The
cycle-level :class:`~repro.noc.mesh.MeshNetwork` validates this model on
small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.noc.topology import MeshTopology


@dataclass(frozen=True)
class LinkLoadReport:
    """Per-direction link loads of one traffic batch on a mesh.

    Attributes:
        east/west: ``(rows, cols-1)`` loads of horizontal links; entry
            ``[r, c]`` is the directed link between columns c and c+1.
        south/north: ``(rows-1, cols)`` loads of vertical links; entry
            ``[r, c]`` is the directed link between rows r and r+1.
        total_flit_hops: total link traversals (the paper's "amount of
            traffic injected into the on-chip network").
        num_packets: packets accounted.
    """

    east: np.ndarray
    west: np.ndarray
    south: np.ndarray
    north: np.ndarray
    total_flit_hops: int
    num_packets: int

    @property
    def max_link_load(self) -> int:
        """Load of the busiest directed link — the service-time bound."""
        candidates = [
            arr.max() if arr.size else 0
            for arr in (self.east, self.west, self.south, self.north)
        ]
        return int(max(candidates))

    @property
    def average_hops(self) -> float:
        return (
            self.total_flit_hops / self.num_packets if self.num_packets else 0.0
        )


def xy_hop_counts(
    topology: MeshTopology, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Per-packet hop counts under XY routing (Manhattan distance)."""
    src = np.asarray(src)
    dst = np.asarray(dst)
    dr = np.abs(topology.rows_of(src) - topology.rows_of(dst))
    dc = np.abs(topology.cols_of(src) - topology.cols_of(dst))
    return dr + dc


def mesh_link_loads(
    topology: MeshTopology, src: np.ndarray, dst: np.ndarray
) -> LinkLoadReport:
    """Exact directed link loads of a packet batch under XY routing.

    XY (X-then-Y) routing sends each packet horizontally along its source
    row, then vertically along its destination column.  Loads are computed
    with difference arrays, O(P + links).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ConfigurationError("src/dst must align")
    rows, cols = topology.rows, topology.cols
    sr, sc = src // cols, src % cols
    dr, dc = dst // cols, dst % cols

    east = _range_loads(sr[dc > sc], sc[dc > sc], dc[dc > sc], rows, cols - 1)
    west = _range_loads(sr[dc < sc], dc[dc < sc], sc[dc < sc], rows, cols - 1)
    # Vertical segments run along the destination column.
    south = _range_loads(
        dc[dr > sr], sr[dr > sr], dr[dr > sr], cols, rows - 1
    ).T.copy() if rows > 1 else np.zeros((0, cols), dtype=np.int64)
    north = _range_loads(
        dc[dr < sr], dr[dr < sr], sr[dr < sr], cols, rows - 1
    ).T.copy() if rows > 1 else np.zeros((0, cols), dtype=np.int64)

    total = int(east.sum() + west.sum() + south.sum() + north.sum())
    return LinkLoadReport(
        east=east,
        west=west,
        south=south,
        north=north,
        total_flit_hops=total,
        num_packets=int(src.size),
    )


def column_link_loads(
    rows: int,
    column: np.ndarray,
    src_row: np.ndarray,
    dst_row: np.ndarray,
    num_cols: int,
) -> LinkLoadReport:
    """Link loads for column-only traffic (the row-oriented mapping).

    Under ROM all inter-PE communication stays within a column
    (Section IV-A), so only vertical links carry load.
    """
    column = np.asarray(column, dtype=np.int64)
    src_row = np.asarray(src_row, dtype=np.int64)
    dst_row = np.asarray(dst_row, dtype=np.int64)
    down = dst_row > src_row
    up = dst_row < src_row
    south = (
        _range_loads(column[down], src_row[down], dst_row[down], num_cols, rows - 1)
        .T.copy()
        if rows > 1
        else np.zeros((0, num_cols), dtype=np.int64)
    )
    north = (
        _range_loads(column[up], dst_row[up], src_row[up], num_cols, rows - 1)
        .T.copy()
        if rows > 1
        else np.zeros((0, num_cols), dtype=np.int64)
    )
    total = int(south.sum() + north.sum())
    return LinkLoadReport(
        east=np.zeros((rows, max(num_cols - 1, 0)), dtype=np.int64),
        west=np.zeros((rows, max(num_cols - 1, 0)), dtype=np.int64),
        south=south,
        north=north,
        total_flit_hops=total,
        num_packets=int(column.size),
    )


def _range_loads(
    lane: np.ndarray,
    start: np.ndarray,
    stop: np.ndarray,
    num_lanes: int,
    num_links: int,
) -> np.ndarray:
    """Sum of half-open index ranges [start, stop) per lane.

    Returns an ``(num_lanes, num_links)`` array where entry ``[l, k]``
    counts ranges on lane ``l`` covering link ``k`` (the link between
    positions k and k+1).  One ``np.bincount`` counts the range starts
    into a first block and the stops into a second; their difference is
    the difference array, whose running sum along each lane is the load.
    """
    width = num_links + 1
    cells = num_lanes * width
    if not lane.size:
        return np.zeros((num_lanes, num_links), dtype=np.int64)
    row = lane * width
    counts = np.bincount(
        np.concatenate((row + start, row + stop + cells)), minlength=2 * cells
    ).reshape(2, num_lanes, width)
    loads = counts[0] - counts[1]
    np.cumsum(loads, axis=1, out=loads)
    return loads[:, :num_links]
