"""Vectorised NoC service model for one Scatter/Apply phase.

The timing model never routes individual packets at scale; it computes
(1) exactly which updates the aggregation pipelines coalesce away — an
update dies when the previous update to the same vertex is still
resident in the register window of its column stream (Section IV-B) —
(2) the per-link loads of the *surviving* updates under the active
mapping (Section IV-A), and (3) the service-time bound from the busiest
directed link and the busiest SPD slice.

The cycle-level :mod:`repro.noc.mesh` simulator and the register-array
:class:`~repro.noc.aggregation.AggregationPipeline` validate this model
on small instances (see the integration tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mapping.base import Mapping
from repro.mapping.destination_oriented import DestinationOrientedMapping
from repro.mapping.row_oriented import RowOrientedMapping
from repro.mapping.row_oriented_torus import RowOrientedTorusMapping
from repro.noc.topology import MeshTopology
from repro.noc.torus import torus_column_link_loads
from repro.noc.traffic import column_link_loads, mesh_link_loads

#: How much of the ideal window coalescing SOM retains: under SOM the
#: updates to one vertex converge only on the destination column's final
#: segment, so the register arrays see them later than under ROM.
SOM_AGGREGATION_EFFECTIVENESS = 0.5


@dataclass(frozen=True)
class ScatterNocStats:
    """NoC accounting of one Scatter phase.

    Attributes:
        messages: surviving updates injected into the NoC (remote
            destinations, after aggregation).
        total_hops: link traversals of the surviving updates.
        coalesced: updates eliminated by the aggregation pipelines.
        service_cycles: busiest-link load in updates.
        spd_service_cycles: busiest SPD slice's surviving reduce count.
    """

    messages: int
    total_hops: float
    coalesced: int
    service_cycles: float
    spd_service_cycles: float


def survivor_mask(
    edge_dst: np.ndarray,
    dst_col: np.ndarray,
    window: float,
) -> np.ndarray:
    """Which updates survive window-coalescing in their column stream.

    An update is coalesced into a resident predecessor when the previous
    update to the same destination vertex lies at most ``window``
    positions earlier within the same column's stream; the first
    occurrence (and any occurrence after a longer gap) survives.  This is
    the statistical counterpart of the Figure 11 register array, with
    ``window`` proportional to the register count.

    Window semantics for fractional windows (which arise when a caller
    scales an integer register window by an effectiveness factor, e.g.
    :data:`SOM_AGGREGATION_EFFECTIVENESS`) are **floor**: the register
    window holds a whole number of slots, so ``window`` is floored
    before use.  Positional gaps are integers, hence ``window=1.5``
    behaves exactly like ``window=1.0``, and any ``window < 1``
    (``0.5`` floors to ``0``) disables coalescing entirely — no update
    can be resident for a fraction of a slot.

    The grouping takes one sort.  A stable (radix) argsort of the column
    index in its narrowest dtype lines each column's stream up in order;
    update ``i`` of that column order then gets the packed int64 key
    ``(col * (V + 1) + dst) * n + i``, with ``V`` the largest vertex id.
    Sorting the keys puts each (column, vertex) pair's occurrences next
    to each other in stream order, and the gap between two of them is
    the difference of their keys' low digits ``i`` (positions within
    one column differ by the same amount as positions in column order).
    The largest key is ``(max col + 1) * (V + 1) * n - 1``, so ids must
    be non-negative and that product at most ``2**63``; other inputs
    raise :class:`ValueError` rather than wrap around.
    """
    n = int(edge_dst.size)
    mask = np.ones(n, dtype=bool)
    window = math.floor(window)
    if n == 0 or window < 1:
        return mask
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    dst_col = np.asarray(dst_col, dtype=np.int64)
    if min(int(edge_dst.min()), int(dst_col.min())) < 0:
        raise ValueError("survivor_mask: vertex and column ids must be >= 0")
    span = int(edge_dst.max()) + 1
    max_col = int(dst_col.max())
    if (max_col + 1) * span * n > 2**63:
        raise ValueError(
            f"survivor_mask: {n} updates over {span} vertices and "
            f"{max_col + 1} columns overflow the int64 sort key"
        )
    col_order = np.argsort(
        dst_col.astype(np.min_scalar_type(max_col)), kind="stable"
    )
    key = dst_col[col_order] * span
    key += edge_dst[col_order]
    key *= n
    key += np.arange(n, dtype=np.int64)
    key.sort()
    group, pos = np.divmod(key, n)
    survives = np.ones(n, dtype=bool)
    survives[1:] = (group[1:] != group[:-1]) | (pos[1:] - pos[:-1] > window)
    mask[col_order[pos]] = survives
    return mask


def scatter_noc_stats(
    mapping: Mapping,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    aggregation_window: float,
    spd_forwarding_window: float = 0.0,
) -> ScatterNocStats:
    """NoC statistics of routing one Scatter phase's updates.

    ``spd_forwarding_window`` models the SPD port's read-modify-write
    forwarding registers: back-to-back same-vertex reduces are absorbed
    there even without the aggregation pipeline, so the SPD service
    bound uses ``max(aggregation_window, spd_forwarding_window)``.
    """
    topology = mapping.topology
    edge_src = np.asarray(edge_src, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    if edge_src.size == 0:
        return ScatterNocStats(0, 0.0, 0, 0.0, 0.0)

    dst_home = mapping.home(edge_dst)

    if isinstance(mapping, DestinationOrientedMapping):
        # Source replicas make every Scatter access local; same-vertex
        # reduces serialise at the owning PE but need no aggregation
        # hardware (they are already grouped per partition).
        spd = _max_load(dst_home, topology.num_nodes)
        return ScatterNocStats(0, 0.0, 0, 0.0, spd)

    src_home = mapping.home(edge_src)
    dst_col = topology.cols_of(dst_home)

    effectiveness = 1.0
    if not isinstance(mapping, RowOrientedMapping):
        effectiveness = SOM_AGGREGATION_EFFECTIVENESS
    keep = survivor_mask(edge_dst, dst_col, aggregation_window * effectiveness)
    coalesced = int(edge_dst.size - np.count_nonzero(keep))

    spd_window = max(aggregation_window * effectiveness, spd_forwarding_window)
    if spd_window > aggregation_window * effectiveness:
        spd_keep = survivor_mask(edge_dst, dst_col, spd_window)
    else:
        spd_keep = keep
    spd = _max_load(dst_home[spd_keep], topology.num_nodes)

    if isinstance(mapping, RowOrientedMapping):
        src_row = topology.rows_of(src_home)
        dst_row = topology.rows_of(dst_home)
        remote = (src_row != dst_row) & keep
        loads_fn = (
            torus_column_link_loads
            if isinstance(mapping, RowOrientedTorusMapping)
            else column_link_loads
        )
        report = loads_fn(
            rows=topology.rows,
            column=dst_col[remote],
            src_row=src_row[remote],
            dst_row=dst_row[remote],
            num_cols=topology.cols,
        )
        return ScatterNocStats(
            messages=int(np.count_nonzero(remote)),
            total_hops=float(report.total_flit_hops),
            coalesced=coalesced,
            service_cycles=float(report.max_link_load),
            spd_service_cycles=spd,
        )

    # Source-oriented: updates traverse their source row horizontally
    # before turning into the destination column, so only the vertical
    # segment benefits from aggregation.
    remote = src_home != dst_home
    full = mesh_link_loads(topology, src_home[remote], dst_home[remote])
    kept = remote & keep
    survivors = mesh_link_loads(topology, src_home[kept], dst_home[kept])
    max_link = max(
        full.east.max() if full.east.size else 0,
        full.west.max() if full.west.size else 0,
        survivors.south.max() if survivors.south.size else 0,
        survivors.north.max() if survivors.north.size else 0,
    )
    hops = float(
        full.east.sum()
        + full.west.sum()
        + survivors.south.sum()
        + survivors.north.sum()
    )
    return ScatterNocStats(
        messages=int(np.count_nonzero(remote)),
        total_hops=hops,
        coalesced=coalesced,
        service_cycles=float(max_link),
        spd_service_cycles=spd,
    )


def apply_noc_service_cycles(
    mapping: Mapping, num_updates: int
) -> float:
    """Apply-phase NoC service bound.

    Zero for SOM/ROM (properties are local).  DOM floods each update to
    every PE's replica: each PE must ingest all ``num_updates`` writes
    (one per cycle), and the flood traffic also occupies links.
    """
    if not isinstance(mapping, DestinationOrientedMapping):
        return 0.0
    if num_updates <= 0:
        return 0.0
    topology = mapping.topology
    hops = num_updates * max(mapping.num_pes - 1, 0)
    ingest_bound = float(num_updates)  # every replica store writes them all
    link_bound = hops / max(_num_directed_links(topology), 1)
    return max(ingest_bound, link_bound)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _max_load(nodes: np.ndarray, num_nodes: int) -> float:
    if nodes.size == 0:
        return 0.0
    return float(np.bincount(nodes, minlength=num_nodes).max())


def _num_directed_links(topology: MeshTopology) -> int:
    horizontal = topology.rows * (topology.cols - 1) * 2
    vertical = topology.cols * (topology.rows - 1) * 2
    return horizontal + vertical
