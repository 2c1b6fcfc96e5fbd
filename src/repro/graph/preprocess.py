"""Degree-aware edge-lane preprocessing (Section IV-C, hardware impl.).

Dispatching the edge workloads of multiple vertices in one cycle would
need a full 16x16 connection between the 64-byte input line and a row of
PEs.  ScalaGraph avoids that hardware by *pre-processing the edge data*:
the edge layout of each vertex is reordered so that an edge's position
within a cacheline equals the column index of the PE it must be
dispatched to.  Given ``K`` PEs per row, the preprocessing keeps ``K``
FIFOs per vertex, pushes each edge into FIFO ``hash(dst) % K``, and emits
the new edge list by visiting the FIFOs round-robin.  Complexity is
O(|E|), the same as edge-list-to-CSR conversion.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.util import grouped_arange


def default_lane_hash(dst: np.ndarray, lanes: int) -> np.ndarray:
    """The simple vertex-ID hash used to spread destinations over PEs."""
    return np.asarray(dst) % lanes


def lane_reorder(
    graph: CSRGraph,
    lanes: int = 16,
    lane_hash: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
) -> CSRGraph:
    """Reorder each vertex's edge list into round-robin lane order.

    After reordering, consecutive edges of a vertex cycle through lanes
    ``0, 1, ..., lanes-1`` as far as the per-lane supply allows, so a
    64-byte line of edges maps positionally onto a row of PEs.

    Args:
        graph: input CSR graph.
        lanes: PEs per row (16 in the paper's configuration).
        lane_hash: destination-to-lane hash; defaults to ``dst % lanes``.

    Returns:
        A new :class:`CSRGraph` with identical structure but lane-ordered
        per-vertex edge lists (weights are carried along).
    """
    if lanes <= 0:
        raise ConfigurationError("lanes must be positive")
    if graph.num_edges == 0:
        return graph
    hash_fn = lane_hash or default_lane_hash

    src = graph.edge_sources()
    lane = hash_fn(graph.indices, lanes).astype(np.int64)
    if lane.size and (lane.min() < 0 or lane.max() >= lanes):
        raise ConfigurationError("lane_hash produced out-of-range lanes")

    # Round-robin merge of K FIFOs == sort edges of each vertex by
    # (occurrence index within its lane FIFO, lane).  Both keys are
    # computed vectorised with a grouped cumulative count.
    order = np.lexsort((lane, src))  # group by vertex, then lane
    sorted_src = src[order]
    sorted_lane = lane[order]
    # Position of each edge inside its (vertex, lane) FIFO.
    group_key = sorted_src * lanes + sorted_lane
    fifo_pos = grouped_arange(group_key)
    # Emit order within each vertex: round r visits lanes in index order.
    emit_rank = fifo_pos * lanes + sorted_lane
    final = np.lexsort((emit_rank, sorted_src))
    new_order = order[final]

    new_indices = graph.indices[new_order]
    new_weights = graph.weights[new_order] if graph.weights is not None else None
    return CSRGraph(
        indptr=graph.indptr,
        indices=new_indices,
        weights=new_weights,
        name=graph.name,
    )
