"""Graphicionado-style interval partitioning.

Section III-A: *"To process a large graph whose vertex properties cannot
reside in the SPDs entirely, ScalaGraph slices a graph as in Graphicionado,
and processes all partitions in a round-robin manner."*

A partition owns a contiguous destination-vertex interval; within a Scatter
pass over partition ``p`` only edges whose destination falls inside the
interval are processed, so the destination properties of the whole
partition fit in on-chip scratchpad.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class Partition:
    """One destination-vertex interval of a sliced graph.

    Attributes:
        index: partition position in round-robin order.
        lo: first destination vertex ID (inclusive).
        hi: last destination vertex ID (exclusive).
        edge_mask_count: number of edges whose destination lies inside.
    """

    index: int
    lo: int
    hi: int
    edge_mask_count: int

    @property
    def num_vertices(self) -> int:
        return self.hi - self.lo

    def mask(self, destinations: np.ndarray) -> np.ndarray:
        """Boolean mask selecting edges destined inside this partition."""
        return (destinations >= self.lo) & (destinations < self.hi)


def num_partitions_for(
    num_vertices: int, spd_capacity_vertices: int
) -> int:
    """Partitions needed so each interval's properties fit on-chip."""
    if spd_capacity_vertices <= 0:
        raise ConfigurationError("SPD capacity must be positive")
    if num_vertices == 0:
        return 1
    return -(-num_vertices // spd_capacity_vertices)  # ceil division


def slice_intervals(
    graph: CSRGraph, spd_capacity_vertices: int
) -> List[Partition]:
    """Slice ``graph`` into destination-vertex intervals.

    Args:
        graph: the input graph.
        spd_capacity_vertices: how many vertex properties the aggregate
            scratchpad can hold at once.

    Returns:
        Partitions in round-robin processing order.  A graph that fits
        entirely on-chip yields a single partition covering all vertices.
    """
    count = num_partitions_for(graph.num_vertices, spd_capacity_vertices)
    bounds = np.linspace(0, graph.num_vertices, count + 1).astype(np.int64)
    partitions = []
    for i in range(count):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        edges_in = int(
            np.count_nonzero((graph.indices >= lo) & (graph.indices < hi))
        )
        partitions.append(
            Partition(index=i, lo=lo, hi=hi, edge_mask_count=edges_in)
        )
    return partitions
