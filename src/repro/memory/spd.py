"""Scratchpad (SPD) capacity model.

ScalaGraph's on-chip memory is a 6 MB BRAM scratchpad evenly sliced across
all PEs (Sections III-A, V-A); vertex properties are distributed over the
slices by a simple vertex-ID hash.  The models read only its capacity,
which sets how many graph partitions a run needs
(:func:`~repro.graph.partition.slice_intervals`).  Each slice has one
port, so reduces landing on the same slice serialise: the analytic
model's SPD bound charges one reduce per slice per cycle, and both cycle
engines retire one reduce per slice per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

MB = 1 << 20


@dataclass(frozen=True)
class ScratchpadConfig:
    """Aggregate scratchpad parameters.

    Attributes:
        total_bytes: BRAM dedicated to vertex properties (paper: 6 MB).
        bytes_per_vertex: property footprint per vertex (value + flags).
    """

    total_bytes: int = 6 * MB
    bytes_per_vertex: int = 8

    def __post_init__(self) -> None:
        if self.total_bytes <= 0 or self.bytes_per_vertex <= 0:
            raise ConfigurationError("scratchpad sizes must be positive")

    @property
    def capacity_vertices(self) -> int:
        """Vertex properties the whole scratchpad holds at once."""
        return self.total_bytes // self.bytes_per_vertex
