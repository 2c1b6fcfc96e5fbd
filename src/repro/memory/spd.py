"""Scratchpad (SPD) slice model.

ScalaGraph's on-chip memory is a 6 MB BRAM scratchpad evenly sliced across
all PEs (Sections III-A, V-A); vertex properties are distributed over the
slices by a simple vertex-ID hash.  The model tracks slice capacity (which
determines how many graph partitions a run needs) and the single-port
serialisation of reduces landing on the same slice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapacityError, ConfigurationError

MB = 1 << 20


@dataclass(frozen=True)
class ScratchpadConfig:
    """Aggregate scratchpad parameters.

    Attributes:
        total_bytes: BRAM dedicated to vertex properties (paper: 6 MB).
        bytes_per_vertex: property footprint per vertex (value + flags).
        ports_per_slice: reduces a slice can serve per cycle (1 in the
            paper's design: conflicting updates serialise, which the
            aggregation pipeline mitigates).
    """

    total_bytes: int = 6 * MB
    bytes_per_vertex: int = 8
    ports_per_slice: int = 1

    def __post_init__(self) -> None:
        if self.total_bytes <= 0 or self.bytes_per_vertex <= 0:
            raise ConfigurationError("scratchpad sizes must be positive")
        if self.ports_per_slice <= 0:
            raise ConfigurationError("ports_per_slice must be positive")

    @property
    def capacity_vertices(self) -> int:
        """Vertex properties the whole scratchpad holds at once."""
        return self.total_bytes // self.bytes_per_vertex

    def slice_bytes(self, num_pes: int) -> int:
        """Bytes of one PE's slice when evenly divided."""
        if num_pes <= 0:
            raise ConfigurationError("num_pes must be positive")
        return self.total_bytes // num_pes

    def slice_capacity_vertices(self, num_pes: int) -> int:
        return self.slice_bytes(num_pes) // self.bytes_per_vertex


class ScratchpadSlice:
    """One PE's slice: bounded associative store of vertex properties."""

    def __init__(self, config: ScratchpadConfig, num_pes: int) -> None:
        self.config = config
        self.capacity = config.slice_capacity_vertices(num_pes)
        self._store: dict[int, float] = {}
        self.reduce_count = 0

    def __len__(self) -> int:
        return len(self._store)

    def load(self, vertex: int, value: float) -> None:
        """Place a vertex property in the slice (partition load)."""
        if vertex not in self._store and len(self._store) >= self.capacity:
            raise CapacityError(
                f"SPD slice full ({self.capacity} vertices)"
            )
        self._store[vertex] = value

    def read(self, vertex: int) -> float:
        if vertex not in self._store:
            raise CapacityError(f"vertex {vertex} not resident in slice")
        return self._store[vertex]

    def reduce(self, vertex: int, value: float, reduce_fn) -> float:
        """Execute the Reduce function against the stored V_temp."""
        self._store[vertex] = reduce_fn(self.read(vertex), value)
        self.reduce_count += 1
        return self._store[vertex]

    def clear(self) -> None:
        self._store.clear()
