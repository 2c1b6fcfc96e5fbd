"""Compressed sparse row (CSR) graph container.

ScalaGraph (Section III-B) stores graphs in CSR for space efficiency: an
``indptr`` array of ``num_vertices + 1`` edge offsets, an ``indices`` array
of destination vertex IDs, and an optional ``weights`` array.  All arrays
are numpy-backed so that the timing models can evaluate whole iterations
with vectorised kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphFormatError

VertexId = int

_INDEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.int64


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """The stable sort order of integer ``keys`` in ``[0, bound)``.

    A least-significant-digit radix sort: one stable ``argsort`` per
    16-bit digit, which NumPy runs as a counting sort, so one pass up to
    2**16 keys and two up to 2**32.  Each pass keeps the order of equal
    digits, so equal keys keep their input order.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    for shift in range(16, max(bound - 1, 1).bit_length(), 16):
        digit = (keys >> shift).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
    return order


@dataclass(frozen=True)
class CSRGraph:
    """A directed graph in compressed sparse row format.

    Attributes:
        indptr: ``int64[num_vertices + 1]`` edge offsets; row ``v`` owns
            edges ``indices[indptr[v]:indptr[v + 1]]``.
        indices: ``int64[num_edges]`` destination vertex IDs.
        weights: optional ``int64[num_edges]`` edge weights (SSSP uses
            random integer weights in ``[0, 255]``, Section V-A).
        name: human-readable label used in reports.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: Optional[np.ndarray] = None
    name: str = "graph"

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=_INDEX_DTYPE)
        indices = np.ascontiguousarray(self.indices, dtype=_INDEX_DTYPE)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if self.weights is not None:
            weights = np.ascontiguousarray(self.weights, dtype=_WEIGHT_DTYPE)
            object.__setattr__(self, "weights", weights)
        self._validate()

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise GraphFormatError("indptr must be a non-empty 1-D array")
        if self.indptr[0] != 0:
            raise GraphFormatError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.size:
            raise GraphFormatError(
                f"indptr[-1] ({int(self.indptr[-1])}) must equal the number "
                f"of edges ({self.indices.size})"
            )
        if self.indices.size:
            lo = int(self.indices.min())
            hi = int(self.indices.max())
            if lo < 0 or hi >= self.num_vertices:
                raise GraphFormatError(
                    f"edge destination out of range [0, {self.num_vertices}): "
                    f"saw [{lo}, {hi}]"
                )
        if self.weights is not None and self.weights.shape != self.indices.shape:
            raise GraphFormatError("weights must align with indices")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self.indices.size

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (``int64[num_vertices]``)."""
        return np.diff(self.indptr)

    @property
    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex, computed by a bincount over indices."""
        return np.bincount(self.indices, minlength=self.num_vertices).astype(
            _INDEX_DTYPE
        )

    def max_degree(self) -> int:
        if self.num_vertices == 0:
            return 0
        return int(self.out_degrees.max())

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def neighbors(self, v: VertexId) -> np.ndarray:
        """Destination IDs of vertex ``v``'s out-edges."""
        self._check_vertex(v)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_weights(self, v: VertexId) -> np.ndarray:
        """Weights of vertex ``v``'s out-edges (all 1 when unweighted)."""
        self._check_vertex(v)
        if self.weights is None:
            return np.ones(int(self.indptr[v + 1] - self.indptr[v]), dtype=_WEIGHT_DTYPE)
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(src, dst)`` pairs. Intended for tests/examples."""
        for v in range(self.num_vertices):
            for u in self.neighbors(v):
                yield v, int(u)

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every edge (``int64[num_edges]``).

        The expansion of indptr back to one source ID per edge; this is the
        vectorised building block for the mapping/communication models.
        """
        return np.repeat(
            np.arange(self.num_vertices, dtype=_INDEX_DTYPE), self.out_degrees
        )

    def _check_vertex(self, v: VertexId) -> None:
        if not 0 <= v < self.num_vertices:
            raise GraphFormatError(
                f"vertex {v} out of range [0, {self.num_vertices})"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Sequence[Tuple[int, int]] | np.ndarray,
        weights: Optional[Sequence[int] | np.ndarray] = None,
        name: str = "graph",
        dedup: bool = False,
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list.

        Args:
            num_vertices: vertex-ID domain size.
            edges: ``(src, dst)`` pairs as a sequence or an ``(E, 2)`` array.
            weights: optional per-edge weights, aligned with ``edges``.
            name: label for reports.
            dedup: drop duplicate ``(src, dst)`` pairs (keeping the first
                occurrence's weight) before building.
        """
        if num_vertices < 0:
            raise GraphFormatError("num_vertices must be >= 0")
        arr = np.asarray(edges, dtype=_INDEX_DTYPE)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphFormatError("edges must be an (E, 2) array of (src, dst)")
        src, dst = arr[:, 0], arr[:, 1]
        if arr.size and (
            src.min() < 0
            or dst.min() < 0
            or src.max() >= num_vertices
            or dst.max() >= num_vertices
        ):
            raise GraphFormatError("edge endpoint out of range")
        w = None
        if weights is not None:
            w = np.asarray(weights, dtype=_WEIGHT_DTYPE)
            if w.shape[0] != arr.shape[0]:
                raise GraphFormatError("weights must align with edges")
        return cls.from_endpoints(
            num_vertices, src, dst, weights=w, name=name, dedup=dedup
        )

    @classmethod
    def from_endpoints(
        cls,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray] = None,
        name: str = "graph",
        dedup: bool = False,
    ) -> "CSRGraph":
        """Build a CSR graph from aligned source and destination arrays
        (any integer dtype) whose ids the caller guarantees lie in
        ``[0, num_vertices)``: a generator's own draws, or what
        :meth:`from_edges` has checked.

        Each source's edges keep their input order.  The source order
        is a radix sort (:func:`_stable_order`) whose int64 buffer
        becomes the graph's ``indices`` (the destinations are gathered
        into it), and ``indptr`` is a ``bincount``: no comparison sort
        and no sorted copy of the sources.
        """
        if dedup and src.size:
            keys = src.astype(_INDEX_DTYPE) * num_vertices + dst
            _, keep = np.unique(keys, return_index=True)
            keep.sort()
            src, dst = src[keep], dst[keep]
            if weights is not None:
                weights = weights[keep]
        indptr = np.zeros(num_vertices + 1, dtype=_INDEX_DTYPE)
        np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
        indices = _stable_order(src, num_vertices)
        if weights is not None:
            weights = weights[indices]
        indices[:] = dst[indices]
        return cls(indptr=indptr, indices=indices, weights=weights, name=name)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_weights(self, weights: np.ndarray, name: Optional[str] = None) -> "CSRGraph":
        """Return a copy carrying the given per-edge weights."""
        return CSRGraph(
            indptr=self.indptr,
            indices=self.indices,
            weights=weights,
            name=name or self.name,
        )

    def with_random_weights(
        self, low: int = 0, high: int = 255, seed: int = 0
    ) -> "CSRGraph":
        """Attach random integer weights in ``[low, high]``.

        Section V-A: for SSSP, each edge is associated with a random integer
        between 0 and 255.
        """
        rng = np.random.default_rng(seed)
        weights = rng.integers(low, high + 1, size=self.num_edges, dtype=_WEIGHT_DTYPE)
        return self.with_weights(weights)

    def reversed(self) -> "CSRGraph":
        """Return the transpose graph (every edge direction flipped)."""
        return CSRGraph.from_endpoints(
            self.num_vertices,
            self.indices,
            self.edge_sources(),
            weights=self.weights,
            name=f"{self.name}^T",
        )

    def subgraph(self, vertices: np.ndarray) -> "CSRGraph":
        """Induced subgraph on ``vertices`` with IDs relabelled to 0..k-1."""
        vertices = np.unique(np.asarray(vertices, dtype=_INDEX_DTYPE))
        remap = -np.ones(self.num_vertices, dtype=_INDEX_DTYPE)
        remap[vertices] = np.arange(vertices.size, dtype=_INDEX_DTYPE)
        src = self.edge_sources()
        keep = (remap[src] >= 0) & (remap[self.indices] >= 0)
        w = self.weights[keep] if self.weights is not None else None
        return CSRGraph.from_endpoints(
            vertices.size,
            remap[src[keep]],
            remap[self.indices[keep]],
            weights=w,
            name=f"{self.name}[{vertices.size}]",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        w = ", weighted" if self.is_weighted else ""
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}{w})"
        )
