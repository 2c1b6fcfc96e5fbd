"""Single-source widest path (maximum-bottleneck path) in the VCM.

The property of a vertex is the largest minimum edge weight along any
path from the source.  Process emits ``min(width(src), weight)``; Reduce
keeps the maximum; Apply adopts wider paths.  Widths only increase, so
SSWP is monotonic and safe under the inter-phase pipelining of
Section IV-D — a useful fifth algorithm because its Reduce is ``max``
(exercising the aggregation pipeline with a different operator family
than the min-based BFS/SSSP/CC and the add-based PageRank).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramContext, VertexProgram
from repro.errors import ConfigurationError


class WidestPath(VertexProgram):
    """SSWP from a source vertex; property = bottleneck width."""

    name = "sswp"
    monotonic = True
    all_active = False
    needs_weights = True

    def __init__(self, source: int = 0) -> None:
        if source < 0:
            raise ConfigurationError("source must be non-negative")
        self.source = source

    def validate(self, ctx: ProgramContext) -> None:
        if self.source >= ctx.num_vertices:
            raise ConfigurationError(
                f"source {self.source} outside graph with "
                f"{ctx.num_vertices} vertices"
            )
        if ctx.graph.weights is not None and ctx.graph.weights.size:
            if int(ctx.graph.weights.min()) < 0:
                raise ConfigurationError("SSWP requires non-negative weights")

    def initial_properties(self, ctx: ProgramContext) -> np.ndarray:
        props = np.zeros(ctx.num_vertices, dtype=np.float64)
        props[self.source] = np.inf  # the source's bottleneck is unbounded
        return props

    def initial_active(self, ctx: ProgramContext) -> np.ndarray:
        return np.array([self.source], dtype=np.int64)

    @property
    def reduce_ufunc(self) -> np.ufunc:
        return np.maximum

    @property
    def reduce_identity(self) -> float:
        return 0.0

    def scatter_value(
        self,
        ctx: ProgramContext,
        edge_src: np.ndarray,
        edge_weight: np.ndarray,
        props: np.ndarray,
    ) -> np.ndarray:
        values = props[edge_src]
        return np.minimum(values, edge_weight, out=values)

    def apply_values(
        self,
        ctx: ProgramContext,
        props: np.ndarray,
        vtemp: np.ndarray,
    ) -> np.ndarray:
        return np.maximum(props, vtemp)
