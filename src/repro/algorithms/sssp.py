"""Single-source shortest paths (Bellman-Ford style) in the VCM.

Property = tentative distance.  Process emits ``dist(src) + weight``;
Reduce is ``min``.  Distances only decrease, so SSSP is monotonic and
safe for inter-phase pipelining (Section IV-D).  The paper runs SSSP on
graphs with random integer weights in [0, 255] (Section V-A).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramContext, VertexProgram
from repro.errors import ConfigurationError

UNREACHED = np.inf


class SSSP(VertexProgram):
    """SSSP from a source vertex; vertex property is the distance."""

    name = "sssp"
    monotonic = True
    all_active = False
    needs_weights = True

    def __init__(self, source: int = 0) -> None:
        if source < 0:
            raise ConfigurationError("SSSP source must be non-negative")
        self.source = source

    def validate(self, ctx: ProgramContext) -> None:
        if self.source >= ctx.num_vertices:
            raise ConfigurationError(
                f"SSSP source {self.source} outside graph with "
                f"{ctx.num_vertices} vertices"
            )
        if ctx.graph.weights is not None and ctx.graph.weights.size:
            if int(ctx.graph.weights.min()) < 0:
                raise ConfigurationError("SSSP requires non-negative weights")

    def initial_properties(self, ctx: ProgramContext) -> np.ndarray:
        props = np.full(ctx.num_vertices, UNREACHED, dtype=np.float64)
        props[self.source] = 0.0
        return props

    def initial_active(self, ctx: ProgramContext) -> np.ndarray:
        return np.array([self.source], dtype=np.int64)

    @property
    def reduce_ufunc(self) -> np.ufunc:
        return np.minimum

    @property
    def reduce_identity(self) -> float:
        return np.inf

    def scatter_value(
        self,
        ctx: ProgramContext,
        edge_src: np.ndarray,
        edge_weight: np.ndarray,
        props: np.ndarray,
    ) -> np.ndarray:
        values = props[edge_src]
        values += edge_weight
        return values

    def apply_values(
        self,
        ctx: ProgramContext,
        props: np.ndarray,
        vtemp: np.ndarray,
    ) -> np.ndarray:
        return np.minimum(props, vtemp)
