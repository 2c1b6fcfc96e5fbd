"""Breadth-first search in the vertex-centric model.

Property = hop distance from the root.  Process emits ``depth(src) + 1``;
Reduce is ``min``; Apply keeps the smaller of old and proposed depth.
Updates are monotonically decreasing, so BFS is safe under the paper's
inter-phase pipelining (Section IV-D).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramContext, VertexProgram
from repro.errors import ConfigurationError

UNREACHED = np.inf


class BFS(VertexProgram):
    """BFS from a root vertex; vertex property is the hop distance."""

    name = "bfs"
    monotonic = True
    all_active = False
    needs_weights = False

    def __init__(self, root: int = 0) -> None:
        if root < 0:
            raise ConfigurationError("BFS root must be non-negative")
        self.root = root

    def validate(self, ctx: ProgramContext) -> None:
        if self.root >= ctx.num_vertices:
            raise ConfigurationError(
                f"BFS root {self.root} outside graph with "
                f"{ctx.num_vertices} vertices"
            )

    def initial_properties(self, ctx: ProgramContext) -> np.ndarray:
        props = np.full(ctx.num_vertices, UNREACHED, dtype=np.float64)
        props[self.root] = 0.0
        return props

    def initial_active(self, ctx: ProgramContext) -> np.ndarray:
        return np.array([self.root], dtype=np.int64)

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
        return (props + 1.0)[edge_src]

    def apply_values(
        self,
        ctx: ProgramContext,
        props: np.ndarray,
        vtemp: np.ndarray,
    ) -> np.ndarray:
        return np.minimum(props, vtemp)
