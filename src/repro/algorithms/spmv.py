"""Sparse matrix-vector multiplication in the vertex-centric model.

``y = A^T x`` over the graph's weighted adjacency matrix: Process emits
``x[src] * weight``, Reduce accumulates, Apply stores the sum.  SpMV is
a single-pass workload (one Scatter + one Apply, like one PageRank
iteration) and is the conventional microbenchmark for an accelerator's
raw streaming throughput.  Non-monotonic by nature, so inter-phase
pipelining stays off — but with one iteration there is nothing to
overlap anyway.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import ProgramContext, VertexProgram
from repro.errors import ConfigurationError


class SpMV(VertexProgram):
    """One sparse matrix-vector product over the adjacency structure.

    Args:
        x: input vector (defaults to all ones, yielding weighted
            in-degrees).
    """

    name = "spmv"
    monotonic = False
    all_active = True
    needs_weights = True

    def __init__(self, x: Optional[np.ndarray] = None) -> None:
        self.x = None if x is None else np.asarray(x, dtype=np.float64)

    def validate(self, ctx: ProgramContext) -> None:
        if self.x is not None and self.x.shape != (ctx.num_vertices,):
            raise ConfigurationError(
                f"x must have one entry per vertex "
                f"({ctx.num_vertices}), got {self.x.shape}"
            )

    def initial_properties(self, ctx: ProgramContext) -> np.ndarray:
        if self.x is None:
            return np.ones(ctx.num_vertices, dtype=np.float64)
        return self.x.copy()

    def initial_active(self, ctx: ProgramContext) -> np.ndarray:
        return np.arange(ctx.num_vertices, dtype=np.int64)

    @property
    def reduce_ufunc(self) -> np.ufunc:
        return np.add

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
        values *= edge_weight
        return values

    def apply_values(
        self,
        ctx: ProgramContext,
        props: np.ndarray,
        vtemp: np.ndarray,
    ) -> np.ndarray:
        return vtemp

    def is_updated(self, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        # Single pass: nothing re-activates.
        return np.zeros_like(old, dtype=bool)

    def max_iterations(self, ctx: ProgramContext) -> int:
        return 1
