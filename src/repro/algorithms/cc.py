"""Connected components via label propagation in the VCM.

Every vertex starts labelled with its own ID; Process forwards the source
label, Reduce keeps the minimum, and Apply adopts smaller labels.  Labels
only decrease, so CC is monotonic (pipelining-safe, Section IV-D).  All
vertices are active in the first iteration.

Note: on a *directed* CSR graph this computes components of the directed
edge relation as seen by label propagation; to obtain classic undirected
connected components, symmetrise the graph first (each edge stored both
ways), which is what the examples do.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramContext, VertexProgram


class ConnectedComponents(VertexProgram):
    """Label-propagation connected components."""

    name = "cc"
    monotonic = True
    all_active = False  # frontier shrinks after the first iteration
    needs_weights = False

    def initial_properties(self, ctx: ProgramContext) -> np.ndarray:
        return np.arange(ctx.num_vertices, dtype=np.float64)

    def initial_active(self, ctx: ProgramContext) -> np.ndarray:
        return np.arange(ctx.num_vertices, dtype=np.int64)

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
        return props[edge_src]

    def apply_values(
        self,
        ctx: ProgramContext,
        props: np.ndarray,
        vtemp: np.ndarray,
    ) -> np.ndarray:
        return np.minimum(props, vtemp)
