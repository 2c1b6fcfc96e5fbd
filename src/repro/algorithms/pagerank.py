"""PageRank in the vertex-centric model.

Process emits ``rank(src) / out_degree(src)``; Reduce is ``+``; Apply
computes ``(1 - d) / N + d * V_temp``.  Every vertex is active in every
iteration until ranks settle (Section V-B notes PageRank shows the highest
speedups because all edges are processed each iteration).  PageRank is
*not* monotonic, so the accelerator disables inter-phase pipelining for it
(Section IV-D, Limitation).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramContext, VertexProgram
from repro.errors import ConfigurationError


class PageRank(VertexProgram):
    """Power-iteration PageRank with damping and tolerance control.

    Args:
        damping: probability of following an edge (vs teleporting).
        tolerance: per-vertex convergence threshold.
        max_iters: iteration cap.
        personalization: optional teleport distribution (one weight per
            vertex, normalised internally) — personalised PageRank
            biases the ranking toward the given seed set.
    """

    name = "pagerank"
    monotonic = False
    all_active = True
    needs_weights = False

    def __init__(
        self,
        damping: float = 0.85,
        tolerance: float = 1e-7,
        max_iters: int = 20,
        personalization: "np.ndarray | None" = None,
    ) -> None:
        if not 0.0 < damping < 1.0:
            raise ConfigurationError("damping must be in (0, 1)")
        if tolerance < 0:
            raise ConfigurationError("tolerance must be >= 0")
        if max_iters <= 0:
            raise ConfigurationError("max_iters must be positive")
        self.damping = damping
        self.tolerance = tolerance
        self.max_iters = max_iters
        self.personalization = None
        if personalization is not None:
            p = np.asarray(personalization, dtype=np.float64)
            if p.ndim != 1 or p.size == 0:
                raise ConfigurationError(
                    "personalization must be a non-empty 1-D vector"
                )
            if np.any(p < 0) or p.sum() <= 0:
                raise ConfigurationError(
                    "personalization must be non-negative with positive mass"
                )
            self.personalization = p / p.sum()

    def validate(self, ctx: ProgramContext) -> None:
        if (
            self.personalization is not None
            and self.personalization.shape != (ctx.num_vertices,)
        ):
            raise ConfigurationError(
                "personalization must have one weight per vertex"
            )

    def _teleport(self, ctx: ProgramContext) -> np.ndarray:
        if self.personalization is not None:
            return self.personalization
        n = max(ctx.num_vertices, 1)
        return np.full(ctx.num_vertices, 1.0 / n, dtype=np.float64)

    def initial_properties(self, ctx: ProgramContext) -> np.ndarray:
        return self._teleport(ctx).copy()

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
        src_prop: np.ndarray,
    ) -> np.ndarray:
        degrees = ctx.out_degrees[edge_src]
        # Sources with edges always have degree >= 1; guard anyway so a
        # malformed trace cannot divide by zero.  The gather is this
        # call's own copy, so the guard clamps it in place.
        np.maximum(degrees, 1, out=degrees)
        return src_prop / degrees

    def apply_values(
        self,
        ctx: ProgramContext,
        props: np.ndarray,
        vtemp: np.ndarray,
    ) -> np.ndarray:
        return (1.0 - self.damping) * self._teleport(ctx) + (
            self.damping * vtemp
        )

    def is_updated(self, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        return np.abs(new - old) > self.tolerance

    def max_iterations(self, ctx: ProgramContext) -> int:
        return self.max_iters
