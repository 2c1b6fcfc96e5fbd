"""Functional vertex-centric engine (the gold-model substrate).

Executes a :class:`~repro.algorithms.base.VertexProgram` exactly as written
in the paper's Figure 1 pseudocode — Scatter over the active frontier, then
Apply over all vertices — using vectorised numpy kernels.  It produces:

* the converged property array (used to check every accelerator model for
  functional correctness), and
* per-iteration :class:`IterationTrace` records (active vertices, edge
  counts, update counts) that the cycle-approximate timing models replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.algorithms.base import (
    ProgramContext,
    VertexProgram,
    scatter_values,
)
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.util import grouped_arange_from_counts


@dataclass(frozen=True)
class IterationTrace:
    """What one Figure-1 iteration did, for the timing models to replay.

    Attributes:
        index: iteration number (0-based).
        active_vertices: frontier processed in the Scatter phase.
        num_edges: edge workloads generated by the frontier.
        num_updates: vertices whose property changed in the Apply phase
            (the size of the next frontier).
    """

    index: int
    active_vertices: np.ndarray
    num_edges: int
    num_updates: int

    @property
    def num_active(self) -> int:
        return int(self.active_vertices.size)


@dataclass
class ReferenceResult:
    """Output of a reference run.

    Attributes:
        properties: converged ``V_prop`` array.
        iterations: per-iteration traces in execution order.
        converged: False when the iteration safety bound was hit first.
    """

    properties: np.ndarray
    iterations: List[IterationTrace] = field(default_factory=list)
    converged: bool = True

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def total_edges_traversed(self) -> int:
        return sum(t.num_edges for t in self.iterations)


def gather_frontier_edges(
    graph: CSRGraph, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand a frontier into its (src, dst, weight) edge arrays.

    Fast path: when the frontier is the whole vertex set (PageRank), the
    CSR arrays are used directly without copying.  An unweighted graph's
    weights are a read-only zero-stride view of 1 — no per-edge buffer,
    since a program's ``scatter_value`` only reads its weights.
    """
    if active.size == graph.num_vertices:
        src = graph.edge_sources()
        dst = graph.indices
        weights = (
            graph.weights
            if graph.weights is not None
            else np.broadcast_to(np.int64(1), graph.num_edges)
        )
        return src, dst, weights

    starts = graph.indptr[active]
    stops = graph.indptr[active + 1]
    counts = stops - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    # Build a flat index selecting every frontier edge slot.
    offsets = np.repeat(starts, counts)
    within = grouped_arange_from_counts(counts)
    flat = offsets + within
    src = np.repeat(active, counts)
    dst = graph.indices[flat]
    weights = (
        graph.weights[flat]
        if graph.weights is not None
        else np.broadcast_to(np.int64(1), total)
    )
    return src, dst, weights


def repeats_previous(
    previous: Optional[Sequence[np.ndarray]], current: Sequence[np.ndarray]
) -> bool:
    """Whether an iteration's workload equals the previous iteration's.

    ``current`` holds the iteration's workload arrays (its frontier, plus
    its edge arrays where they do not follow from the frontier) and
    ``previous`` the same arrays of the iteration before, or None for
    the first one.  Arrays are compared element for element, so the
    timing models compute a frontier's phase terms once per run of
    consecutive repeats (PageRank's all-active Scatter) and keep no
    state beyond the previous iteration.
    """
    return previous is not None and all(
        a is b or np.array_equal(a, b) for a, b in zip(previous, current)
    )


def run_reference(
    program: VertexProgram,
    graph: CSRGraph,
    max_iterations: Optional[int] = None,
    keep_traces: bool = True,
) -> ReferenceResult:
    """Run a vertex program to convergence on the functional engine.

    Args:
        program: the algorithm.
        graph: the input graph (must carry weights if the program needs
            them and they should differ from 1).
        max_iterations: optional override of the program's safety bound.
        keep_traces: store per-iteration active arrays (timing models need
            them; set False to save memory on huge runs).

    Returns:
        A :class:`ReferenceResult` with converged properties and traces.
    """
    ctx = ProgramContext(graph=graph)
    program.validate(ctx)
    props = program.initial_properties(ctx)
    if props.shape != (graph.num_vertices,):
        raise SimulationError(
            "initial_properties must return one value per vertex"
        )
    active = np.asarray(program.initial_active(ctx), dtype=np.int64)
    limit = (
        max_iterations
        if max_iterations is not None
        else program.max_iterations(ctx)
    )

    result = ReferenceResult(properties=props)
    iteration = 0
    while active.size and iteration < limit:
        # --- Scatter phase (Figure 1, lines 2-7) ---
        src, dst, weights = gather_frontier_edges(graph, active)
        vtemp = np.full(
            graph.num_vertices, program.reduce_identity, dtype=np.float64
        )
        if src.size:
            values = scatter_values(program, ctx, src, weights, props)
            program.reduce_ufunc.at(vtemp, dst, values)

        # --- Apply phase (Figure 1, lines 9-15) ---
        new_props = program.apply_values(ctx, props, vtemp)
        updated = program.is_updated(props, new_props)
        num_updates = int(np.count_nonzero(updated))

        if keep_traces:
            result.iterations.append(
                IterationTrace(
                    index=iteration,
                    active_vertices=active,
                    num_edges=int(src.size),
                    num_updates=num_updates,
                )
            )
        props = new_props
        active = (
            np.arange(graph.num_vertices, dtype=np.int64)
            if (program.all_active and num_updates)
            else np.flatnonzero(updated).astype(np.int64)
        )
        iteration += 1

    result.properties = props
    result.converged = active.size == 0
    return result
