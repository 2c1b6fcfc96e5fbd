#!/usr/bin/env python3
"""Write a new algorithm against the vertex-centric API (paper Figure 1).

ScalaGraph runs any Process/Reduce/Apply program; this example adds
**widest path** (maximum-bottleneck path): the property of a vertex is
the largest minimum edge weight along any path from the source.  Widest
path is monotonically *increasing*, so it is still safe under the
inter-phase pipelining of Section IV-D.

The example validates the program on the functional reference engine and
the cycle-accurate tile simulator, then measures it on the 512-PE
timing model.
"""

import numpy as np

from repro import (
    CycleAccurateScalaGraph,
    ScalaGraph,
    ScalaGraphConfig,
    load_dataset,
    run_reference,
)
from repro.algorithms.base import ProgramContext, VertexProgram


class WidestPath(VertexProgram):
    """Maximum-bottleneck path from a source vertex.

    Process emits ``min(width(src), edge_weight)``; Reduce keeps the
    maximum; Apply adopts wider paths.  The source starts at +inf (its
    own bottleneck is unconstrained), everything else at 0.

    ``scatter_value`` receives every vertex's property: it gathers the
    sources' widths once (``edge_src`` may be int32, so it only indexes)
    and returns one value per edge.
    """

    name = "widest_path"
    monotonic = True  # widths only grow: pipelining-safe
    all_active = False
    needs_weights = True

    def __init__(self, source: int = 0) -> None:
        self.source = source

    def initial_properties(self, ctx: ProgramContext) -> np.ndarray:
        props = np.zeros(ctx.num_vertices, dtype=np.float64)
        props[self.source] = np.inf
        return props

    def initial_active(self, ctx: ProgramContext) -> np.ndarray:
        return np.array([self.source], dtype=np.int64)

    @property
    def reduce_ufunc(self) -> np.ufunc:
        return np.maximum

    @property
    def reduce_identity(self) -> float:
        return 0.0

    def scatter_value(self, ctx, edge_src, edge_weight, props):
        widths = props[edge_src]  # one gather: this call's own copy
        return np.minimum(widths, edge_weight, out=widths)

    def apply_values(self, ctx, props, vtemp):
        return np.maximum(props, vtemp)


def widest_path_dijkstra(graph, source):
    """Slow gold model: Dijkstra with a max-heap over widths."""
    import heapq

    width = np.zeros(graph.num_vertices)
    width[source] = np.inf
    heap = [(-np.inf, source)]
    done = np.zeros(graph.num_vertices, dtype=bool)
    while heap:
        negw, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for u, w in zip(graph.neighbors(v), graph.edge_weights(v)):
            cand = min(-negw, w)
            if cand > width[u]:
                width[u] = cand
                heapq.heappush(heap, (-cand, int(u)))
    return width


def main() -> None:
    graph = load_dataset("PK", weighted=True)
    program = WidestPath(source=0)

    # 1. Functional reference run.
    reference = run_reference(program, graph)
    print(
        f"widest_path on {graph}: {reference.num_iterations} iterations, "
        f"{reference.total_edges_traversed:,} edges"
    )

    # 2. Validate against an independent Dijkstra implementation on a
    #    small projection (the full graph would be slow in pure Python).
    small = graph.subgraph(np.arange(256))
    gold = widest_path_dijkstra(small, 0)
    ours = run_reference(WidestPath(source=0), small).properties
    assert np.array_equal(ours, gold), "vertex-centric widest path is wrong!"
    print("validated against Dijkstra on a 256-vertex projection")

    # 3. The cycle-accurate simulator (a 1x4x4 tile by default) computes
    #    the same thing.
    tiny = graph.subgraph(np.arange(128))
    detailed = CycleAccurateScalaGraph().run(WidestPath(source=0), tiny)
    assert np.array_equal(
        detailed.properties, run_reference(WidestPath(0), tiny).properties
    )
    print(
        f"cycle-level simulator agrees "
        f"({detailed.stats.noc_hops} NoC hops, "
        f"{detailed.stats.updates_coalesced} updates coalesced)"
    )

    # 4. Measure on the 512-PE accelerator.
    report = ScalaGraph(ScalaGraphConfig()).run(
        program, graph, reference=reference
    )
    print("\n" + report.summary())
    print(
        f"  inter-phase pipelining used: "
        f"{bool(report.extra['pipelining_used'])} (monotonic program)"
    )
    finite = np.isfinite(report.properties) & (report.properties > 0)
    print(
        f"  vertices with a path from v0: {int(finite.sum()):,}; "
        f"median bottleneck width "
        f"{np.median(report.properties[finite & (report.properties < np.inf)]):.0f}"
    )


if __name__ == "__main__":
    main()
