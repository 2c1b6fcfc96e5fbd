"""Edge-case hardening: degenerate inputs through every entry point."""

import numpy as np
import pytest

from repro.algorithms import BFS, ConnectedComponents, PageRank, run_reference
from repro.core import (
    CycleAccurateScalaGraph,
    ScalaGraph,
    ScalaGraphConfig,
)
from repro.core.accelerator import WorkloadIteration
from repro.graph.csr import CSRGraph
from repro.graph.generators import star_graph

#: A 4x4 tile per cycle-engine stack, both engine fields pinned.
CYCLE_CONFIGS = [
    ScalaGraphConfig(
        num_tiles=1, pe_rows=4, pe_cols=4, noc_engine=e, cycle_engine=e
    )
    for e in ("reference", "vectorized")
]


@pytest.fixture
def empty_graph():
    return CSRGraph.from_edges(1, [])


@pytest.fixture
def edgeless_graph():
    return CSRGraph.from_edges(50, [])


@pytest.fixture
def self_loop_graph():
    return CSRGraph.from_edges(3, [(0, 0), (0, 1), (1, 1), (1, 2)])


class TestDegenerateGraphs:
    def test_single_vertex_everywhere(self, empty_graph):
        for simulator in (
            ScalaGraph(ScalaGraphConfig()),
            *(CycleAccurateScalaGraph(c) for c in CYCLE_CONFIGS),
        ):
            result = simulator.run(BFS(), empty_graph)
            props = (
                result.properties
                if hasattr(result, "properties")
                else result
            )
            assert props[0] == 0.0

    def test_edgeless_graph_converges_immediately(self, edgeless_graph):
        report = ScalaGraph(ScalaGraphConfig()).run(BFS(), edgeless_graph)
        assert report.total_edges_traversed == 0
        assert np.isinf(report.properties[1:]).all()

    def test_edgeless_cc_all_singletons(self, edgeless_graph):
        report = ScalaGraph(ScalaGraphConfig()).run(
            ConnectedComponents(), edgeless_graph
        )
        assert np.array_equal(
            report.properties, np.arange(50, dtype=float)
        )

    def test_self_loops_handled(self, self_loop_graph):
        for simulator in (
            ScalaGraph(ScalaGraphConfig()),
            *(CycleAccurateScalaGraph(c) for c in CYCLE_CONFIGS),
        ):
            result = simulator.run(BFS(), self_loop_graph)
            props = result.properties
            reference = run_reference(BFS(), self_loop_graph).properties
            assert np.array_equal(props, reference)

    def test_pagerank_on_edgeless_graph(self, edgeless_graph):
        report = ScalaGraph(ScalaGraphConfig()).run(
            PageRank(max_iters=3), edgeless_graph
        )
        # No edges: every vertex keeps only its teleport mass.
        assert np.allclose(report.properties, 0.15 / 50)

    def test_extreme_hub(self):
        """One vertex owning every edge: the hottest possible SPD slice."""
        hub = star_graph(500, outward=False)
        report = ScalaGraph(ScalaGraphConfig()).run(BFS(root=1), hub)
        assert report.properties[0] == 1.0
        assert report.total_cycles > 0


class TestRunTraceEdgeCases:
    def test_empty_workload(self, edgeless_graph):
        report = ScalaGraph(ScalaGraphConfig()).run_trace(
            edgeless_graph, [], algorithm="empty"
        )
        assert report.total_cycles == 0
        assert report.gteps == 0.0

    def test_iteration_with_no_edges(self, edgeless_graph):
        empty = np.array([], dtype=np.int64)
        workload = [
            WorkloadIteration(
                active_vertices=np.array([0], dtype=np.int64),
                edge_src=empty,
                edge_dst=empty,
                num_updates=0,
            )
        ]
        report = ScalaGraph(ScalaGraphConfig()).run_trace(
            edgeless_graph, workload
        )
        assert report.total_cycles > 0  # phase overhead still charged
        assert report.total_edges_traversed == 0

    def test_trace_without_properties(self, self_loop_graph):
        src = self_loop_graph.edge_sources()
        workload = [
            WorkloadIteration(
                active_vertices=np.arange(3, dtype=np.int64),
                edge_src=src,
                edge_dst=self_loop_graph.indices,
                num_updates=2,
            )
        ]
        report = ScalaGraph(ScalaGraphConfig()).run_trace(
            self_loop_graph, workload
        )
        assert report.properties is None
        assert report.total_edges_traversed == 4


class TestOddGeometries:
    def test_single_column_tile(self):
        graph = star_graph(40, outward=True)
        config = ScalaGraphConfig(num_tiles=1, pe_cols=1)
        report = ScalaGraph(config).run(BFS(), graph)
        assert report.num_pes == 16
        assert np.all(report.properties[1:] == 1.0)

    def test_single_row_matrix(self):
        graph = star_graph(40, outward=True)
        config = ScalaGraphConfig(num_tiles=1, pe_rows=1, pe_cols=8)
        report = ScalaGraph(config).run(BFS(), graph)
        assert report.num_pes == 8
        assert np.all(report.properties[1:] == 1.0)

    def test_many_tiles(self):
        graph = star_graph(40, outward=True)
        config = ScalaGraphConfig(num_tiles=8, pe_rows=2, pe_cols=2)
        report = ScalaGraph(config).run(BFS(), graph)
        assert report.num_pes == 32

    def test_one_pe(self):
        graph = star_graph(10, outward=True)
        config = ScalaGraphConfig(num_tiles=1, pe_rows=1, pe_cols=1)
        report = ScalaGraph(config).run(BFS(), graph)
        assert report.pe_utilization <= 1.0
        assert np.all(report.properties[1:] == 1.0)
