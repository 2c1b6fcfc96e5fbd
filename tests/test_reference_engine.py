"""Unit tests for the functional reference engine and its traces."""

import numpy as np
import pytest

from repro.algorithms import (
    BFS,
    SSSP,
    ConnectedComponents,
    PageRank,
    SpMV,
    WidestPath,
    run_reference,
)
from repro.algorithms.reference import gather_frontier_edges
from repro.graph.csr import CSRGraph


class TestGatherFrontierEdges:
    def test_full_frontier_fast_path(self, small_rmat):
        active = np.arange(small_rmat.num_vertices)
        src, dst, w = gather_frontier_edges(small_rmat, active)
        assert src.size == small_rmat.num_edges
        assert np.array_equal(dst, small_rmat.indices)

    def test_partial_frontier(self, tiny_graph):
        src, dst, w = gather_frontier_edges(tiny_graph, np.array([0, 3]))
        assert sorted(zip(src, dst)) == [(0, 1), (0, 2), (3, 4)]

    def test_partial_frontier_weights(self, tiny_graph):
        src, dst, w = gather_frontier_edges(tiny_graph, np.array([3]))
        assert list(w) == [5]

    def test_empty_frontier(self, tiny_graph):
        src, dst, w = gather_frontier_edges(tiny_graph, np.array([], dtype=np.int64))
        assert src.size == dst.size == w.size == 0

    def test_frontier_of_sinks(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        src, dst, _ = gather_frontier_edges(g, np.array([1, 2]))
        assert src.size == 0

    def test_unweighted_defaults_to_one(self, chain):
        _, _, w = gather_frontier_edges(chain, np.array([0, 1]))
        assert np.all(w == 1)

    @pytest.mark.parametrize("whole_frontier", [True, False])
    def test_unit_weights_own_no_per_edge_buffer(
        self, small_rmat, whole_frontier
    ):
        """Both paths hand an unweighted graph's programs a read-only
        zero-stride view of 1, not 8 bytes per edge."""
        active = np.arange(small_rmat.num_vertices)
        if not whole_frontier:
            active = active[::2]
        src, _, w = gather_frontier_edges(small_rmat, active)
        assert w.shape == src.shape and src.size > 1
        assert w.dtype == np.int64 and np.all(w == 1)
        assert w.strides == (0,)
        assert not w.flags.writeable

    @pytest.mark.parametrize(
        "program", [SSSP(source=0), WidestPath(source=0), SpMV()],
        ids=lambda p: type(p).__name__,
    )
    def test_unweighted_runs_equal_unit_weighted_runs(
        self, small_rmat, program
    ):
        unit = small_rmat.with_weights(
            np.ones(small_rmat.num_edges, dtype=np.int64)
        )
        plain = run_reference(program, small_rmat)
        weighted = run_reference(program, unit)
        np.testing.assert_array_equal(plain.properties, weighted.properties)
        assert plain.num_iterations == weighted.num_iterations


class TestTraces:
    def test_bfs_frontier_progression(self, chain):
        result = run_reference(BFS(root=0), chain)
        # On a 10-vertex path, each iteration activates exactly one vertex.
        assert result.num_iterations == 10
        for trace in result.iterations[:-1]:
            assert trace.num_active == 1
            assert trace.num_edges == 1

    def test_total_edges_traversed(self, chain):
        result = run_reference(BFS(root=0), chain)
        assert result.total_edges_traversed == 9

    def test_trace_indices_sequential(self, small_rmat):
        result = run_reference(ConnectedComponents(), small_rmat)
        assert [t.index for t in result.iterations] == list(
            range(result.num_iterations)
        )

    def test_num_updates_matches_next_frontier(self, small_rmat):
        result = run_reference(BFS(root=0), small_rmat)
        for a, b in zip(result.iterations, result.iterations[1:]):
            assert a.num_updates == b.num_active

    def test_keep_traces_false(self, small_rmat):
        result = run_reference(BFS(root=0), small_rmat, keep_traces=False)
        assert result.iterations == []
        full = run_reference(BFS(root=0), small_rmat)
        assert np.array_equal(result.properties, full.properties)

    def test_max_iterations_override(self, chain):
        result = run_reference(BFS(root=0), chain, max_iterations=3)
        assert result.num_iterations == 3
        assert not result.converged

    def test_converged_flag(self, chain):
        assert run_reference(BFS(root=0), chain).converged

    def test_pagerank_trace_counts(self, small_rmat):
        result = run_reference(PageRank(max_iters=4), small_rmat)
        for trace in result.iterations:
            assert trace.num_edges == small_rmat.num_edges


class TestDeterminism:
    def test_same_input_same_output(self, medium_rmat):
        a = run_reference(BFS(root=1), medium_rmat)
        b = run_reference(BFS(root=1), medium_rmat)
        assert np.array_equal(a.properties, b.properties)
        assert a.num_iterations == b.num_iterations

    def test_empty_graph(self):
        g = CSRGraph.from_edges(1, [])
        result = run_reference(BFS(root=0), g)
        assert result.properties[0] == 0
        assert result.converged
