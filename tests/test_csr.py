"""Unit tests for the CSR graph container."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_from_edges_basic(self, tiny_graph):
        assert tiny_graph.num_vertices == 5
        assert tiny_graph.num_edges == 6
        assert tiny_graph.is_weighted

    def test_from_edges_empty(self):
        g = CSRGraph.from_edges(3, [])
        assert g.num_vertices == 3
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_zero_vertices(self):
        g = CSRGraph.from_edges(0, [])
        assert g.num_vertices == 0
        assert g.average_degree == 0.0
        assert g.max_degree() == 0

    def test_edges_grouped_by_source(self, tiny_graph):
        src = tiny_graph.edge_sources()
        assert np.all(np.diff(src) >= 0)

    def test_from_edges_preserves_weight_alignment(self):
        # Stable sort must keep each weight attached to its edge.
        edges = [(2, 0), (0, 1), (1, 2), (0, 2)]
        weights = [20, 1, 12, 2]
        g = CSRGraph.from_edges(3, edges, weights=weights)
        assert sorted(zip(g.edge_sources(), g.indices, g.weights)) == sorted(
            [(2, 0, 20), (0, 1, 1), (1, 2, 12), (0, 2, 2)]
        )

    def test_dedup(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 1), (1, 2)], dedup=True)
        assert g.num_edges == 2

    def test_dedup_keeps_distinct(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 0), (0, 2)], dedup=True)
        assert g.num_edges == 3

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(2, [(0, 5)])
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(2, [(-1, 0)])

    def test_rejects_bad_shape(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(2, np.zeros((3, 3)))

    def test_rejects_misaligned_weights(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(2, [(0, 1)], weights=[1, 2])

    def test_rejects_negative_num_vertices(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(-1, [])


class TestValidation:
    def test_rejects_decreasing_indptr(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(
                indptr=np.array([0, 2, 1]), indices=np.array([0, 0])
            )

    def test_rejects_indptr_not_starting_at_zero(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0, 0]))

    def test_rejects_indptr_mismatch(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=np.array([0, 3]), indices=np.array([0]))

    def test_rejects_destination_out_of_range(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([5]))

    def test_rejects_empty_indptr(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=np.array([]), indices=np.array([]))


class TestAccess:
    def test_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.neighbors(0)) == [1, 2]
        assert list(tiny_graph.neighbors(3)) == [4]

    def test_degree(self, tiny_graph):
        assert tiny_graph.out_degrees[0] == 2
        assert tiny_graph.out_degrees[4] == 1

    def test_out_degrees_sum_to_edges(self, tiny_graph):
        assert tiny_graph.out_degrees.sum() == tiny_graph.num_edges

    def test_in_degrees_sum_to_edges(self, tiny_graph):
        assert tiny_graph.in_degrees().sum() == tiny_graph.num_edges

    def test_in_degrees_values(self, tiny_graph):
        indeg = tiny_graph.in_degrees()
        assert indeg[3] == 2  # from 1 and 2
        assert indeg[0] == 1  # from 4

    def test_edge_weights(self, tiny_graph):
        w = tiny_graph.edge_weights(0)
        assert sorted(w) == [1, 2]

    def test_edge_weights_unweighted_default_one(self, chain):
        assert np.all(chain.edge_weights(0) == 1)

    def test_vertex_out_of_range(self, tiny_graph):
        with pytest.raises(GraphFormatError):
            tiny_graph.neighbors(99)
        with pytest.raises(GraphFormatError):
            tiny_graph.neighbors(-1)

    def test_edges_iterator(self, tiny_graph):
        edges = set(tiny_graph.edges())
        assert (0, 1) in edges and (4, 0) in edges
        assert len(edges) == 6

    def test_edge_sources_matches_indptr(self, small_rmat):
        src = small_rmat.edge_sources()
        for v in range(0, small_rmat.num_vertices, 7):
            lo, hi = small_rmat.indptr[v], small_rmat.indptr[v + 1]
            assert np.all(src[lo:hi] == v)

    def test_average_degree(self, tiny_graph):
        assert tiny_graph.average_degree == pytest.approx(6 / 5)

    def test_max_degree(self, star):
        assert star.max_degree() == 12


class TestTransformations:
    def test_with_random_weights_range(self, small_rmat):
        g = small_rmat.with_random_weights(low=0, high=255, seed=3)
        assert g.is_weighted
        assert g.weights.min() >= 0
        assert g.weights.max() <= 255

    def test_with_random_weights_deterministic(self, small_rmat):
        a = small_rmat.with_random_weights(seed=3)
        b = small_rmat.with_random_weights(seed=3)
        assert np.array_equal(a.weights, b.weights)

    def test_reversed_involution(self, small_rmat):
        double = small_rmat.reversed().reversed()
        assert sorted(small_rmat.edges()) == sorted(double.edges())

    def test_reversed_swaps_edges(self, tiny_graph):
        rev = tiny_graph.reversed()
        assert (1, 0) in set(rev.edges())
        assert rev.num_edges == tiny_graph.num_edges

    def test_reversed_carries_weights(self, tiny_graph):
        rev = tiny_graph.reversed()
        forward = {(s, d): w for (s, d), w in
                   zip(tiny_graph.edges(), tiny_graph.weights)}
        # Recompute pairs in iteration order matching weights.
        src = tiny_graph.edge_sources()
        forward = {
            (int(s), int(d)): int(w)
            for s, d, w in zip(src, tiny_graph.indices, tiny_graph.weights)
        }
        rsrc = rev.edge_sources()
        for s, d, w in zip(rsrc, rev.indices, rev.weights):
            assert forward[(int(d), int(s))] == int(w)

    def test_subgraph(self, tiny_graph):
        sub = tiny_graph.subgraph(np.array([0, 1, 2, 3]))
        assert sub.num_vertices == 4
        # Edge 3->4 and 4->0 are dropped.
        assert sub.num_edges == 4

    def test_subgraph_relabels_compactly(self, tiny_graph):
        sub = tiny_graph.subgraph(np.array([1, 3]))
        assert sub.num_vertices == 2
        assert set(sub.edges()) == {(0, 1)}  # old 1->3

    def test_with_weights_requires_alignment(self, tiny_graph):
        with pytest.raises(GraphFormatError):
            tiny_graph.with_weights(np.array([1, 2]))


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 19), st.integers(0, 19)),
            max_size=120,
        )
    )
    def test_roundtrip_edge_multiset(self, edges):
        g = CSRGraph.from_edges(20, edges)
        assert sorted(g.edges()) == sorted(edges)

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            max_size=60,
        )
    )
    def test_degree_sums(self, edges):
        g = CSRGraph.from_edges(10, edges)
        assert g.out_degrees.sum() == len(edges)
        assert g.in_degrees().sum() == len(edges)

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            max_size=60,
        )
    )
    def test_reversed_preserves_degree_histogram(self, edges):
        g = CSRGraph.from_edges(10, edges)
        rev = g.reversed()
        assert np.array_equal(np.sort(g.out_degrees), np.sort(rev.in_degrees()))
