"""Graph transformation tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms import BFS, run_reference
from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.transforms import (
    apply_permutation,
    largest_out_component_root,
    relabel_by_degree,
    remove_duplicate_edges,
    remove_self_loops,
    symmetrize,
)


class TestSymmetrize:
    def test_every_edge_mirrored(self, tiny_graph):
        sym = symmetrize(tiny_graph)
        edges = set(sym.edges())
        for s, d in tiny_graph.edges():
            assert (s, d) in edges and (d, s) in edges

    def test_doubles_edge_count(self, small_rmat):
        sym = symmetrize(small_rmat)
        assert sym.num_edges == 2 * small_rmat.num_edges

    def test_weights_mirrored(self, tiny_graph):
        sym = symmetrize(tiny_graph)
        weights = {}
        src = sym.edge_sources()
        for s, d, w in zip(src, sym.indices, sym.weights):
            weights[(int(s), int(d))] = int(w)
        for (s, d), w in list(weights.items()):
            assert weights[(d, s)] == w

    def test_dedup_collapses_mutual_edges(self):
        g = CSRGraph.from_edges(2, [(0, 1), (1, 0)])
        sym = symmetrize(g, dedup=True)
        assert sym.num_edges == 2

    def test_symmetrize_idempotent_as_edge_set(self, small_rmat):
        once = symmetrize(small_rmat, dedup=True)
        twice = symmetrize(once, dedup=True)
        assert sorted(once.edges()) == sorted(twice.edges())


class TestCleanup:
    def test_remove_self_loops(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1), (2, 2)])
        out = remove_self_loops(g)
        assert list(out.edges()) == [(0, 1)]

    def test_remove_self_loops_keeps_weights(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1)], weights=[9, 5])
        out = remove_self_loops(g)
        assert list(out.weights) == [5]

    def test_remove_duplicates(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 1), (1, 2)])
        assert remove_duplicate_edges(g).num_edges == 2


class TestRelabelByDegree:
    def test_descending_puts_hub_first(self, star):
        relabelled, perm = relabel_by_degree(star, descending=True)
        assert perm[0] == 0  # the hub keeps ID 0
        assert relabelled.out_degrees[0] == star.out_degrees[0]

    def test_degree_multiset_preserved(self, small_rmat):
        relabelled, _ = relabel_by_degree(small_rmat)
        assert sorted(relabelled.out_degrees) == sorted(
            small_rmat.out_degrees
        )

    def test_degrees_sorted_descending(self, small_rmat):
        relabelled, _ = relabel_by_degree(small_rmat, descending=True)
        degrees = relabelled.out_degrees
        assert all(degrees[i] >= degrees[i + 1] for i in range(len(degrees) - 1))

    def test_permutation_is_bijection(self, small_rmat):
        _, perm = relabel_by_degree(small_rmat)
        assert sorted(perm) == list(range(small_rmat.num_vertices))

    def test_results_map_back(self, small_rmat):
        """BFS on the relabelled graph, mapped back through the
        permutation, equals BFS on the original."""
        relabelled, perm = relabel_by_degree(small_rmat)
        root = 5
        original = run_reference(BFS(root=root), small_rmat).properties
        renamed = run_reference(
            BFS(root=int(perm[root])), relabelled
        ).properties
        assert np.array_equal(apply_permutation(renamed, perm), original)

    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40
        )
    )
    def test_property_edge_count_preserved(self, edges):
        g = CSRGraph.from_edges(8, edges)
        relabelled, _ = relabel_by_degree(g)
        assert relabelled.num_edges == g.num_edges


class TestHelpers:
    def test_apply_permutation_misaligned(self):
        with pytest.raises(GraphFormatError):
            apply_permutation(np.ones(3), np.arange(4))

    def test_largest_out_component_root(self, star):
        assert largest_out_component_root(star) == 0

    def test_root_of_empty_graph(self):
        with pytest.raises(GraphFormatError):
            largest_out_component_root(CSRGraph.from_edges(0, []))
