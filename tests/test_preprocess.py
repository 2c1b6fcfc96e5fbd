"""Unit tests for the degree-aware edge-lane preprocessing (IV-C)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.preprocess import default_lane_hash, lane_reorder


class TestLaneReorder:
    def test_preserves_structure(self, small_rmat):
        out = lane_reorder(small_rmat, lanes=4)
        assert np.array_equal(out.indptr, small_rmat.indptr)
        assert out.num_edges == small_rmat.num_edges

    def test_preserves_per_vertex_edge_multiset(self, small_rmat):
        out = lane_reorder(small_rmat, lanes=4)
        for v in range(small_rmat.num_vertices):
            assert sorted(out.neighbors(v)) == sorted(small_rmat.neighbors(v))

    def test_round_robin_lane_order(self, small_rmat):
        """After reordering, a vertex's i-th edge targets lane i % K as
        long as every lane still has supply (the Section IV-C layout
        rule: cacheline position == PE column)."""
        lanes = 4
        out = lane_reorder(small_rmat, lanes=lanes)
        for v in range(small_rmat.num_vertices):
            neigh = out.neighbors(v)
            lane_seq = default_lane_hash(neigh, lanes)
            remaining = np.bincount(lane_seq, minlength=lanes).astype(int)
            expected = 0
            for lane in lane_seq:
                # Find the next lane (round-robin) that still has edges.
                probe = expected
                for _ in range(lanes):
                    if remaining[probe] > 0:
                        break
                    probe = (probe + 1) % lanes
                assert lane == probe
                remaining[probe] -= 1
                expected = (probe + 1) % lanes

    def test_carries_weights(self, tiny_graph):
        out = lane_reorder(tiny_graph, lanes=2)
        # Weight multiset per vertex is preserved.
        for v in range(tiny_graph.num_vertices):
            assert sorted(out.edge_weights(v)) == sorted(
                tiny_graph.edge_weights(v)
            )

    def test_weights_stay_attached(self, tiny_graph):
        out = lane_reorder(tiny_graph, lanes=2)
        before = {
            (int(s), int(d)): int(w)
            for s, d, w in zip(
                tiny_graph.edge_sources(), tiny_graph.indices, tiny_graph.weights
            )
        }
        for s, d, w in zip(out.edge_sources(), out.indices, out.weights):
            assert before[(int(s), int(d))] == int(w)

    def test_empty_graph(self):
        g = CSRGraph.from_edges(4, [])
        assert lane_reorder(g, 4) is g

    def test_single_lane_is_identity_layout(self, small_rmat):
        out = lane_reorder(small_rmat, lanes=1)
        for v in range(small_rmat.num_vertices):
            assert sorted(out.neighbors(v)) == sorted(small_rmat.neighbors(v))

    def test_rejects_nonpositive_lanes(self, small_rmat):
        with pytest.raises(ConfigurationError):
            lane_reorder(small_rmat, lanes=0)

    def test_rejects_bad_hash(self, small_rmat):
        with pytest.raises(ConfigurationError):
            lane_reorder(small_rmat, lanes=2, lane_hash=lambda d, k: d * 0 + 5)

    def test_custom_hash(self, small_rmat):
        out = lane_reorder(
            small_rmat, lanes=2, lane_hash=lambda d, k: (d // 3) % k
        )
        assert out.num_edges == small_rmat.num_edges

    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=64
        ),
        st.integers(1, 8),
    )
    def test_property_edge_multiset_preserved(self, edges, lanes):
        g = CSRGraph.from_edges(8, edges)
        out = lane_reorder(g, lanes=lanes)
        assert sorted(out.edges()) == sorted(g.edges())
