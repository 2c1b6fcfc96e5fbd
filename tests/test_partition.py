"""Unit tests for Graphicionado-style interval partitioning."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.generators import rmat_graph
from repro.graph.partition import num_partitions_for, slice_intervals


class TestPartitionCount:
    def test_fits_in_one(self):
        assert num_partitions_for(100, 1000) == 1

    def test_exact_fit(self):
        assert num_partitions_for(1000, 1000) == 1

    def test_ceil(self):
        assert num_partitions_for(1001, 1000) == 2
        assert num_partitions_for(2500, 1000) == 3

    def test_empty_graph(self):
        assert num_partitions_for(0, 10) == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            num_partitions_for(10, 0)


class TestSlicing:
    def test_intervals_cover_all_vertices(self, medium_rmat):
        parts = slice_intervals(medium_rmat, 100)
        assert parts[0].lo == 0
        assert parts[-1].hi == medium_rmat.num_vertices
        for a, b in zip(parts, parts[1:]):
            assert a.hi == b.lo

    def test_intervals_fit_capacity(self, medium_rmat):
        parts = slice_intervals(medium_rmat, 100)
        assert all(p.num_vertices <= 100 for p in parts)

    def test_edge_counts_sum(self, medium_rmat):
        parts = slice_intervals(medium_rmat, 100)
        dst = medium_rmat.indices
        masks = np.array([p.mask(dst) for p in parts])
        assert masks.sum() == medium_rmat.num_edges
        assert np.all(masks.sum(axis=0) == 1)  # each edge in one partition

    def test_single_partition_when_fits(self, medium_rmat):
        parts = slice_intervals(medium_rmat, medium_rmat.num_vertices)
        assert len(parts) == 1
        assert parts[0].mask(medium_rmat.indices).all()

    def test_mask_selects_partition_edges(self, medium_rmat):
        parts = slice_intervals(medium_rmat, 300)
        dst = medium_rmat.indices
        selected = 0
        for p in parts:
            mask = p.mask(dst)
            selected += int(mask.sum())
            assert np.all(dst[mask] >= p.lo)
            assert np.all(dst[mask] < p.hi)
        assert selected == medium_rmat.num_edges

    def test_contains(self):
        g = rmat_graph(5, edge_factor=2, seed=0)
        parts = slice_intervals(g, 10)
        for p in parts:
            assert p.mask(np.array([p.lo, p.hi])).tolist() == [True, False]


class TestPartitionOf:

    def test_round_robin_order(self, medium_rmat):
        parts = slice_intervals(medium_rmat, 256)
        assert [p.index for p in parts] == list(range(len(parts)))
