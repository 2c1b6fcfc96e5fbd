"""Unit tests for the synthetic graph generators."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.generators import (
    erdos_renyi,
    grid_graph,
    path_graph,
    power_law_graph,
    rmat_graph,
    star_graph,
)


class TestRmat:
    def test_sizes(self):
        g = rmat_graph(8, edge_factor=10, seed=0)
        assert g.num_vertices == 256
        assert g.num_edges == 2560

    def test_deterministic(self):
        a = rmat_graph(6, edge_factor=4, seed=42)
        b = rmat_graph(6, edge_factor=4, seed=42)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)

    def test_seed_changes_graph(self):
        a = rmat_graph(6, edge_factor=4, seed=1)
        b = rmat_graph(6, edge_factor=4, seed=2)
        assert not np.array_equal(a.indices, b.indices)

    def test_skew_produces_power_law(self):
        """Higher `a` concentrates edges on fewer vertices."""
        flat = rmat_graph(10, edge_factor=8, a=0.25, b=0.25, c=0.25, seed=0)
        skewed = rmat_graph(10, edge_factor=8, a=0.7, b=0.1, c=0.1, seed=0)
        assert skewed.max_degree() > 2 * flat.max_degree()

    def test_dedup_reduces_edges(self):
        dense = rmat_graph(4, edge_factor=32, seed=0, dedup=True)
        assert dense.num_edges < 32 * 16

    def test_scale_zero(self):
        g = rmat_graph(0, edge_factor=3, seed=0)
        assert g.num_vertices == 1
        assert g.num_edges == 3  # self loops on the only vertex

    def test_rejects_negative_scale(self):
        with pytest.raises(GraphFormatError):
            rmat_graph(-1)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(GraphFormatError):
            rmat_graph(4, a=0.9, b=0.9, c=0.9)

    BYTES_PER_EDGE = 32

    def test_build_traces_under_the_per_edge_budget(self):
        """The graph keeps 8 bytes per edge (its int64 ``indices``).  The
        build adds one reused float64 draw buffer, two 32-bit id arrays,
        two bit masks and the 16-bit radix keys: about 21 bytes per
        edge at its peak, the graph included.  The int64 ids, (E, 2)
        edge stack and int64 sort of the original build traced 91."""
        tracemalloc.start()
        try:
            graph = rmat_graph(14, seed=17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / graph.num_edges <= self.BYTES_PER_EDGE


class TestErdosRenyi:
    def test_sizes(self):
        g = erdos_renyi(100, 500, seed=0)
        assert g.num_vertices == 100
        assert g.num_edges == 500

    def test_no_self_loops_option(self):
        g = erdos_renyi(50, 2000, seed=0, allow_self_loops=False)
        src = g.edge_sources()
        assert not np.any(src == g.indices)

    def test_roughly_uniform_degrees(self):
        g = erdos_renyi(64, 6400, seed=0)
        degrees = g.out_degrees
        # Uniform placement: no vertex should be wildly off 100 +- noise.
        assert degrees.max() < 200
        assert degrees.min() > 40

    def test_empty_graph_rejects_edges(self):
        with pytest.raises(GraphFormatError):
            erdos_renyi(0, 5)


class TestPowerLaw:
    def test_sizes(self):
        g = power_law_graph(128, 1024, seed=0)
        assert g.num_vertices == 128
        assert g.num_edges == 1024

    def test_exponent_controls_skew(self):
        mild = power_law_graph(256, 4096, exponent=1.2, seed=0)
        harsh = power_law_graph(256, 4096, exponent=2.5, seed=0)
        assert harsh.max_degree() > mild.max_degree()

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(GraphFormatError):
            power_law_graph(10, 10, exponent=0.0)


class TestDeterministicTopologies:
    def test_grid_sizes(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        # Bidirectional: 2 * (rows*(cols-1) + cols*(rows-1)).
        assert g.num_edges == 2 * (3 * 3 + 4 * 2)

    def test_grid_symmetry(self):
        g = grid_graph(3, 3)
        edges = set(g.edges())
        assert all((d, s) in edges for s, d in edges)

    def test_grid_rejects_bad_dims(self):
        with pytest.raises(GraphFormatError):
            grid_graph(0, 3)

    def test_path(self):
        g = path_graph(5)
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_path_trivial(self):
        assert path_graph(1).num_edges == 0
        assert path_graph(0).num_vertices == 0

    def test_star_outward(self):
        g = star_graph(5, outward=True)
        assert g.out_degrees[0] == 5
        assert g.in_degrees()[0] == 0

    def test_star_inward(self):
        g = star_graph(5, outward=False)
        assert g.out_degrees[0] == 0
        assert g.in_degrees()[0] == 5

    def test_star_rejects_negative(self):
        with pytest.raises(GraphFormatError):
            star_graph(-1)
