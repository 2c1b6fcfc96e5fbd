"""Tests for the extension algorithms: SpMV and widest path (SSWP)."""

import heapq

import numpy as np
import pytest

from repro.algorithms import SpMV, WidestPath, make_algorithm, run_reference
from repro.core import CycleAccurateScalaGraph, ScalaGraph, ScalaGraphConfig
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph

#: A 4x4 tile per cycle-engine stack, both engine fields pinned.
CYCLE_CONFIGS = [
    ScalaGraphConfig(
        num_tiles=1, pe_rows=4, pe_cols=4, noc_engine=e, cycle_engine=e
    )
    for e in ("reference", "vectorized")
]


def gold_spmv(graph, x):
    """y[u] = sum over edges (v, u) of x[v] * w(v, u)."""
    y = np.zeros(graph.num_vertices)
    src = graph.edge_sources()
    w = graph.weights if graph.is_weighted else np.ones(graph.num_edges)
    np.add.at(y, graph.indices, x[src] * w)
    return y


def gold_widest_path(graph, source):
    """Dijkstra variant maximising the bottleneck width."""
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


class TestSpMV:
    def test_matches_gold(self, small_rmat):
        g = small_rmat.with_random_weights(1, 9, seed=0)
        x = np.arange(g.num_vertices, dtype=np.float64)
        result = run_reference(SpMV(x=x), g)
        assert np.allclose(result.properties, gold_spmv(g, x))

    def test_default_vector_gives_weighted_indegree(self, tiny_graph):
        result = run_reference(SpMV(), tiny_graph)
        expected = gold_spmv(tiny_graph, np.ones(5))
        assert np.allclose(result.properties, expected)

    def test_single_iteration(self, small_rmat):
        result = run_reference(SpMV(), small_rmat)
        assert result.num_iterations == 1
        assert result.converged

    def test_unweighted_counts_in_degree(self, chain):
        result = run_reference(SpMV(), chain)
        assert np.array_equal(result.properties, chain.in_degrees())

    def test_rejects_misshapen_vector(self, chain):
        with pytest.raises(ConfigurationError):
            run_reference(SpMV(x=np.ones(3)), chain)

    def test_registry(self):
        assert make_algorithm("spmv").name == "spmv"

    def test_on_accelerator(self, medium_rmat):
        g = medium_rmat.with_random_weights(1, 9, seed=1)
        report = ScalaGraph(ScalaGraphConfig()).run(SpMV(), g)
        assert np.allclose(report.properties, gold_spmv(g, np.ones(g.num_vertices)))
        assert len(report.iterations) == 1

    def test_functional_sim_close(self):
        """The cycle-accurate tile computes the gold SpMV result."""
        g = rmat_graph(5, edge_factor=5, seed=3).with_random_weights(1, 9)
        for config in CYCLE_CONFIGS:
            sim = CycleAccurateScalaGraph(config).run(SpMV(), g)
            assert np.allclose(
                sim.properties, gold_spmv(g, np.ones(g.num_vertices))
            )


class TestWidestPath:
    def test_matches_dijkstra(self, small_rmat):
        g = small_rmat.with_random_weights(1, 50, seed=2)
        result = run_reference(WidestPath(source=0), g)
        assert np.array_equal(result.properties, gold_widest_path(g, 0))

    def test_source_is_infinite(self, chain):
        g = chain.with_random_weights(1, 9)
        result = run_reference(WidestPath(source=0), g)
        assert np.isinf(result.properties[0])

    def test_chain_bottleneck_is_min_prefix(self):
        g = CSRGraph.from_edges(
            4, [(0, 1), (1, 2), (2, 3)], weights=[5, 2, 9]
        )
        result = run_reference(WidestPath(source=0), g)
        assert list(result.properties[1:]) == [5, 2, 2]

    def test_unreachable_width_zero(self, chain):
        g = chain.with_random_weights(1, 9)
        result = run_reference(WidestPath(source=5), g)
        assert np.all(result.properties[:5] == 0)

    def test_monotonic_flag_enables_pipelining(self, medium_rmat):
        g = medium_rmat.with_random_weights(1, 50, seed=4)
        report = ScalaGraph(ScalaGraphConfig()).run(WidestPath(), g)
        assert report.extra["pipelining_used"] == 1.0

    def test_rejects_bad_source(self, chain):
        with pytest.raises(ConfigurationError):
            run_reference(WidestPath(source=99), chain)
        with pytest.raises(ConfigurationError):
            WidestPath(source=-1)

    def test_rejects_negative_weights(self, chain):
        g = chain.with_weights(np.full(chain.num_edges, -2))
        with pytest.raises(ConfigurationError):
            run_reference(WidestPath(), g)

    def test_functional_sim_exact(self):
        """The cycle-accurate tile computes the reference widths."""
        g = rmat_graph(5, edge_factor=5, seed=5).with_random_weights(1, 20)
        ref = run_reference(WidestPath(), g)
        for config in CYCLE_CONFIGS:
            sim = CycleAccurateScalaGraph(config).run(WidestPath(), g)
            assert np.array_equal(sim.properties, ref.properties)

    def test_registry(self):
        assert make_algorithm("sswp", source=2).source == 2
