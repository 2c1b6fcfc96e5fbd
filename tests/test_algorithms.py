"""Unit tests for the four vertex programs, cross-checked with networkx."""

import tracemalloc

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import (
    ALGORITHMS,
    BFS,
    SSSP,
    ConnectedComponents,
    PageRank,
    make_algorithm,
    run_reference,
)
from repro.algorithms.base import ProgramContext, scatter_values
from repro.algorithms.reference import gather_frontier_edges
from repro.core import CycleAccurateScalaGraph, ScalaGraphConfig
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph


def to_networkx(graph: CSRGraph) -> nx.DiGraph:
    nxg = nx.DiGraph()
    nxg.add_nodes_from(range(graph.num_vertices))
    src = graph.edge_sources()
    if graph.is_weighted:
        nxg.add_weighted_edges_from(
            zip(src.tolist(), graph.indices.tolist(), graph.weights.tolist())
        )
    else:
        nxg.add_edges_from(zip(src.tolist(), graph.indices.tolist()))
    return nxg


class TestRegistry:
    def test_make_algorithm(self):
        assert make_algorithm("bfs").name == "bfs"
        assert make_algorithm("PageRank").name == "pagerank"

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_algorithm("dijkstra")

    def test_kwargs_forwarded(self):
        assert make_algorithm("bfs", root=3).root == 3


class TestBFS:
    def test_matches_networkx(self, small_rmat):
        result = run_reference(BFS(root=0), small_rmat)
        expected = nx.single_source_shortest_path_length(
            to_networkx(small_rmat), 0
        )
        for v in range(small_rmat.num_vertices):
            if v in expected:
                assert result.properties[v] == expected[v]
            else:
                assert np.isinf(result.properties[v])

    def test_chain_depths(self, chain):
        result = run_reference(BFS(root=0), chain)
        assert np.array_equal(result.properties, np.arange(10, dtype=float))

    def test_unreachable(self, chain):
        result = run_reference(BFS(root=5), chain)
        assert np.all(np.isinf(result.properties[:5]))

    def test_traits(self):
        bfs = BFS()
        assert bfs.monotonic and not bfs.all_active and not bfs.needs_weights

    def test_invalid_root(self, chain):
        with pytest.raises(ConfigurationError):
            run_reference(BFS(root=100), chain)
        with pytest.raises(ConfigurationError):
            BFS(root=-1)

    def test_ignores_weights(self, tiny_graph):
        result = run_reference(BFS(root=0), tiny_graph)
        assert result.properties[3] == 2  # two hops, not weight sum


class TestSSSP:
    def test_matches_networkx_dijkstra(self, small_rmat):
        g = small_rmat.with_random_weights(low=1, high=20, seed=5)
        result = run_reference(SSSP(source=0), g)
        expected = nx.single_source_dijkstra_path_length(
            to_networkx(g), 0
        )
        for v in range(g.num_vertices):
            if v in expected:
                assert result.properties[v] == pytest.approx(expected[v])
            else:
                assert np.isinf(result.properties[v])

    def test_zero_weights_allowed(self, chain):
        g = chain.with_weights(np.zeros(chain.num_edges, dtype=np.int64))
        result = run_reference(SSSP(), g)
        assert np.all(result.properties == 0)

    def test_rejects_negative_weights(self, chain):
        g = chain.with_weights(np.full(chain.num_edges, -1))
        with pytest.raises(ConfigurationError):
            run_reference(SSSP(), g)

    def test_unweighted_graph_degenerates_to_bfs(self, small_rmat):
        sssp = run_reference(SSSP(source=0), small_rmat)
        bfs = run_reference(BFS(root=0), small_rmat)
        assert np.array_equal(sssp.properties, bfs.properties)

    def test_traits(self):
        assert SSSP().monotonic and SSSP().needs_weights

    def test_invalid_source(self, chain):
        with pytest.raises(ConfigurationError):
            run_reference(SSSP(source=99), chain)


class TestConnectedComponents:
    def test_matches_networkx_on_symmetric_graph(self, small_rmat):
        # Symmetrise so directed label propagation equals undirected CC.
        src = small_rmat.edge_sources()
        both = np.concatenate(
            [
                np.stack([src, small_rmat.indices], axis=1),
                np.stack([small_rmat.indices, src], axis=1),
            ]
        )
        sym = CSRGraph.from_edges(small_rmat.num_vertices, both)
        result = run_reference(ConnectedComponents(), sym)
        comps = list(nx.connected_components(to_networkx(sym).to_undirected()))
        for comp in comps:
            labels = {result.properties[v] for v in comp}
            assert len(labels) == 1
            assert min(labels) == min(comp)

    def test_chain_single_component(self, chain):
        result = run_reference(ConnectedComponents(), chain)
        assert np.all(result.properties == 0)

    def test_isolated_vertices_keep_own_label(self):
        g = CSRGraph.from_edges(4, [(0, 1)])
        result = run_reference(ConnectedComponents(), g)
        assert result.properties[2] == 2
        assert result.properties[3] == 3

    def test_all_vertices_initially_active(self, chain):
        result = run_reference(ConnectedComponents(), chain)
        assert result.iterations[0].num_active == chain.num_vertices

    def test_traits(self):
        assert ConnectedComponents().monotonic


class TestPageRank:
    def test_matches_networkx(self):
        # Use a graph with no dangling vertices so the simple VCM
        # PageRank matches networkx's handling: close a cycle over all
        # vertices, then add RMAT edges on top.
        base = rmat_graph(6, edge_factor=8, seed=3, name="pr")
        n = base.num_vertices
        src = base.edge_sources()
        cycle = np.stack(
            [np.arange(n), (np.arange(n) + 1) % n], axis=1
        )
        pairs = np.concatenate(
            [np.stack([src, base.indices], axis=1), cycle]
        )
        # Dedup: networkx's DiGraph collapses parallel edges, so compare
        # on a simple graph.
        g = CSRGraph.from_edges(n, pairs, name="pr", dedup=True)
        assert (g.out_degrees > 0).all()
        result = run_reference(PageRank(max_iters=100, tolerance=1e-12), g)
        expected = nx.pagerank(
            to_networkx(g), alpha=0.85, max_iter=200, tol=1e-12
        )
        ours = result.properties / result.properties.sum()
        for v in range(g.num_vertices):
            assert ours[v] == pytest.approx(expected[v], rel=1e-3)

    def test_respects_max_iters(self, small_rmat):
        result = run_reference(PageRank(max_iters=3), small_rmat)
        assert result.num_iterations <= 3

    def test_all_active_each_iteration(self, small_rmat):
        result = run_reference(PageRank(max_iters=3), small_rmat)
        for trace in result.iterations:
            assert trace.num_active == small_rmat.num_vertices

    def test_tolerance_convergence(self):
        g = rmat_graph(5, edge_factor=8, seed=0)
        result = run_reference(PageRank(max_iters=500, tolerance=1e-10), g)
        assert result.converged

    def test_not_monotonic(self):
        assert not PageRank().monotonic

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            PageRank(damping=1.5)
        with pytest.raises(ConfigurationError):
            PageRank(tolerance=-1)
        with pytest.raises(ConfigurationError):
            PageRank(max_iters=0)

    def test_uniform_on_cycle(self):
        n = 6
        edges = [(i, (i + 1) % n) for i in range(n)]
        g = CSRGraph.from_edges(n, edges)
        result = run_reference(PageRank(max_iters=200, tolerance=1e-12), g)
        assert np.allclose(result.properties, 1.0 / n)


class TestProgramContext:
    def test_caches_degrees(self, tiny_graph):
        ctx = ProgramContext(graph=tiny_graph)
        assert np.array_equal(ctx.out_degrees, tiny_graph.out_degrees)
        assert ctx.num_vertices == 5


class _OldSignature(ConnectedComponents):
    """Connected components written to take the gathered
    ``props[edge_src]``: handed the whole property array, it returns one
    value per vertex."""

    def scatter_value(self, ctx, edge_src, edge_weight, src_prop):
        return src_prop


class TestScatterValues:
    """Every engine computes a frontier's values through
    :func:`scatter_values`, which hands the program the whole property
    array."""

    GRAPH = rmat_graph(12, edge_factor=16, seed=1)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_one_frontier_traces_one_value_per_edge(self, name, weighted):
        """A program gathers once per edge: computing an all-active
        frontier's values traces the values (8 bytes per edge) plus at
        most 32 bytes per vertex (a per-vertex array or two, and NumPy's
        64 KiB buffer when it combines the values with int64 weights in
        place).  Gathering ``props[src]`` before the call, PageRank held
        three per-edge float64 arrays here, and BFS, SSSP, SSWP and SpMV
        two."""
        graph = self.GRAPH
        if weighted:
            graph = graph.with_random_weights(seed=2)
        ctx = ProgramContext(graph=graph)
        src, _, weights = gather_frontier_edges(
            graph, np.arange(graph.num_vertices)
        )
        program = make_algorithm(name)
        props = program.initial_properties(ctx)
        tracemalloc.start()
        try:
            values = scatter_values(program, ctx, src, weights, props)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == src.shape
        assert peak <= 8 * src.size + 32 * graph.num_vertices

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_the_cycle_engines_refuse_the_old_signature(self, engine):
        config = ScalaGraphConfig(
            num_tiles=1, pe_rows=4, pe_cols=4, cycle_engine=engine,
            noc_engine=engine,
        )
        graph = rmat_graph(6, edge_factor=8, seed=3)
        with pytest.raises(ConfigurationError, match="_OldSignature"):
            CycleAccurateScalaGraph(config).run(_OldSignature(), graph)

    def test_the_reference_refuses_the_old_signature(self):
        graph = rmat_graph(6, edge_factor=8, seed=3)
        with pytest.raises(ConfigurationError, match="_OldSignature"):
            run_reference(_OldSignature(), graph)
