"""Workload-mapping tests: the Section IV-A / Table II properties."""

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.algorithms.reference import gather_frontier_edges
from repro.core import CycleAccurateScalaGraph, ScalaGraph, ScalaGraphConfig
from repro.graph.generators import rmat_graph
from repro.mapping import (
    MAPPINGS,
    DestinationOrientedMapping,
    Mapping,
    RowOrientedMapping,
    SourceOrientedMapping,
    make_mapping,
    vertex_home,
)
from repro.noc.topology import MeshTopology


@pytest.fixture
def topo():
    return MeshTopology(4, 4)


@pytest.fixture
def edges(medium_rmat):
    active = np.arange(medium_rmat.num_vertices)
    src, dst, _ = gather_frontier_edges(medium_rmat, active)
    return src, dst


class TestRegistry:
    def test_make_mapping(self, topo):
        assert isinstance(make_mapping("som", topo), SourceOrientedMapping)
        assert isinstance(make_mapping("DOM", topo), DestinationOrientedMapping)
        assert isinstance(make_mapping("rom", topo), RowOrientedMapping)

    def test_unknown(self, topo):
        with pytest.raises(KeyError):
            make_mapping("xyz", topo)

    def test_vertex_home_hash(self):
        homes = vertex_home(np.arange(100), 16)
        assert np.array_equal(homes, np.arange(100) % 16)


class TestExecutionPlacement:
    def test_som_executes_at_source_home(self, topo, edges):
        src, dst = edges
        mapping = SourceOrientedMapping(topo)
        assert np.array_equal(mapping.execution_pe(src, dst), src % 16)

    def test_dom_executes_at_destination_home(self, topo, edges):
        src, dst = edges
        mapping = DestinationOrientedMapping(topo)
        assert np.array_equal(mapping.execution_pe(src, dst), dst % 16)

    def test_rom_row_of_source_column_of_destination(self, topo, edges):
        """The defining ROM rule: execution PE shares the source's home
        row and the destination's home column (Figure 10d)."""
        src, dst = edges
        mapping = RowOrientedMapping(topo)
        pes = mapping.execution_pe(src, dst)
        assert np.array_equal(topo.rows_of(pes), topo.rows_of(src % 16))
        assert np.array_equal(topo.cols_of(pes), topo.cols_of(dst % 16))


class TestScatterTraffic:
    def test_dom_scatter_is_free(self, topo, edges):
        src, dst = edges
        traffic = DestinationOrientedMapping(topo).scatter_traffic(src, dst)
        assert traffic.num_messages == 0
        assert traffic.total_hops == 0

    def test_rom_uses_only_vertical_links(self, topo, edges):
        src, dst = edges
        traffic = RowOrientedMapping(topo).scatter_traffic(src, dst)
        assert traffic.link_report.east.sum() == 0
        assert traffic.link_report.west.sum() == 0
        assert traffic.link_report.south.sum() + traffic.link_report.north.sum() > 0

    def test_rom_halves_som_traffic(self, topo, edges):
        """Table II: ROM's Scatter traffic is ~half of SOM's on a square
        mesh (the row dimension becomes local)."""
        src, dst = edges
        som = SourceOrientedMapping(topo).scatter_traffic(src, dst)
        rom = RowOrientedMapping(topo).scatter_traffic(src, dst)
        assert rom.total_hops < som.total_hops
        assert rom.total_hops == pytest.approx(som.total_hops / 2, rel=0.15)

    def test_som_average_hops_scale_sqrt_k(self, edges):
        """O(M sqrt(K)): doubling mesh side doubles average hops."""
        src, dst = edges
        small = SourceOrientedMapping(MeshTopology(4, 4)).scatter_traffic(src, dst)
        large = SourceOrientedMapping(MeshTopology(8, 8)).scatter_traffic(src, dst)
        assert large.average_hops == pytest.approx(
            2 * small.average_hops, rel=0.1
        )

    def test_som_counts_only_remote(self, topo):
        # All edges land on the source's own PE: no traffic.
        src = np.arange(16, dtype=np.int64)
        traffic = SourceOrientedMapping(topo).scatter_traffic(src, src)
        assert traffic.num_messages == 0


class TestApplyTraffic:
    def test_som_rom_apply_free(self, topo):
        updated = np.arange(100)
        assert SourceOrientedMapping(topo).apply_traffic(updated).total_hops == 0
        assert RowOrientedMapping(topo).apply_traffic(updated).total_hops == 0

    def test_dom_apply_scales_with_k(self, topo):
        """Table II: DOM's Apply traffic is O(N * K)."""
        updated = np.arange(100)
        traffic = DestinationOrientedMapping(topo).apply_traffic(updated)
        assert traffic.num_messages == 100 * 15
        bigger = DestinationOrientedMapping(MeshTopology(8, 8)).apply_traffic(
            updated
        )
        assert bigger.num_messages == 100 * 63


class TestOffchipAndStorage:
    def test_som_rom_offchip_linear(self, topo):
        som = SourceOrientedMapping(topo)
        assert som.offchip_bytes(10, 100) == 10 * 8 + 100 * 4
        assert som.replica_storage_vertices(1000) == 0

    def test_dom_offchip_nk(self, topo):
        dom = DestinationOrientedMapping(topo)
        assert dom.offchip_bytes(10, 100) == 10 * 16 * 8 + 100 * 4

    def test_dom_replica_storage_nk(self, topo):
        dom = DestinationOrientedMapping(topo)
        assert dom.replica_storage_vertices(1000) == 16_000


class TestTableIIOrdering:
    def test_total_scatter_plus_apply_rom_minimal(self, edges):
        """ROM yields the least total on-chip traffic of the three
        mappings for a frontier with many updates (Table II's headline:
        the smallest communication traffic in total)."""
        topo = MeshTopology(8, 8)
        src, dst = edges
        updated = np.unique(dst)
        totals = {}
        for name in ("som", "dom", "rom"):
            mapping = make_mapping(name, topo)
            totals[name] = (
                mapping.scatter_traffic(src, dst).total_hops
                + mapping.apply_traffic(updated).total_hops
            )
        assert totals["rom"] < totals["som"]
        assert totals["rom"] < totals["dom"]


class _DomByMethods(Mapping):
    """A DOM in every method and attribute, each read from the DOM it
    wraps, but not a :class:`DestinationOrientedMapping` by class."""

    def __init__(self, topology):
        super().__init__(topology)
        self.dom = DestinationOrientedMapping(topology)

    def __getattribute__(self, name):
        if name.startswith("__") or name == "dom":
            return object.__getattribute__(self, name)
        return getattr(self.dom, name)

    # The lookup above forwards these too; the class defines them only
    # because an abstract method must be overridden to instantiate.
    def execution_pe(self, edge_src, edge_dst):
        raise AssertionError("not forwarded")

    def apply_traffic(self, updated_vertices):
        raise AssertionError("not forwarded")


class TestMappingDefinedByMethods:
    """The models ask the mapping, never its class: a mapping that
    behaves as DOM is timed as DOM by every model."""

    GRAPH = rmat_graph(6, edge_factor=8, seed=3)

    @staticmethod
    def config(**kwargs):
        return ScalaGraphConfig(
            num_tiles=1, pe_rows=4, pe_cols=4, mapping="dom", **kwargs
        )

    @staticmethod
    def program(algorithm):
        kwargs = {"max_iters": 2} if algorithm == "pagerank" else {}
        return make_algorithm(algorithm, **kwargs)

    @pytest.fixture
    def dom_by_methods(self, monkeypatch):
        def use_it():
            monkeypatch.setitem(MAPPINGS, "dom", _DomByMethods)

        return use_it

    def test_not_a_dom_by_class(self, topo):
        mapping = _DomByMethods(topo)
        assert not isinstance(mapping, DestinationOrientedMapping)
        assert mapping.name == "dom"

    @pytest.mark.parametrize("algorithm", ["bfs", "pagerank"])
    def test_analytic_report_is_doms(self, dom_by_methods, algorithm):
        def report():
            sim = ScalaGraph(self.config(), enforce_capacity=False)
            result = sim.run(self.program(algorithm), self.GRAPH)
            return type(sim.mapping), result.to_dict(include_iterations=True)

        dom_class, dom = report()
        dom_by_methods()
        forwarding_class, forwarding = report()
        assert (dom_class, forwarding_class) == (
            DestinationOrientedMapping, _DomByMethods
        )
        assert forwarding == dom

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    @pytest.mark.parametrize("algorithm", ["bfs", "pagerank"])
    def test_cycle_engines_run_it_as_dom(
        self, dom_by_methods, engine, algorithm
    ):
        def run():
            sim = CycleAccurateScalaGraph(self.config(cycle_engine=engine))
            result = sim.run(self.program(algorithm), self.GRAPH)
            stats = {
                name: value
                for name, value in vars(result.stats).items()
                if isinstance(value, (int, float, list))
            }
            return type(sim.mapping), stats, result.properties

        dom_class, dom_stats, dom_props = run()
        dom_by_methods()
        forwarding_class, stats, props = run()
        assert (dom_class, forwarding_class) == (
            DestinationOrientedMapping, _DomByMethods
        )
        assert stats == dom_stats
        np.testing.assert_array_equal(props, dom_props)
