"""Cycle-accurate tile simulator: correctness + timing-model validation."""

import numpy as np
import pytest

from repro.algorithms import (
    BFS,
    SSSP,
    ConnectedComponents,
    PageRank,
    run_reference,
)
from repro.algorithms.reference import gather_frontier_edges
from repro.core import CycleAccurateScalaGraph, ScalaGraph, ScalaGraphConfig
from repro.graph.generators import rmat_graph, star_graph
from repro.mapping import RowOrientedMapping
from repro.noc.topology import MeshTopology

ENGINES = ["reference", "vectorized"]


def small_config(engine, **kwargs):
    """A 4x4 single tile with both engine fields set to ``engine``."""
    defaults = dict(
        num_tiles=1, pe_rows=4, pe_cols=4,
        noc_engine=engine, cycle_engine=engine,
    )
    defaults.update(kwargs)
    return ScalaGraphConfig(**defaults)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(7, edge_factor=8, seed=3)


class TestFunctionalCorrectness:
    engine = "reference"

    def test_bfs(self, graph):
        sim = CycleAccurateScalaGraph(small_config(self.engine))
        result = sim.run(BFS(), graph)
        ref = run_reference(BFS(), graph)
        assert np.array_equal(result.properties, ref.properties)
        assert result.converged == ref.converged

    def test_sssp(self, graph):
        g = graph.with_random_weights(1, 20, seed=1)
        sim = CycleAccurateScalaGraph(small_config(self.engine))
        result = sim.run(SSSP(), g)
        assert np.array_equal(
            result.properties, run_reference(SSSP(), g).properties
        )

    def test_cc(self, graph):
        sim = CycleAccurateScalaGraph(small_config(self.engine))
        result = sim.run(ConnectedComponents(), graph)
        assert np.array_equal(
            result.properties,
            run_reference(ConnectedComponents(), graph).properties,
        )

    def test_pagerank_close(self, graph):
        sim = CycleAccurateScalaGraph(small_config(self.engine))
        result = sim.run(PageRank(max_iters=4), graph)
        ref = run_reference(PageRank(max_iters=4), graph)
        assert np.allclose(result.properties, ref.properties, rtol=1e-9)

    def test_without_aggregation(self, graph):
        sim = CycleAccurateScalaGraph(
            small_config(self.engine, aggregation_registers=0)
        )
        result = sim.run(BFS(), graph)
        assert np.array_equal(
            result.properties, run_reference(BFS(), graph).properties
        )
        assert result.stats.updates_coalesced == 0

    def test_som_mapping(self, graph):
        sim = CycleAccurateScalaGraph(small_config(self.engine, mapping="som"))
        result = sim.run(BFS(), graph)
        assert np.array_equal(
            result.properties, run_reference(BFS(), graph).properties
        )

    def test_dom_mapping(self, graph):
        """DOM groups dispatch by destination; results must match."""
        sim = CycleAccurateScalaGraph(small_config(self.engine, mapping="dom"))
        result = sim.run(BFS(), graph)
        assert np.array_equal(
            result.properties, run_reference(BFS(), graph).properties
        )
        assert result.stats.noc_hops == 0  # all accesses local under DOM

    def test_hotspot_star(self):
        star = star_graph(64, outward=True)
        sim = CycleAccurateScalaGraph(small_config(self.engine))
        result = sim.run(BFS(), star)
        assert np.array_equal(
            result.properties, run_reference(BFS(), star).properties
        )


class TestFunctionalCorrectnessVectorized(TestFunctionalCorrectness):
    engine = "vectorized"


class TestTimingAccounting:
    engine = "reference"

    def test_all_updates_processed(self, graph):
        sim = CycleAccurateScalaGraph(small_config(self.engine))
        result = sim.run(PageRank(max_iters=2), graph)
        assert result.stats.updates_processed == 2 * graph.num_edges
        # Every update either coalesced or reached an SPD.
        assert (
            result.stats.spd_reduces + result.stats.updates_coalesced
            == result.stats.updates_processed
        )

    def test_scatter_cycles_bounded_below_by_ideal(self, graph):
        """A 16-PE tile cannot beat edges/16 cycles."""
        sim = CycleAccurateScalaGraph(small_config(self.engine))
        result = sim.run(PageRank(max_iters=2), graph)
        for cycles in result.stats.scatter_cycles:
            assert cycles >= graph.num_edges / 16

    def test_matches_analytic_model_within_factor(self, graph):
        """The validation check: cycle-accurate and analytic Scatter
        cycles agree within 2x once the analytic model's fixed per-phase
        overhead is excluded."""
        config = small_config(self.engine)
        cycle_sim = CycleAccurateScalaGraph(config)
        ref = run_reference(PageRank(max_iters=3), graph)
        cycle_result = cycle_sim.run(PageRank(max_iters=3), graph)

        analytic = ScalaGraph(config).run(
            PageRank(max_iters=3), graph, reference=ref
        )
        overhead = config.timing.phase_overhead_cycles
        for measured, it in zip(
            cycle_result.stats.scatter_cycles, analytic.iterations
        ):
            modelled = max(it.scatter_cycles - overhead, 1.0)
            ratio = measured / modelled
            assert 0.5 < ratio < 2.0, (measured, modelled)

    def test_aggregation_reduces_cycles(self, graph):
        with_agg = CycleAccurateScalaGraph(small_config(self.engine)).run(
            PageRank(max_iters=2), graph
        )
        without = CycleAccurateScalaGraph(
            small_config(self.engine, aggregation_registers=0)
        ).run(PageRank(max_iters=2), graph)
        assert with_agg.stats.updates_coalesced > 0
        assert (
            sum(with_agg.stats.scatter_cycles)
            <= sum(without.stats.scatter_cycles)
        )

    def test_degree_aware_window_reduces_lines(self, graph):
        packed = CycleAccurateScalaGraph(small_config(self.engine)).run(
            BFS(), graph
        )
        unpacked = CycleAccurateScalaGraph(
            small_config(self.engine, degree_aware_window=1)
        ).run(BFS(), graph)
        assert packed.stats.dispatch_lines <= unpacked.stats.dispatch_lines

    def test_noc_hops_counted(self, graph):
        result = CycleAccurateScalaGraph(small_config(self.engine)).run(
            BFS(), graph
        )
        assert result.stats.noc_hops > 0

    def test_total_cycles_sum(self, graph):
        result = CycleAccurateScalaGraph(small_config(self.engine)).run(
            BFS(), graph
        )
        assert result.stats.total_cycles == sum(
            result.stats.scatter_cycles
        ) + sum(result.stats.apply_cycles)


class TestTimingAccountingVectorized(TestTimingAccounting):
    engine = "vectorized"


class TestArchitecturalAccounting:
    """Accounting checks that hold for both cycle engines."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rom_hops_match_mapping_model_without_aggregation(self, engine):
        """Without aggregation the routed hop count equals the analytic
        link-load accounting: the cross-check that validates the
        at-scale timing model."""
        g = rmat_graph(6, edge_factor=4, seed=11)
        config = small_config(engine, mapping="rom", aggregation_registers=0)
        result = CycleAccurateScalaGraph(config).run(PageRank(max_iters=1), g)
        src, dst, _ = gather_frontier_edges(g, np.arange(g.num_vertices))
        expected = RowOrientedMapping(MeshTopology(4, 4)).scatter_traffic(
            src, dst
        )
        assert result.stats.noc_hops == expected.total_hops

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rom_fewer_hops_than_som(self, engine):
        g = rmat_graph(6, edge_factor=8, seed=9)
        hops = {
            mapping: CycleAccurateScalaGraph(
                small_config(
                    engine,
                    mapping=mapping,
                    aggregation_registers=0,
                )
            ).run(PageRank(max_iters=2), g).stats.noc_hops
            for mapping in ("rom", "som")
        }
        assert hops["rom"] < hops["som"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_aggregation_coalesces_and_cuts_spd_reduces(self, engine):
        g = rmat_graph(6, edge_factor=8, seed=7)
        with_agg, without = (
            CycleAccurateScalaGraph(
                small_config(engine, aggregation_registers=r)
            ).run(PageRank(max_iters=3), g).stats
            for r in (16, 0)
        )
        assert with_agg.updates_coalesced > 0
        assert without.updates_coalesced == 0
        assert with_agg.spd_reduces < without.spd_reduces

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "program",
        [BFS(), ConnectedComponents(), PageRank(max_iters=3)],
        ids=["bfs", "cc", "pagerank-capped"],
    )
    def test_iterations_and_convergence_match_reference(
        self, engine, program
    ):
        g = rmat_graph(6, edge_factor=5, seed=12)
        result = CycleAccurateScalaGraph(small_config(engine)).run(program, g)
        ref = run_reference(program, g)
        assert result.stats.iterations == ref.num_iterations
        assert result.converged == ref.converged
