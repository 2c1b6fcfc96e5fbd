"""Cycle-sim correctness regressions: identity-valued updates, NoC
backpressure draining, and per-phase counter consistency."""

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank, run_reference
from repro.algorithms.base import VertexProgram
from repro.core import CycleAccurateScalaGraph, ScalaGraphConfig
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph, star_graph


def small_config(engine, **kwargs):
    """A 4x4 single tile with both engine fields set to ``engine``."""
    defaults = dict(
        num_tiles=1, pe_rows=4, pe_cols=4,
        noc_engine=engine, cycle_engine=engine,
    )
    defaults.update(kwargs)
    return ScalaGraphConfig(**defaults)


class ZeroContribution(VertexProgram):
    """A + reduce whose scattered values are all 0.0 — every aggregated
    value legitimately equals the reduce identity.

    Regression for the touched-vertex detection: ``vtemp !=
    reduce_identity`` sees no touched vertices, yet every destination
    received an SPD Reduce and must be charged an Apply slot.
    """

    name = "zero-contribution"

    def initial_properties(self, ctx):
        return np.zeros(ctx.num_vertices, dtype=np.float64)

    def initial_active(self, ctx):
        return np.array([0], dtype=np.int64)

    @property
    def reduce_ufunc(self):
        return np.add

    @property
    def reduce_identity(self):
        return 0.0

    def scatter_value(self, ctx, edge_src, edge_weight, src_prop):
        return np.zeros(edge_src.size, dtype=np.float64)

    def apply_values(self, ctx, props, vtemp):
        return props + vtemp

    def max_iterations(self, ctx):
        return 4


class TestIdentityValuedUpdates:
    engine = "reference"

    def test_zero_update_still_counts_as_touched(self):
        """A 0-valued update under a + reduce must occupy an Apply slot."""
        graph = CSRGraph.from_edges(
            num_vertices=4, edges=[(0, 1), (0, 2)], name="tiny"
        )
        result = CycleAccurateScalaGraph(small_config(self.engine)).run(
            ZeroContribution(), graph
        )
        # One scatter phase ran: 2 edges, 2 SPD reduces...
        assert result.stats.updates_processed == 2
        assert result.stats.spd_reduces + result.stats.updates_coalesced == 2
        # ...and the touched slices were charged Apply cycles even though
        # every vtemp entry equals the reduce identity.
        assert result.stats.apply_cycles[0] >= 1
        # Properties unchanged -> converged after one iteration.
        assert result.stats.iterations == 1
        assert np.all(result.properties == 0.0)

    def test_bfs_timing_unaffected(self):
        """The explicit mask agrees with the value-based detection when
        no aggregated value equals the identity (BFS: min-reduce over
        finite depths, identity +inf)."""
        graph = rmat_graph(6, edge_factor=6, seed=7)
        result = CycleAccurateScalaGraph(small_config(self.engine)).run(
            BFS(), graph
        )
        ref = run_reference(BFS(), graph)
        assert np.array_equal(result.properties, ref.properties)
        # Every iteration that performed reduces charged Apply cycles.
        for spd, apply_cycles in zip(
            result.stats.phase_spd_reduces, result.stats.apply_cycles
        ):
            assert (apply_cycles > 0) == (spd > 0)


class TestIdentityValuedUpdatesVectorized(TestIdentityValuedUpdates):
    engine = "vectorized"


class TestBackpressureDraining:
    """Satellite regression: with buffer_depth=1 every hotspot injection
    bounces repeatedly; the requeue path must neither drop updates nor
    exit the phase early (silently losing them) nor hang."""

    engine = "reference"

    @pytest.mark.parametrize("mapping", ["rom", "som"])
    def test_star_hotspot_drains_with_depth_1(self, mapping):
        star = star_graph(64, outward=True)
        sim = CycleAccurateScalaGraph(
            small_config(self.engine, mapping=mapping), noc_buffer_depth=1
        )
        result = sim.run(BFS(), star)
        ref = run_reference(BFS(), star)
        assert np.array_equal(result.properties, ref.properties)
        assert result.converged
        # Nothing lost: every update coalesced or reduced.
        assert (
            result.stats.spd_reduces + result.stats.updates_coalesced
            == result.stats.updates_processed
        )

    def test_rmat_depth_1_no_aggregation(self):
        """FIFO-only PEs + depth-1 routers: maximum backpressure."""
        graph = rmat_graph(6, edge_factor=8, seed=11)
        sim = CycleAccurateScalaGraph(
            small_config(self.engine, aggregation_registers=0),
            noc_buffer_depth=1,
        )
        result = sim.run(PageRank(max_iters=2), graph)
        ref = run_reference(PageRank(max_iters=2), graph)
        assert np.allclose(result.properties, ref.properties, rtol=1e-9)
        assert result.stats.updates_coalesced == 0
        assert result.stats.spd_reduces == result.stats.updates_processed

    def test_shallow_buffers_cost_cycles_not_correctness(self):
        graph = rmat_graph(6, edge_factor=8, seed=11)
        deep = CycleAccurateScalaGraph(
            small_config(self.engine), noc_buffer_depth=4
        ).run(BFS(), graph)
        shallow = CycleAccurateScalaGraph(
            small_config(self.engine), noc_buffer_depth=1
        ).run(BFS(), graph)
        assert np.array_equal(deep.properties, shallow.properties)
        assert sum(shallow.stats.scatter_cycles) >= sum(
            deep.stats.scatter_cycles
        )


class TestBackpressureDrainingVectorized(TestBackpressureDraining):
    engine = "vectorized"


class TestPerPhaseCounterConsistency:
    """Property-style cross-check: per Scatter phase, every dispatched
    update either coalesces in an aggregation pipeline or retires as
    exactly one SPD Reduce."""

    engine = "reference"

    @pytest.mark.parametrize("mapping", ["rom", "som", "dom"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs(self, mapping, seed):
        graph = rmat_graph(6, edge_factor=5, seed=seed)
        program = PageRank(max_iters=2) if seed % 2 else BFS()
        result = CycleAccurateScalaGraph(
            small_config(self.engine, mapping=mapping)
        ).run(program, graph)
        stats = result.stats
        phases = len(stats.scatter_cycles)
        assert len(stats.phase_updates) == phases
        assert len(stats.phase_coalesced) == phases
        assert len(stats.phase_spd_reduces) == phases
        for updates, coalesced, reduces in zip(
            stats.phase_updates, stats.phase_coalesced, stats.phase_spd_reduces
        ):
            assert reduces == updates - coalesced
        # The per-phase lists sum to the cumulative counters.
        assert sum(stats.phase_updates) == stats.updates_processed
        assert sum(stats.phase_coalesced) == stats.updates_coalesced
        assert sum(stats.phase_spd_reduces) == stats.spd_reduces


class TestPerPhaseCounterConsistencyVectorized(
    TestPerPhaseCounterConsistency
):
    engine = "vectorized"
