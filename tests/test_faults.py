"""Fault-injection subsystem: deterministic schedules, fault-for-fault
engine equivalence, detour routing, resource derating, cycle-sim
integration, and graceful engine fallback."""

import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank
from repro.analysis.sanitizer import SimSanitizer
from repro.core import CycleAccurateScalaGraph, ScalaGraph, ScalaGraphConfig
from repro.errors import (
    ConfigurationError,
    EngineFallbackWarning,
    SanitizerError,
)
from repro.faults import (
    FaultConfig,
    FaultSchedule,
    route_with_faults,
)
from repro.graph.generators import rmat_graph
from repro.noc import (
    FastMeshNetwork,
    MeshNetwork,
    MeshTopology,
    Packet,
    make_mesh_network,
)
from repro.noc.router import EAST, LOCAL, NORTH, NUM_PORTS, SOUTH, WEST
from repro.noc.patterns import generate

#: A schedule dense enough to hit live traffic on every topology used
#: below (starts within the first 48 cycles, multi-cycle windows).
DENSE = FaultConfig(
    seed=11, link_outages=4, fifo_stalls=4, horizon=48, min_duration=4,
    max_duration=24,
)


def _drain(engine_cls, topology, src, dst, faults, **kwargs):
    """Drain one workload under ``faults``; return (stats dict, order)."""
    net = engine_cls(
        topology,
        buffer_depth=kwargs.get("buffer_depth", 4),
        sanitizer=SimSanitizer(context="test"),
        faults=faults,
    )
    stagger = kwargs.get("stagger", 0)
    flit_pattern = kwargs.get("flit_pattern", (1,))
    for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
        net.schedule(
            Packet(
                src=s,
                dst=d,
                vertex=i,
                flits=flit_pattern[i % len(flit_pattern)],
                injected_cycle=(i % 11) * stagger,
            )
        )
    stats = net.run_until_drained(max_cycles=2_000_000)
    order = [
        (p.vertex, p.injected_cycle, p.delivered_cycle)
        for p in net.delivered
    ]
    return asdict(stats), order


def _assert_fault_equivalent(topology, src, dst, config=DENSE, **kwargs):
    ref = _drain(
        MeshNetwork, topology, src, dst, FaultSchedule(topology, config),
        **kwargs,
    )
    vec = _drain(
        FastMeshNetwork, topology, src, dst,
        FaultSchedule(topology, config), **kwargs,
    )
    assert ref == vec
    return ref


class TestScheduleDeterminism:
    def test_same_inputs_same_schedule(self):
        topology = MeshTopology(4, 4)
        a = FaultSchedule(topology, DENSE)
        b = FaultSchedule(topology, DENSE)
        assert a.describe() == b.describe()
        assert a.digest() == b.digest()

    def test_seed_changes_schedule(self):
        topology = MeshTopology(4, 4)
        a = FaultSchedule(topology, DENSE)
        b = FaultSchedule(topology, replace(DENSE, seed=12))
        assert a.digest() != b.digest()

    def test_topology_changes_schedule(self):
        a = FaultSchedule(MeshTopology(4, 4), DENSE)
        b = FaultSchedule(MeshTopology(4, 5), DENSE)
        assert a.digest() != b.digest()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(link_outages=-1)
        with pytest.raises(ConfigurationError):
            FaultConfig(horizon=0)
        with pytest.raises(ConfigurationError):
            FaultConfig(min_duration=0)
        with pytest.raises(ConfigurationError):
            FaultConfig(min_duration=10, max_duration=5)
        with pytest.raises(ConfigurationError):
            FaultConfig(hbm_disabled_channels=-1)

    def test_masks_respect_windows(self):
        topology = MeshTopology(4, 4)
        schedule = FaultSchedule(topology, DENSE)
        assert schedule.any_mesh_faults()
        for outage in schedule.link_outages:
            assert schedule.link_dead_mask(outage.start)[
                outage.node, outage.port
            ]
        quiet = schedule.last_mesh_fault_cycle() + 1
        assert not schedule.link_dead_mask(quiet).any()
        assert not schedule.fifo_stall_mask(quiet).any()


class TestFaultEquivalence:
    """The engine-equivalence gate, fault-for-fault (sanitizer armed)."""

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 3), (4, 4), (2, 4)])
    @pytest.mark.parametrize("pattern", ["uniform", "hotspot", "tornado"])
    def test_patterns(self, rows, cols, pattern):
        topology = MeshTopology(rows, cols)
        src, dst = generate(
            pattern, topology, topology.num_nodes * 8, seed=rows * 17 + cols
        )
        _assert_fault_equivalent(topology, src, dst)

    def test_schedule_really_bites(self):
        """The DENSE schedule degrades live traffic on the 4x4 mesh —
        the equivalence tests above exercise real fault paths, not a
        vacuous no-fault overlap."""
        topology = MeshTopology(4, 4)
        src, dst = generate("uniform", topology, 128, seed=71)
        stats, _ = _assert_fault_equivalent(topology, src, dst)
        assert stats["degraded_cycles"] > 0

    def test_multiflit_and_stagger(self):
        topology = MeshTopology(4, 4)
        src, dst = generate("uniform", topology, 128, seed=3)
        _assert_fault_equivalent(
            topology, src, dst, flit_pattern=(1, 3, 2), stagger=2
        )

    def test_shallow_buffers(self):
        topology = MeshTopology(3, 3)
        src, dst = generate("hotspot", topology, 72, seed=9)
        _assert_fault_equivalent(topology, src, dst, buffer_depth=1)

    @pytest.mark.parametrize("buffer_depth", [1, 2])
    def test_non_square_auto_sized_mesh(self, buffer_depth):
        """A 9x8 mesh (72 nodes: ``auto`` picks the compiled engine)
        with multi-flit packets and shallow buffers."""
        topology = MeshTopology(9, 8)
        src, dst = generate("uniform", topology, 288, seed=23)
        stats, _ = _assert_fault_equivalent(
            topology, src, dst, flit_pattern=(1, 3, 2),
            buffer_depth=buffer_depth,
        )
        assert stats["degraded_cycles"] > 0
        assert stats["rerouted_packets"] > 0

    @pytest.mark.parametrize("rows,cols", [(1, 4), (4, 1)])
    def test_degenerate_meshes(self, rows, cols):
        topology = MeshTopology(rows, cols)
        src, dst = generate("uniform", topology, 32, seed=2)
        _assert_fault_equivalent(topology, src, dst)

    def test_rerouted_packets_counted_identically(self):
        topology = MeshTopology(4, 4)
        src, dst = generate("tornado", topology, 128, seed=7)
        stats, _ = _assert_fault_equivalent(topology, src, dst)
        assert stats["rerouted_packets"] > 0

    def test_clean_schedule_changes_nothing(self):
        """An armed schedule with zero faults is a no-op."""
        topology = MeshTopology(4, 4)
        src, dst = generate("uniform", topology, 64, seed=4)
        empty = FaultConfig(seed=0, link_outages=0, fifo_stalls=0)
        armed, _ = _drain(
            MeshNetwork, topology, src, dst,
            FaultSchedule(topology, empty),
        )
        bare, _ = _drain(MeshNetwork, topology, src, dst, None)
        assert armed == bare
        assert armed["degraded_cycles"] == 0
        assert armed["rerouted_packets"] == 0


class TestDetourPolicy:
    def _dead_row(self, *ports):
        row = np.zeros(NUM_PORTS, dtype=bool)
        for port in ports:
            row[port] = True
        return row

    def test_alive_link_uses_xy(self):
        topology = MeshTopology(4, 4)
        port, hit = route_with_faults(topology, 0, 3, self._dead_row())
        assert (port, hit) == (EAST, False)

    def test_local_never_faulted(self):
        topology = MeshTopology(4, 4)
        port, hit = route_with_faults(
            topology, 5, 5, self._dead_row(EAST, WEST, NORTH, SOUTH)
        )
        assert (port, hit) == (LOCAL, False)

    def test_dead_x_link_deflects_toward_dst_row(self):
        topology = MeshTopology(4, 4)
        # node 0 -> node 7 (row 1, col 3): XY wants EAST; dst is south.
        port, hit = route_with_faults(topology, 0, 7, self._dead_row(EAST))
        assert (port, hit) == (SOUTH, True)
        # node 12 (row 3) -> node 3 (row 0): dst is north.
        port, hit = route_with_faults(topology, 12, 3, self._dead_row(EAST))
        assert (port, hit) == (NORTH, True)

    def test_dead_x_link_same_row_deflects_into_interior(self):
        topology = MeshTopology(4, 4)
        # node 0 -> 3, same row: deflect SOUTH (row+1 exists).
        port, hit = route_with_faults(topology, 0, 3, self._dead_row(EAST))
        assert (port, hit) == (SOUTH, True)
        # node 12 (last row) -> 15: must deflect NORTH instead.
        port, hit = route_with_faults(topology, 12, 15, self._dead_row(EAST))
        assert (port, hit) == (NORTH, True)

    def test_dead_y_link_deflects_along_x(self):
        topology = MeshTopology(4, 4)
        # node 0 -> 12: same column, XY wants SOUTH; deflect EAST.
        port, hit = route_with_faults(topology, 0, 12, self._dead_row(SOUTH))
        assert (port, hit) == (EAST, True)
        # node 3 (last column) -> 15: deflect WEST instead.
        port, hit = route_with_faults(topology, 3, 15, self._dead_row(SOUTH))
        assert (port, hit) == (WEST, True)

    def test_both_links_dead_blocks(self):
        topology = MeshTopology(4, 4)
        port, hit = route_with_faults(
            topology, 0, 3, self._dead_row(EAST, SOUTH)
        )
        assert (port, hit) == (None, True)

    def test_single_row_mesh_blocks_instead_of_detouring(self):
        topology = MeshTopology(1, 4)
        port, hit = route_with_faults(topology, 0, 3, self._dead_row(EAST))
        assert (port, hit) == (None, True)

    def test_single_col_mesh_blocks_instead_of_detouring(self):
        topology = MeshTopology(4, 1)
        port, hit = route_with_faults(topology, 0, 3, self._dead_row(SOUTH))
        assert (port, hit) == (None, True)


class TestResourceDerating:
    def test_hbm_channel_derate(self):
        from repro.memory.hbm import HBMConfig

        hbm = HBMConfig()
        derated = hbm.with_disabled_channels(8)
        assert derated.total_bandwidth_gbs == pytest.approx(  # simlint: disable=SIM201
            hbm.total_bandwidth_gbs * 0.75
        )
        assert derated.num_pseudo_channels == hbm.num_pseudo_channels
        assert hbm.with_disabled_channels(0) is hbm
        with pytest.raises(ConfigurationError):
            hbm.with_disabled_channels(hbm.num_pseudo_channels)
        with pytest.raises(ConfigurationError):
            hbm.with_disabled_channels(-1)

    def test_apply_to_config_derates_hbm_and_noc(self):
        config = ScalaGraphConfig()
        topology = MeshTopology(config.pe_rows, config.total_cols)
        schedule = FaultSchedule(
            topology,
            FaultConfig(seed=1, link_outages=4, hbm_disabled_channels=8),
        )
        degraded = schedule.apply_to_config(config)
        assert degraded.hbm.total_bandwidth_gbs < (
            config.hbm.total_bandwidth_gbs
        )
        assert degraded.timing.noc_link_updates_per_cycle < (
            config.timing.noc_link_updates_per_cycle
        )

    def test_analytic_model_reports_fault_extras(self):
        config = ScalaGraphConfig()
        topology = MeshTopology(config.pe_rows, config.total_cols)
        schedule = FaultSchedule(
            topology,
            FaultConfig(seed=2, link_outages=3, hbm_disabled_channels=16),
        )
        graph = rmat_graph(scale=9, edge_factor=8, seed=5)
        clean = ScalaGraph(config).run(BFS(), graph, max_iterations=4)
        faulty = ScalaGraph(config, faults=schedule).run(
            BFS(), graph, max_iterations=4
        )
        assert faulty.total_cycles >= clean.total_cycles
        assert faulty.extra["degraded_cycles"] == pytest.approx(
            faulty.total_cycles - clean.total_cycles
        )
        assert faulty.extra["hbm_bandwidth_fraction"] == pytest.approx(0.5)
        assert 0 < faulty.extra["link_availability"] <= 1.0
        assert int(faulty.extra["fault_seed"]) == schedule.seed


class TestCycleSimFaults:
    CONFIG = FaultConfig(
        seed=7, link_outages=3, fifo_stalls=3, pe_stalls=2, horizon=96
    )

    def _run(self, engine):
        config = ScalaGraphConfig(
            num_tiles=1, pe_rows=4, pe_cols=4, noc_engine=engine
        )
        topology = MeshTopology(4, 4)
        sim = CycleAccurateScalaGraph(
            config,
            sanitize=True,
            faults=FaultSchedule(topology, self.CONFIG),
        )
        graph = rmat_graph(scale=7, edge_factor=8, seed=1)
        result = sim.run(PageRank(), graph, max_iterations=3)
        return (
            result.stats.degraded_cycles,
            result.stats.rerouted_packets,
            result.stats.total_cycles,
            result.stats.noc_hops,
            float(np.nansum(result.properties)),
        )

    def test_replay_is_deterministic_and_engine_agnostic(self):
        ref = self._run("reference")
        assert self._run("reference") == ref  # replay determinism
        assert self._run("vectorized") == ref  # engine equivalence
        assert ref[0] > 0  # PE stalls / mesh faults really degraded

    def test_faults_slow_the_run_down(self):
        config = ScalaGraphConfig(num_tiles=1, pe_rows=4, pe_cols=4)
        graph = rmat_graph(scale=7, edge_factor=8, seed=1)
        clean = CycleAccurateScalaGraph(config, sanitize=True).run(
            PageRank(), graph, max_iterations=3
        )
        faulty = CycleAccurateScalaGraph(
            config,
            sanitize=True,
            faults=FaultSchedule(MeshTopology(4, 4), self.CONFIG),
        ).run(PageRank(), graph, max_iterations=3)
        assert faulty.stats.total_cycles >= clean.stats.total_cycles
        assert clean.stats.degraded_cycles == 0
        # Faults change timing, never results.
        np.testing.assert_allclose(faulty.properties, clean.properties)

    def test_topology_mismatch_rejected(self):
        schedule = FaultSchedule(MeshTopology(8, 8), self.CONFIG)
        with pytest.raises(ConfigurationError):
            CycleAccurateScalaGraph(
                ScalaGraphConfig(num_tiles=1, pe_rows=4, pe_cols=4),
                faults=schedule,
            )


class TestEngineFallback:
    def _sim(self, **config_kwargs):
        return CycleAccurateScalaGraph(
            ScalaGraphConfig(
                num_tiles=1,
                pe_rows=4,
                pe_cols=4,
                noc_engine="vectorized",
                **config_kwargs,
            ),
            sanitize=True,
        )

    @pytest.fixture()
    def broken_vectorized(self, monkeypatch):
        """Make the vectorized engine trip a sanitizer invariant."""

        def explode(self, *args, **kwargs):
            raise SanitizerError(
                "test-invariant", "injected failure", cycle=0
            )

        monkeypatch.setattr(FastMeshNetwork, "step", explode)

    def test_fallback_warns_and_completes(self, broken_vectorized):
        graph = rmat_graph(scale=6, edge_factor=8, seed=3)
        with pytest.warns(EngineFallbackWarning) as record:
            result = self._sim().run(BFS(), graph, max_iterations=4)
        assert result.converged
        assert "vectorized" in str(record[0].message)
        reference = CycleAccurateScalaGraph(
            ScalaGraphConfig(
                num_tiles=1, pe_rows=4, pe_cols=4, noc_engine="reference"
            ),
            sanitize=True,
        ).run(BFS(), graph, max_iterations=4)
        assert result.stats.total_cycles == reference.stats.total_cycles
        np.testing.assert_array_equal(
            result.properties, reference.properties
        )

    def test_fallback_disabled_raises(self, broken_vectorized):
        graph = rmat_graph(scale=6, edge_factor=8, seed=3)
        sim = self._sim(noc_engine_fallback=False)
        with pytest.raises(SanitizerError):
            with warnings.catch_warnings():
                warnings.simplefilter("error", EngineFallbackWarning)
                sim.run(BFS(), graph, max_iterations=4)

    def test_standalone_fault_run_unaffected_by_fallback(self):
        """make_mesh_network users outside the cycle sim see no change."""
        topology = MeshTopology(4, 4)
        net = make_mesh_network(topology, engine="vectorized")
        assert isinstance(net, FastMeshNetwork)
