"""Vectorized mesh engine: differential equivalence + sanitizer gates.

The contract under test (see ``repro/noc/fastmesh.py``): for any
workload, :class:`FastMeshNetwork` is packet-for-packet and
cycle-for-cycle identical to the reference :class:`MeshNetwork` —
identical ``MeshStats`` and identical delivery order — with the
SimSanitizer armed on both engines throughout.
"""

import numpy as np
import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.core import CycleAccurateScalaGraph, ScalaGraphConfig
from repro.algorithms import BFS, PageRank
from repro.errors import ConfigurationError, SanitizerError
from repro.graph.generators import rmat_graph
from repro.noc import (
    AUTO_VECTORIZE_MIN_NODES,
    FastMeshNetwork,
    MeshNetwork,
    MeshTopology,
    Packet,
    make_mesh_network,
    resolve_engine,
)
from repro.noc.patterns import generate


def _run_engine(
    cls,
    topology,
    src,
    dst,
    flit_pattern=(1,),
    stagger=0,
    buffer_depth=4,
    sanitize=True,
    fast_forward=True,
):
    """Schedule one workload and drain it; return (stats tuple, order)."""
    net = cls(
        topology,
        buffer_depth=buffer_depth,
        sanitizer=SimSanitizer(context="test") if sanitize else None,
    )
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
    stats = net.run_until_drained(
        max_cycles=2_000_000, fast_forward=fast_forward
    )
    order = [
        (p.vertex, p.injected_cycle, p.delivered_cycle)
        for p in net.delivered
    ]
    key = (
        stats.cycles,
        stats.injected,
        stats.delivered,
        stats.total_hops,
        stats.total_latency,
        stats.max_occupancy,
        stats.stalled_moves,
    )
    return key, order


def _assert_equivalent(topology, src, dst, **kwargs):
    ref = _run_engine(MeshNetwork, topology, src, dst, **kwargs)
    vec = _run_engine(FastMeshNetwork, topology, src, dst, **kwargs)
    assert ref == vec


class TestDifferentialEquivalence:
    """Reference vs vectorized on randomized workloads, sanitizer on."""

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 3), (4, 4), (2, 4)])
    @pytest.mark.parametrize("pattern", ["uniform", "hotspot", "tornado"])
    def test_patterns(self, rows, cols, pattern):
        topology = MeshTopology(rows, cols)
        src, dst = generate(
            pattern, topology, topology.num_nodes * 8, seed=rows * 17 + cols
        )
        _assert_equivalent(topology, src, dst)

    @pytest.mark.parametrize(
        "pattern", ["transpose", "bit_reversal", "shuffle"]
    )
    def test_permutation_patterns(self, pattern):
        topology = MeshTopology(4, 4)
        src, dst = generate(pattern, topology, 96, seed=5)
        _assert_equivalent(topology, src, dst)

    def test_staggered_injection(self):
        topology = MeshTopology(3, 3)
        src, dst = generate("uniform", topology, 72, seed=11)
        _assert_equivalent(topology, src, dst, stagger=7)

    def test_single_entry_buffers(self):
        # depth=1 maximises backpressure: every stall path is exercised.
        topology = MeshTopology(3, 3)
        src, dst = generate("hotspot", topology, 60, seed=2)
        _assert_equivalent(topology, src, dst, buffer_depth=1)

    def test_multiflit_serialisation(self):
        topology = MeshTopology(4, 4)
        src, dst = generate("uniform", topology, 80, seed=9)
        _assert_equivalent(topology, src, dst, flit_pattern=(1, 3, 2))

    def test_multiflit_staggered_depth1(self):
        topology = MeshTopology(2, 3)
        src, dst = generate("uniform", topology, 48, seed=4)
        _assert_equivalent(
            topology, src, dst, flit_pattern=(2, 1), stagger=7,
            buffer_depth=1,
        )

    def test_paper_scale_mesh(self):
        # 32x32 is the paper's largest mesh (Table IV, Fig. 21).
        topology = MeshTopology(32, 32)
        src, dst = generate("uniform", topology, 320, seed=13)
        _assert_equivalent(topology, src, dst, stagger=3)

    def test_inject_backpressure_parity(self):
        # Direct inject() refuses the (depth+1)-th packet on both engines.
        for cls in (MeshNetwork, FastMeshNetwork):
            net = cls(MeshTopology(2, 2), buffer_depth=4)
            accepted = [
                net.inject(Packet(src=0, dst=3, vertex=i)) for i in range(5)
            ]
            assert accepted == [True] * 4 + [False]
            assert net.stats.injected == 4


class TestFastForward:
    """Idle-gap skipping is stats-neutral on both engines."""

    @pytest.mark.parametrize("cls", [MeshNetwork, FastMeshNetwork])
    def test_gap_skipping_matches_stepping(self, cls):
        topology = MeshTopology(3, 3)
        runs = []
        for fast_forward in (True, False):
            net = cls(topology)
            for i, when in enumerate([0, 0, 500, 500, 2000]):
                net.schedule(
                    Packet(src=i, dst=8 - i, vertex=i, injected_cycle=when)
                )
            stats = net.run_until_drained(fast_forward=fast_forward)
            runs.append(
                (
                    stats.cycles,
                    stats.injected,
                    stats.delivered,
                    stats.total_latency,
                    [p.vertex for p in net.delivered],
                )
            )
        assert runs[0] == runs[1]
        assert runs[0][0] > 2000  # the gap really was simulated time

    @pytest.mark.parametrize("cls", [MeshNetwork, FastMeshNetwork])
    def test_next_event_cycle_only_when_quiescent(self, cls):
        net = cls(MeshTopology(2, 2))
        assert net.next_event_cycle() is None  # nothing scheduled
        net.schedule(Packet(src=0, dst=3, vertex=0, injected_cycle=40))
        assert net.next_event_cycle() == 40
        net.inject(Packet(src=0, dst=3, vertex=1))
        assert net.next_event_cycle() is None  # a FIFO is occupied

    @pytest.mark.parametrize("cls", [MeshNetwork, FastMeshNetwork])
    def test_fast_forward_counts_skipped(self, cls):
        net = cls(MeshTopology(2, 2))
        net.schedule(Packet(src=0, dst=3, vertex=0, injected_cycle=100))
        assert net.fast_forward(100) == 100
        assert net.cycle == 100
        assert net.fast_forward(50) == 0  # never rewinds
        stats = net.run_until_drained()
        assert stats.delivered == 1


class TestCycleSimEngineParity:
    """The full cycle-accurate simulator is engine-agnostic."""

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat_graph(6, edge_factor=4, seed=3)

    @pytest.mark.parametrize(
        "mapping", ["rom", "som", "dom", "rom-torus"]
    )
    def test_mappings_bfs(self, graph, mapping):
        results = []
        for engine in ("reference", "vectorized"):
            sim = CycleAccurateScalaGraph(
                ScalaGraphConfig(
                    num_tiles=1,
                    pe_rows=4,
                    pe_cols=4,
                    mapping=mapping,
                    noc_engine=engine,
                ),
                sanitize=True,
            )
            res = sim.run(BFS(), graph)
            results.append(
                (
                    res.properties.tolist(),
                    res.stats.total_cycles,
                    res.stats.scatter_cycles,
                    res.stats.updates_processed,
                    res.stats.updates_coalesced,
                    res.stats.noc_hops,
                    res.stats.spd_reduces,
                    res.stats.dispatch_lines,
                    res.stats.iterations,
                )
            )
        assert results[0] == results[1]

    def test_pagerank_parity(self, graph):
        results = []
        for engine in ("reference", "vectorized"):
            sim = CycleAccurateScalaGraph(
                ScalaGraphConfig(
                    num_tiles=1, pe_rows=4, pe_cols=4, noc_engine=engine
                ),
                sanitize=True,
            )
            res = sim.run(PageRank(), graph, max_iterations=3)
            results.append(
                (res.properties.tolist(), res.stats.total_cycles)
            )
        assert results[0] == results[1]


class TestSanitizerIntegration:
    """Corrupted array state must raise structured SanitizerErrors."""

    def _armed_net(self):
        net = FastMeshNetwork(
            MeshTopology(2, 2), buffer_depth=4,
            sanitizer=SimSanitizer(context="test"),
        )
        assert net.inject(Packet(src=0, dst=1, vertex=0))
        return net

    def test_clean_run_passes(self):
        net = self._armed_net()
        stats = net.run_until_drained()
        assert stats.delivered == 1
        assert net.sanitizer.checks_run > 0

    def test_fifo_overflow_detected(self):
        net = self._armed_net()
        net._count[0, 0] = net.buffer_depth + 2  # corrupt the ledger
        with pytest.raises(SanitizerError) as err:
            net.step()
        assert err.value.invariant == "fifo-depth"

    def test_negative_occupancy_detected(self):
        net = self._armed_net()
        net._count[3, 1] = -1
        with pytest.raises(SanitizerError) as err:
            net.step()
        assert err.value.invariant == "fifo-depth"

    def test_dropped_packet_detected(self):
        net = self._armed_net()
        net.stats.injected += 1  # phantom injection: conservation breaks
        with pytest.raises(SanitizerError) as err:
            net.step()
        assert err.value.invariant == "update-conservation"

    def test_check_fifo_depth_array_unit(self):
        san = SimSanitizer(context="unit")
        occ = np.zeros((4, 5), dtype=np.int64)
        occ[2, 3] = 4
        san.check_fifo_depth_array(
            occ, 4, where="router", port_names=["L", "N", "S", "W", "E"]
        )
        assert san.checks_run == 1
        occ[2, 3] = 5
        with pytest.raises(SanitizerError) as err:
            san.check_fifo_depth_array(
                occ, 4, where="router",
                port_names=["L", "N", "S", "W", "E"],
            )
        assert "node 2 port W" in str(err.value)
        san.check_fifo_depth_array(np.zeros((0, 5)), 4, where="router")


class TestEngineSelection:
    def test_resolve_auto_by_size(self):
        small = MeshTopology(4, 4)
        big_rows = AUTO_VECTORIZE_MIN_NODES // 4
        big = MeshTopology(big_rows, 4)
        assert resolve_engine("auto", small) == "reference"
        assert resolve_engine("auto", big) == "vectorized"
        assert resolve_engine("Reference", small) == "reference"
        with pytest.raises(ConfigurationError):
            resolve_engine("turbo", small)

    def test_factory_returns_requested_engine(self):
        topology = MeshTopology(2, 2)
        assert isinstance(
            make_mesh_network(topology, engine="reference"), MeshNetwork
        )
        assert isinstance(
            make_mesh_network(topology, engine="vectorized"),
            FastMeshNetwork,
        )
        assert isinstance(
            make_mesh_network(topology, engine="auto"), MeshNetwork
        )

    def test_config_validates_engine(self):
        ScalaGraphConfig(noc_engine="vectorized")  # valid
        with pytest.raises(ConfigurationError):
            ScalaGraphConfig(noc_engine="warp")

    def test_out_of_mesh_nodes_rejected(self):
        net = FastMeshNetwork(MeshTopology(2, 2))
        with pytest.raises(ConfigurationError):
            net.schedule(Packet(src=0, dst=9, vertex=0))
        with pytest.raises(ConfigurationError):
            net.inject(Packet(src=7, dst=0, vertex=0))
