"""Cycle-level mesh NoC tests: routing correctness, latency, conflicts."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.noc.mesh import MeshNetwork
from repro.noc.packet import Packet
from repro.noc.patterns import drain
from repro.noc.router import EAST, LOCAL, NORTH, SOUTH, WEST, xy_output_port
from repro.noc.topology import MeshTopology
from repro.noc.traffic import xy_hop_counts


def drained(topology, packets, **kwargs):
    net = MeshNetwork(topology, **kwargs)
    stats = drain(net, packets)
    return net, stats


class TestXYRouting:
    def test_route_decisions(self):
        topo = MeshTopology(4, 4)
        # From node 5 (1,1): east to column 3, then south to row 3.
        assert xy_output_port(topo, 5, 15) == EAST
        assert xy_output_port(topo, 7, 15) == SOUTH
        assert xy_output_port(topo, 5, 4) == WEST
        assert xy_output_port(topo, 5, 1) == NORTH
        assert xy_output_port(topo, 5, 5) == LOCAL

    def test_single_packet_delivery(self):
        topo = MeshTopology(4, 4)
        p = Packet(src=0, dst=15)
        net, stats = drained(topo, [p])
        assert stats.delivered == 1
        assert p.delivered_cycle is not None

    def test_latency_equals_hops_for_lone_packet(self):
        topo = MeshTopology(4, 4)
        for src, dst in [(0, 15), (3, 12), (0, 0), (5, 6)]:
            p = Packet(src=src, dst=dst)
            drained(topo, [p])
            assert p.latency == topo.hop_distance(src, dst)

    def test_all_pairs_delivered(self):
        topo = MeshTopology(3, 3)
        packets = [
            Packet(src=s, dst=d)
            for s in range(9)
            for d in range(9)
        ]
        _, stats = drained(topo, packets)
        assert stats.delivered == 81

    def test_total_hops_match_analytic(self):
        topo = MeshTopology(4, 4)
        rng = np.random.default_rng(0)
        src = rng.integers(0, 16, 50)
        dst = rng.integers(0, 16, 50)
        packets = [Packet(src=int(s), dst=int(d)) for s, d in zip(src, dst)]
        _, stats = drained(topo, packets)
        assert stats.total_hops == int(xy_hop_counts(topo, src, dst).sum())

    def test_payload_preserved(self):
        topo = MeshTopology(2, 2)
        p = Packet(src=0, dst=3, vertex=42, value=3.5)
        net, _ = drained(topo, [p])
        delivered = net.delivered[0]
        assert delivered.vertex == 42 and delivered.value == 3.5


class TestContention:
    def test_converging_traffic_serialises(self):
        """Many packets to one node: the destination's local port can
        eject only one per cycle, so drain time >= packet count."""
        topo = MeshTopology(4, 4)
        packets = [Packet(src=s, dst=5) for s in range(16) if s != 5]
        _, stats = drained(topo, packets)
        assert stats.cycles >= 15

    def test_conflicts_counted(self):
        topo = MeshTopology(1, 4)
        # Two packets share the eastbound path simultaneously.
        packets = [Packet(src=0, dst=3), Packet(src=0, dst=3)]
        _, stats = drained(topo, packets)
        assert stats.delivered == 2

    def test_backpressure_with_tiny_buffers(self):
        topo = MeshTopology(2, 2)
        packets = [Packet(src=0, dst=3) for _ in range(20)]
        net, stats = drained(topo, packets, buffer_depth=1)
        assert stats.delivered == 20

    def test_fairness_under_sustained_load(self):
        """Round-robin arbitration must not starve any input."""
        topo = MeshTopology(1, 3)
        # Node 1 forwards traffic from node 0 and injects its own.
        packets = [Packet(src=0, dst=2, injected_cycle=i) for i in range(10)]
        packets += [Packet(src=1, dst=2, injected_cycle=i) for i in range(10)]
        net, stats = drained(topo, packets)
        sources = [p.src for p in net.delivered]
        # Both sources appear in the first half of deliveries.
        assert set(sources[:10]) == {0, 1}


class TestScheduling:
    def test_injection_at_future_cycle(self):
        topo = MeshTopology(2, 2)
        p = Packet(src=0, dst=1, injected_cycle=10)
        net = MeshNetwork(topo)
        drain(net, [p])
        assert p.injected_cycle == 10  # released, and got in, at cycle 10
        assert p.delivered_cycle >= 10

    def test_inject_returns_false_when_full(self):
        topo = MeshTopology(2, 2)
        net = MeshNetwork(topo, buffer_depth=1)
        assert net.inject(Packet(src=0, dst=3))
        assert not net.inject(Packet(src=0, dst=3))

    def test_invalid_nodes_rejected(self):
        topo = MeshTopology(2, 2)
        net = MeshNetwork(topo)
        with pytest.raises(ConfigurationError):
            net.inject(Packet(src=0, dst=99))
        with pytest.raises(ConfigurationError):
            net.inject(Packet(src=-1, dst=0))

    def test_max_cycles_guard(self):
        topo = MeshTopology(2, 2)
        net = MeshNetwork(topo)
        with pytest.raises(SimulationError):
            drain(net, [Packet(src=0, dst=3, injected_cycle=0)], max_cycles=1)

    def test_empty_run(self):
        topo = MeshTopology(2, 2)
        net = MeshNetwork(topo)
        stats = drain(net)
        assert stats.delivered == 0
        assert stats.cycles == 0

    def test_stats_average_latency(self):
        topo = MeshTopology(1, 2)
        p = Packet(src=0, dst=1)
        net, stats = drained(topo, [p])
        assert (stats.delivered, stats.total_latency) == (1, p.latency)
