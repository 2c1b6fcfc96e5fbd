"""NoC stress and failure-injection tests.

The mesh simulator must deliver every packet under adversarial load —
hotspots, permutation storms, tiny buffers — and the arbitration must
keep making progress (no deadlock/livelock), since the accelerator's
correctness argument rests on it.
"""

import numpy as np
import pytest

from repro.noc.mesh import MeshNetwork
from repro.noc.packet import Packet
from repro.noc.patterns import drain
from repro.noc.topology import MeshTopology


def run_pattern(topology, pairs, buffer_depth=4, stagger=1):
    net = MeshNetwork(topology, buffer_depth=buffer_depth)
    packets = [
        Packet(src=int(src), dst=int(dst), injected_cycle=i // stagger)
        for i, (src, dst) in enumerate(pairs)
    ]
    stats = drain(net, packets, max_cycles=200_000)
    return net, stats


class TestStormPatterns:
    def test_random_storm_small_buffers(self):
        topo = MeshTopology(4, 4)
        rng = np.random.default_rng(0)
        pairs = list(zip(rng.integers(0, 16, 600), rng.integers(0, 16, 600)))
        _, stats = run_pattern(topo, pairs, buffer_depth=1, stagger=16)
        assert stats.delivered == 600

    def test_single_hotspot(self):
        """Everyone floods one corner; delivery must still complete and
        serialise at roughly one packet per cycle at the sink."""
        topo = MeshTopology(4, 4)
        pairs = [(s, 15) for s in range(15)] * 20
        _, stats = run_pattern(topo, pairs, stagger=15)
        assert stats.delivered == 300
        assert stats.cycles >= 300  # sink ejects one per cycle

    def test_bit_reversal_permutation(self):
        """The classic adversarial pattern for dimension-order routing."""
        topo = MeshTopology(4, 4)

        def bit_reverse(x, bits=4):
            return int(f"{x:0{bits}b}"[::-1], 2)

        pairs = [(s, bit_reverse(s)) for s in range(16)] * 10
        _, stats = run_pattern(topo, pairs, stagger=16)
        assert stats.delivered == 160

    def test_transpose_permutation(self):
        topo = MeshTopology(4, 4)
        pairs = [
            (topo.node(r, c), topo.node(c, r))
            for r in range(4)
            for c in range(4)
        ] * 10
        _, stats = run_pattern(topo, pairs, stagger=16)
        assert stats.delivered == 160

    def test_all_to_one_column(self):
        """Row-oriented-mapping-like traffic: everything funnels into
        vertical links of one column."""
        topo = MeshTopology(8, 2)
        pairs = [(topo.node(r, 1), topo.node((r + 4) % 8, 1)) for r in range(8)] * 25
        _, stats = run_pattern(topo, pairs, stagger=8)
        assert stats.delivered == 200

    def test_long_thin_mesh(self):
        topo = MeshTopology(1, 16)
        pairs = [(0, 15)] * 50 + [(15, 0)] * 50
        _, stats = run_pattern(topo, pairs, buffer_depth=2, stagger=2)
        assert stats.delivered == 100

    def test_conservation_no_duplication(self):
        """Every injected packet is delivered exactly once."""
        topo = MeshTopology(3, 3)
        rng = np.random.default_rng(1)
        pairs = list(zip(rng.integers(0, 9, 200), rng.integers(0, 9, 200)))
        net, stats = run_pattern(topo, pairs)
        assert stats.delivered == 200
        assert len({id(p) for p in net.delivered}) == 200

    def test_latency_bounded_by_load(self):
        """With staggered injection, per-packet latency stays finite and
        bounded by total traffic (no livelock starving a packet)."""
        topo = MeshTopology(4, 4)
        rng = np.random.default_rng(2)
        pairs = list(zip(rng.integers(0, 16, 300), rng.integers(0, 16, 300)))
        net, _ = run_pattern(topo, pairs, stagger=8)
        worst = max(p.latency for p in net.delivered)
        assert worst < 300
