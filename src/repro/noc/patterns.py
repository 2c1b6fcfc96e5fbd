"""Synthetic NoC traffic patterns (standard interconnect methodology)
and the one driver that runs a workload through a mesh engine.

Graph workloads are irregular, but interconnects are characterised with
canonical patterns: uniform random, permutations (transpose,
bit-reversal, shuffle), hotspot, and tornado.  These generators feed the
cycle-level mesh simulators for saturation-throughput studies
(``benchmarks/bench_noc_characterization.py``) and stress tests.

:func:`drain` queues packets at their source nodes and steps either mesh
engine until it is empty, through the same ``inject``/``step`` protocol
the cycle engines' scatter loops use; the NoC studies, ``repro faults``
and the mesh tests all run their traffic through it.
"""

from __future__ import annotations

import math
from collections import deque
from operator import attrgetter
from typing import Callable, Deque, Dict, Iterable, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.noc.fastmesh import MeshEngine, make_mesh_network
from repro.noc.mesh import MeshStats
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology

#: A pattern maps (topology, rng, count) -> (src, dst) arrays.  The
#: generator type is quoted so that importing :mod:`repro.noc`, which
#: exports :func:`drain`, does not load ``numpy.random``.
PatternFn = Callable[
    [MeshTopology, "np.random.Generator", int], Tuple[np.ndarray, np.ndarray]
]


def uniform_random(
    topology: MeshTopology, rng: np.random.Generator, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each packet picks an independent uniform source and destination."""
    n = topology.num_nodes
    return (
        rng.integers(0, n, count, dtype=np.int64),
        rng.integers(0, n, count, dtype=np.int64),
    )


def transpose(
    topology: MeshTopology, rng: np.random.Generator, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Node (r, c) sends to (c, r).  Requires a square mesh."""
    if topology.rows != topology.cols:
        raise ConfigurationError("transpose needs a square mesh")
    src = rng.integers(0, topology.num_nodes, count, dtype=np.int64)
    r, c = src // topology.cols, src % topology.cols
    return src, c * topology.cols + r


def bit_reversal(
    topology: MeshTopology, rng: np.random.Generator, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Destination = bit-reversed source index (power-of-two meshes)."""
    n = topology.num_nodes
    bits = int(math.log2(n))
    if 1 << bits != n:
        raise ConfigurationError("bit_reversal needs a power-of-two mesh")
    src = rng.integers(0, n, count, dtype=np.int64)
    dst = np.zeros_like(src)
    value = src.copy()
    for _ in range(bits):
        dst = (dst << 1) | (value & 1)
        value >>= 1
    return src, dst


def shuffle(
    topology: MeshTopology, rng: np.random.Generator, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Perfect shuffle: rotate the node index left by one bit."""
    n = topology.num_nodes
    bits = int(math.log2(n))
    if 1 << bits != n:
        raise ConfigurationError("shuffle needs a power-of-two mesh")
    src = rng.integers(0, n, count, dtype=np.int64)
    dst = ((src << 1) | (src >> (bits - 1))) & (n - 1)
    return src, dst


def hotspot(
    topology: MeshTopology,
    rng: np.random.Generator,
    count: int,
    hotspot_fraction: float = 0.5,
    hotspot_node: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """A fraction of packets target one node; the rest are uniform.

    This is the pattern a high in-degree vertex induces on a graph
    accelerator's NoC.
    """
    if not 0 <= hotspot_fraction <= 1:
        raise ConfigurationError("hotspot_fraction must be in [0, 1]")
    n = topology.num_nodes
    src = rng.integers(0, n, count, dtype=np.int64)
    dst = rng.integers(0, n, count, dtype=np.int64)
    hot = rng.random(count) < hotspot_fraction
    dst[hot] = hotspot_node
    return src, dst


def tornado(
    topology: MeshTopology, rng: np.random.Generator, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each node sends (almost) half-way across each dimension — the
    worst case for minimal routing on rings, a hard case on meshes."""
    src = rng.integers(0, topology.num_nodes, count, dtype=np.int64)
    r, c = src // topology.cols, src % topology.cols
    dr = (r + (topology.rows - 1) // 2) % topology.rows
    dc = (c + (topology.cols - 1) // 2) % topology.cols
    return src, dr * topology.cols + dc


#: Registry of patterns by conventional name.
PATTERNS: Dict[str, PatternFn] = {
    "uniform": uniform_random,
    "transpose": transpose,
    "bit_reversal": bit_reversal,
    "shuffle": shuffle,
    "hotspot": hotspot,
    "tornado": tornado,
}


def generate(
    name: str,
    topology: MeshTopology,
    count: int,
    seed: int = 0,
    **kwargs,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a named pattern's (src, dst) arrays."""
    if name not in PATTERNS:
        raise ConfigurationError(
            f"unknown pattern {name!r}; known: {sorted(PATTERNS)}"
        )
    rng = np.random.default_rng(seed)
    return PATTERNS[name](topology, rng, count, **kwargs)


def drain(
    network: MeshEngine,
    packets: Iterable[Packet] = (),
    max_cycles: int = 1_000_000,
) -> MeshStats:
    """Run ``packets`` through ``network`` until nothing is left; return
    its stats.

    Each packet joins a FIFO queue at its source node once the network's
    clock reaches its ``injected_cycle`` (packets due on the same cycle
    keep their order).  Every cycle, each queue offers its head packets
    to ``network.inject`` until one is refused, then the network steps;
    ``inject`` restamps ``injected_cycle`` with the cycle the packet got
    in.  Idle cycles are stepped, not skipped.  With no packets, an
    already-loaded mesh runs until it is empty.  Works on either mesh
    engine.

    Raises:
        SimulationError: the mesh still holds or awaits packets at cycle
            ``max_cycles``.
    """
    due = sorted(packets, key=attrgetter("injected_cycle"))
    queues: Dict[int, Deque[Packet]] = {}
    released = 0
    inject, step = network.inject, network.step
    while True:
        cycle = network.cycle
        while released < len(due) and due[released].injected_cycle <= cycle:
            packet = due[released]
            queues.setdefault(packet.src, deque()).append(packet)
            released += 1
        if not (queues or released < len(due) or network.total_occupancy()):
            return network.stats
        if cycle >= max_cycles:
            raise SimulationError(
                f"mesh did not drain within {max_cycles} cycles"
            )
        for src, queue in list(queues.items()):
            while queue and inject(queue[0]):
                queue.popleft()
            if not queue:
                del queues[src]
        step()


def saturation_throughput(
    topology: MeshTopology,
    pattern: str,
    packets: int = 400,
    seed: int = 0,
) -> float:
    """Accepted throughput (packets/node/cycle) under saturating load.

    Queues all packets at cycle 0 and measures the drain rate on the
    default mesh engine (:func:`~repro.noc.fastmesh.make_mesh_network`)
    — an upper bound on sustainable throughput for the pattern.
    """
    src, dst = generate(pattern, topology, packets, seed)
    stats = drain(
        make_mesh_network(topology),
        [Packet(src=s, dst=d) for s, d in zip(src.tolist(), dst.tolist())],
    )
    if stats.cycles == 0:
        return 0.0
    return stats.delivered / stats.cycles / topology.num_nodes
