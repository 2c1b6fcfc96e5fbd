"""Reference vs vectorized mesh-NoC engine speed (PR 3 perf artifact).

Drains an identical uniform-random workload through both cycle-level
mesh engines at 4x4 / 8x8 / 16x16 and reports cycles/sec for each,
cross-checking that the engines agree packet-for-packet before trusting
the timing.  The machine-readable summary is written twice: to
``benchmarks/results/bench_noc_engine_speed.json`` like every other
bench, and to the repo-root ``BENCH_PR3.json`` consumed by the perf
trajectory and the CI perf-smoke job.

Knobs (environment variables):

* ``REPRO_NOC_BENCH_SIZES`` — comma-separated ``RxC`` mesh sizes
  (default ``4x4,8x8,16x16``).
* ``REPRO_NOC_BENCH_PACKETS_PER_NODE`` — offered load per node
  (default 64; higher loads grow the reference's per-cycle cost while
  the vectorized engine stays nearly flat).
* ``REPRO_NOC_BENCH_REPEATS`` — timing repetitions per engine; the
  fastest run is reported (default 3).

No external benchmarking dependency: timing is a plain
``time.perf_counter`` pair around ``drain``, so the timed region is the
whole drain, injection included.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import emit, emit_json

from repro.noc import (
    FastMeshNetwork,
    MeshNetwork,
    MeshTopology,
    Packet,
    drain,
)
from repro.noc.patterns import generate

BENCH_PR3 = Path(__file__).resolve().parent.parent / "BENCH_PR3.json"

_ENGINES = {"reference": MeshNetwork, "vectorized": FastMeshNetwork}


def _sizes() -> list[tuple[int, int]]:
    raw = os.environ.get("REPRO_NOC_BENCH_SIZES", "4x4,8x8,16x16")
    sizes = []
    for token in raw.split(","):
        rows, _, cols = token.strip().partition("x")
        sizes.append((int(rows), int(cols)))
    return sizes


def _drain(engine: str, topology, src, dst):
    """Build a fresh network and the workload's packets, time the drain."""
    network = _ENGINES[engine](topology)
    packets = [
        Packet(src=s, dst=d, vertex=i)
        for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist()))
    ]
    start = time.perf_counter()
    stats = drain(network, packets, max_cycles=10_000_000)
    elapsed = time.perf_counter() - start
    order = [
        (p.vertex, p.injected_cycle, p.delivered_cycle)
        for p in network.delivered
    ]
    key = (
        stats.cycles,
        stats.injected,
        stats.delivered,
        stats.total_hops,
        stats.total_latency,
        stats.max_occupancy,
        stats.stalled_moves,
        tuple(order),
    )
    return stats, elapsed, key


def test_noc_engine_speed():
    packets_per_node = int(
        os.environ.get("REPRO_NOC_BENCH_PACKETS_PER_NODE", "64")
    )
    repeats = int(os.environ.get("REPRO_NOC_BENCH_REPEATS", "3"))
    meshes = []
    lines = [
        "mesh     cycles  reference cyc/s  vectorized cyc/s  speedup",
        "-" * 60,
    ]
    for rows, cols in _sizes():
        topology = MeshTopology(rows, cols)
        src, dst = generate(
            "uniform", topology, topology.num_nodes * packets_per_node,
            seed=7,
        )
        results = {}
        keys = {}
        for engine in _ENGINES:
            best = None
            for _ in range(repeats):
                stats, elapsed, key = _drain(engine, topology, src, dst)
                keys[engine] = key
                if best is None or elapsed < best:
                    best = elapsed
            results[engine] = {
                "cycles": stats.cycles,
                "seconds": best,
                "cycles_per_second": stats.cycles / best if best else 0.0,
            }
        # Equivalence gate before trusting the timing: same stats, same
        # delivery order, packet for packet.
        assert keys["reference"] == keys["vectorized"], (
            f"{rows}x{cols}: engines diverged"
        )
        ref = results["reference"]["cycles_per_second"]
        vec = results["vectorized"]["cycles_per_second"]
        speedup = vec / ref if ref else 0.0
        # The vectorized engine must never lose to the reference on the
        # benchmark meshes (the CI perf-smoke gate).
        assert speedup >= 1.0, (
            f"{rows}x{cols}: vectorized slower than reference "
            f"({speedup:.2f}x)"
        )
        meshes.append(
            {
                "mesh": f"{rows}x{cols}",
                "nodes": topology.num_nodes,
                "packets": topology.num_nodes * packets_per_node,
                "engines": results,
                "speedup": speedup,
            }
        )
        lines.append(
            f"{rows}x{cols:<6} {results['reference']['cycles']:>6} "
            f"{ref:>15,.0f} {vec:>17,.0f} {speedup:>8.1f}x"
        )

    payload = {
        "schema": "repro-bench-noc-engine/1",
        "pr": 3,
        "pattern": "uniform",
        "seed": 7,
        "packets_per_node": packets_per_node,
        "repeats": repeats,
        "meshes": meshes,
    }
    emit("bench_noc_engine_speed", "\n".join(lines))
    emit_json("bench_noc_engine_speed", payload)
    BENCH_PR3.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
