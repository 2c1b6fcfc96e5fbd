"""Reference vs vectorized scatter-phase engine speed (PR 9 artifact).

Runs the *end-to-end* cycle-accurate simulator — dispatcher queues,
aggregation arrays, NoC, SPD retire — twice over an identical R-MAT
PageRank workload, once per ``cycle_engine``, and reports cycles/sec:
the cycles each engine stepped (the ``cycle_sim.noc_step`` calls of a
:class:`~repro.core.profiling.Profiler`) over its wall time.  The
vectorized engine simulates PageRank's repeated all-active phase once
and reuses it, so counting simulated cycles would credit it with cycles
it never stepped.
Timings are interleaved (ref, vec, ref, vec, ...) and the best of N is
kept per engine, which is markedly more stable than back-to-back runs
on a noisy machine.  Before any timing is trusted the two engines must
agree stat-for-stat and property-for-property.

The machine-readable summary is written twice: to
``benchmarks/results/bench_cycle_engine_speed.json`` like every other
bench, and to the repo-root ``BENCH_PR9.json`` consumed by the perf
trajectory and the CI perf-smoke job.  The committed ``BENCH_PR6.json``
is kept as the frozen PR 6 baseline: when present, the 16x16 and 32x32
vectorized throughputs are compared against it and the ratios recorded
(``speedup_vs_pr6``) — measured on the bench host, so cross-machine
ratios carry that caveat.

Knobs (environment variables):

* ``REPRO_CYCLE_BENCH_SCALE`` — R-MAT scale (default 14; CI uses a
  smaller scale to fit the wall-time budget).
* ``REPRO_CYCLE_BENCH_EDGE_FACTOR`` — edges per vertex (default 16).
* ``REPRO_CYCLE_BENCH_REPEATS`` — interleaved timing rounds, best kept
  (default 2).
* ``REPRO_CYCLE_BENCH_MIN_SPEEDUP`` — hard floor on the 16x16 speedup
  (default 1.0: the vectorized engine must never lose; the committed
  repo-root artifact is generated at the defaults, where it clears 5x).
* ``REPRO_CYCLE_BENCH_LARGE`` — ``RxC`` mesh for the vectorized-only
  scaling run (default ``32x32``; empty string skips it).  Timed with
  the same interleaved best-of-N discipline as the 16x16 pair.
* ``REPRO_CYCLE_BENCH_LARGE_BUDGET`` — wall-clock budget in seconds for
  the large run (default 300, the CI perf-smoke timeout).
* ``REPRO_CYCLE_BENCH_PROBE`` — ``RxC`` mesh for the single budgeted
  paper-scale probe (default ``48x48``; empty string skips it).
* ``REPRO_CYCLE_BENCH_PROBE_BUDGET`` — wall-clock budget in seconds
  for the probe (default 300).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
from conftest import emit, emit_json

from repro.algorithms import make_algorithm
from repro.core.config import ScalaGraphConfig
from repro.core.cycle_sim import CycleAccurateScalaGraph
from repro.core.profiling import Profiler
from repro.graph.generators import rmat_graph

BENCH_PR9 = Path(__file__).resolve().parent.parent / "BENCH_PR9.json"
#: Frozen PR 6 numbers (committed artifact) used as the comparison
#: baseline; never rewritten by this bench.
BENCH_PR6 = Path(__file__).resolve().parent.parent / "BENCH_PR6.json"

SCALE = int(os.environ.get("REPRO_CYCLE_BENCH_SCALE", "14"))
EDGE_FACTOR = int(os.environ.get("REPRO_CYCLE_BENCH_EDGE_FACTOR", "16"))
REPEATS = int(os.environ.get("REPRO_CYCLE_BENCH_REPEATS", "2"))
MIN_SPEEDUP = float(os.environ.get("REPRO_CYCLE_BENCH_MIN_SPEEDUP", "1.0"))
LARGE = os.environ.get("REPRO_CYCLE_BENCH_LARGE", "32x32").strip()
LARGE_BUDGET = float(
    os.environ.get("REPRO_CYCLE_BENCH_LARGE_BUDGET", "300")
)
PROBE = os.environ.get("REPRO_CYCLE_BENCH_PROBE", "48x48").strip()
PROBE_BUDGET = float(
    os.environ.get("REPRO_CYCLE_BENCH_PROBE_BUDGET", "300")
)


def _pr6_baseline(mesh: str) -> float:
    """Committed PR 6 vectorized cycles/sec for ``mesh`` (0.0 when the
    baseline artifact or mesh entry is missing)."""
    if not BENCH_PR6.exists():
        return 0.0
    payload = json.loads(BENCH_PR6.read_text())
    for entry in payload.get("meshes", []):
        if entry.get("mesh") == mesh:
            vec = entry.get("engines", {}).get("vectorized", {})
            return float(vec.get("cycles_per_second", 0.0))
    return 0.0


def _fingerprint(result):
    out = {}
    for name, value in vars(result.stats).items():
        if isinstance(value, (int, float, bool, str)):
            out[name] = value
        elif isinstance(value, list):
            out[name] = tuple(value)
    return out


def _timed_run(engine: str, rows: int, cols: int, graph):
    config = ScalaGraphConfig(
        num_tiles=1,
        pe_rows=rows,
        pe_cols=cols,
        aggregation_registers=64,
        mapping="rom",
        cycle_engine=engine,
    )
    sim = CycleAccurateScalaGraph(config, profiler=Profiler())
    program = make_algorithm("pagerank", max_iters=2)
    start = time.perf_counter()
    result = sim.run(program, graph)
    elapsed = time.perf_counter() - start
    return result, elapsed


def _stepped(result) -> int:
    """Cycles the engine stepped in ``result``'s run."""
    return result.profile["timers"]["cycle_sim.noc_step"]["calls"]


def test_cycle_engine_speed():
    graph = rmat_graph(SCALE, edge_factor=EDGE_FACTOR, seed=1)
    rows = cols = 16

    # Interleaved best-of-N: alternate engines each round so slow drift
    # (thermal, competing load) hits both engines equally.
    best = {"reference": float("inf"), "vectorized": float("inf")}
    results = {}
    for _ in range(REPEATS):
        for engine in ("reference", "vectorized"):
            result, elapsed = _timed_run(engine, rows, cols, graph)
            results[engine] = result
            best[engine] = min(best[engine], elapsed)

    # Equivalence gate before trusting the timing.
    ref, vec = results["reference"], results["vectorized"]
    assert _fingerprint(ref) == _fingerprint(vec), "engines diverged"
    np.testing.assert_array_equal(ref.properties, vec.properties)

    cycles = ref.stats.total_cycles
    ref_cps = _stepped(ref) / best["reference"]
    vec_cps = _stepped(vec) / best["vectorized"]
    speedup = vec_cps / ref_cps
    assert speedup >= MIN_SPEEDUP, (
        f"16x16 cycle-engine speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP:.1f}x floor"
    )

    pr6_16 = _pr6_baseline("16x16")
    payload = {
        "schema": "repro-bench-cycle-engine/2",
        "pr": 9,
        "workload": {
            "graph": f"rmat(scale={SCALE}, edge_factor={EDGE_FACTOR}, seed=1)",
            "vertices": int(graph.num_vertices),
            "edges": int(graph.num_edges),
            "algorithm": "pagerank(max_iters=2)",
            "mapping": "rom",
            "aggregation_registers": 64,
        },
        "repeats": REPEATS,
        "meshes": [
            {
                "mesh": "16x16",
                "cycles": cycles,
                "engines": {
                    "reference": {
                        "seconds": best["reference"],
                        "stepped_cycles": _stepped(ref),
                        "cycles_per_second": ref_cps,
                    },
                    "vectorized": {
                        "seconds": best["vectorized"],
                        "stepped_cycles": _stepped(vec),
                        "cycles_per_second": vec_cps,
                    },
                },
                "speedup": speedup,
                "pr6_vectorized_cycles_per_second": pr6_16,
                "speedup_vs_pr6": (vec_cps / pr6_16) if pr6_16 else None,
            }
        ],
    }
    lines = [
        "mesh   engine      seconds    cycles/s   speedup",
        "-" * 50,
        f"16x16  reference  {best['reference']:>8.2f} {ref_cps:>11,.0f}",
        f"16x16  vectorized {best['vectorized']:>8.2f} {vec_cps:>11,.0f}"
        f" {speedup:>8.2f}x",
    ]

    # Vectorized-only scaling run: a 32x32 mesh (1024 PEs) must finish
    # the same workload inside the perf-smoke wall-clock budget — the
    # reference engine cannot come close at this size.  Best-of-N like
    # the 16x16 pair, so the PR 6 ratio is not a one-shot noise draw.
    if LARGE:
        lrows, _, lcols = LARGE.partition("x")
        lbest = float("inf")
        for _ in range(REPEATS):
            lresult, lelapsed = _timed_run(
                "vectorized", int(lrows), int(lcols), graph
            )
            lbest = min(lbest, lelapsed)
        assert lbest <= LARGE_BUDGET, (
            f"{LARGE} vectorized run took {lbest:.1f}s "
            f"(budget {LARGE_BUDGET:.0f}s)"
        )
        lcycles = lresult.stats.total_cycles
        lcps = _stepped(lresult) / lbest
        pr6_large = _pr6_baseline(LARGE)
        payload["meshes"].append(
            {
                "mesh": LARGE,
                "cycles": lcycles,
                "engines": {
                    "vectorized": {
                        "seconds": lbest,
                        "stepped_cycles": _stepped(lresult),
                        "cycles_per_second": lcps,
                    }
                },
                "budget_seconds": LARGE_BUDGET,
                "pr6_vectorized_cycles_per_second": pr6_large,
                "speedup_vs_pr6": (lcps / pr6_large) if pr6_large else None,
            }
        )
        vs = f" ({lcps / pr6_large:.2f}x vs PR6)" if pr6_large else ""
        lines.append(
            f"{LARGE}  vectorized {lbest:>8.2f} "
            f"{lcps:>11,.0f}   (budget {LARGE_BUDGET:.0f}s){vs}"
        )

    # Budgeted paper-scale probe: one shot at a 48x48 mesh (2304 PEs),
    # no baseline to compare against — the point is that the size runs
    # at all inside a CI-sized budget.
    if PROBE:
        prows, _, pcols = PROBE.partition("x")
        presult, pelapsed = _timed_run(
            "vectorized", int(prows), int(pcols), graph
        )
        assert pelapsed <= PROBE_BUDGET, (
            f"{PROBE} vectorized probe took {pelapsed:.1f}s "
            f"(budget {PROBE_BUDGET:.0f}s)"
        )
        pcycles = presult.stats.total_cycles
        pcps = _stepped(presult) / pelapsed
        payload["meshes"].append(
            {
                "mesh": PROBE,
                "cycles": pcycles,
                "engines": {
                    "vectorized": {
                        "seconds": pelapsed,
                        "stepped_cycles": _stepped(presult),
                        "cycles_per_second": pcps,
                    }
                },
                "budget_seconds": PROBE_BUDGET,
                "probe": True,
            }
        )
        lines.append(
            f"{PROBE}  vectorized {pelapsed:>8.2f} "
            f"{pcps:>11,.0f}   (probe, budget "
            f"{PROBE_BUDGET:.0f}s)"
        )

    emit("bench_cycle_engine_speed", "\n".join(lines))
    emit_json("bench_cycle_engine_speed", payload)
    BENCH_PR9.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
