"""Self-test of the performance benchmark, at ``--smoke`` size (< 60 s).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py

Checks that every metric ``BENCHMARK.json`` names is emitted with its
unit for every workload, that untraced runs carry the exact metrics,
that the host clock scales a time by the readings around it,
that traced layer times add up to the traced wall time, that a
corrupted output fails the run, that no daemon process or temporary
state outlives it, and how ``compare.py`` judges.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import cycle_bench
import run
from harness import REFERENCE_CLOCK_S, SCRATCH, TOP_LAYERS, HostClock
from harness import group_members

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
LINE_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "perf" / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced smoke run of every workload: (stdout lines, document)."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = _run("--smoke", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return lines, json.loads(out.read_text())


def _assert_metrics(block, specs):
    assert list(block) == [s["name"] for s in specs]
    for spec in specs:
        assert block[spec["name"]]["unit"] == spec["unit"]
        assert math.isfinite(block[spec["name"]]["value"])


def test_every_metric_is_emitted_with_its_unit(traced):
    lines, doc = traced
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert set(line) == LINE_KEYS
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        _assert_metrics(line["metrics"], BENCH["per_layer"])
    assert list(doc["workloads"]) == WORKLOADS
    for result in doc["workloads"].values():
        _assert_metrics(result["end_to_end"], BENCH["end_to_end"])
        assert all(e["value"] > 0 for e in result["end_to_end"].values())
        _assert_metrics(result["per_layer"], BENCH["per_layer"])


def test_untraced_run_carries_end_to_end_and_exact_metrics(traced, tmp_path):
    out = tmp_path / "untraced.json"
    proc = _run(
        "--workload", "cycle-bfs-faults-16x16", "--seed", "1",
        "--trace", "0", "--smoke", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == LINE_KEYS
    _assert_metrics(line["metrics"], BENCH["end_to_end"])
    [result] = json.loads(out.read_text())["workloads"].values()
    assert result["samples"]["latency_ms"] == 1  # --smoke: one operation
    # The exact metrics need no trace, and the traced run's per-layer
    # metrics of the same seed repeat them.
    exact = result["exact"]
    assert exact["cycle.model_error_x"] > 1.0
    layers = traced[1]["workloads"]["cycle-bfs-faults-16x16"]["per_layer"]
    assert exact == {name: layers[name]["value"] for name in exact}


def test_layer_times_add_up_to_the_traced_wall_time(traced):
    _, doc = traced
    for name, result in doc["workloads"].items():
        layers = result["per_layer"]
        total = sum(layers[f"{span}_s"]["value"] for span in TOP_LAYERS)
        total += layers["unattributed_s"]["value"]
        wall = layers["trace.wall_s"]["value"]
        assert total == pytest.approx(wall, rel=1e-9), name
        assert layers["unattributed_s"]["value"] < 0.05 * wall, name


def test_no_daemon_or_state_survives(traced):
    _, doc = traced
    pids = doc["workloads"]["serve-mixed"]["info"]["daemon_pids"]
    assert len(pids) >= 1
    for pid in pids:
        assert group_members(pid) == []
    assert doc["workloads"]["serve-mixed"]["info"]["drain_exit_codes"] == [0] * len(pids)
    assert not SCRATCH.exists() or not any(SCRATCH.iterdir())


def test_a_corrupted_property_array_fails_the_run(monkeypatch, capsys):
    real_run = cycle_bench.CycleAccurateScalaGraph.run

    def corrupted(self, *args, **kwargs):
        result = real_run(self, *args, **kwargs)
        # BFS leaves unreached vertices at inf, which adding to would
        # not change: corrupt a reached one.
        reached = np.flatnonzero(np.isfinite(result.properties))
        result.properties[reached[0]] += 1.0
        return result

    monkeypatch.setattr(cycle_bench.CycleAccurateScalaGraph, "run", corrupted)
    code = run.main(["--workload", "cycle-bfs-faults-16x16", "--smoke"])
    assert code == 1
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1


def test_host_clock_scales_by_the_readings_around_an_operation():
    clock = HostClock()
    clock.read()
    assert clock.readings[0] > 0
    # Half the reference speed before the operation, a quarter after.
    clock.readings += [2 * REFERENCE_CLOCK_S, 4 * REFERENCE_CLOCK_S]
    assert clock.scale(6.0) == pytest.approx(2.0)


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    faster = [80.0 + i for i in range(10)]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "better"
    assert compare.verdict(faster, parent, "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == "unchanged"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"


def test_compare_judges_exact_metrics_with_bound_zero():
    parent = {1: [5.16, 5.16], 2: [4.98]}
    assert compare.exact_verdict(parent, {1: [5.16], 2: [4.98]}, "lower") == "same"
    assert compare.exact_verdict(parent, {1: [5.10]}, "lower") == "better"
    assert compare.exact_verdict(parent, {1: [5.10], 2: [4.99]}, "lower") == "worse"
    assert compare.exact_verdict(parent, {1: [5.16, 5.17]}, "lower") == "unsteady"
    assert compare.exact_verdict(parent, {3: [1.0]}, "lower") is None


def test_compare_refuses_runs_of_different_lengths(tmp_path, traced):
    _, doc = traced
    short = tmp_path / "short.json"
    short.write_text(json.dumps(doc))
    longer = tmp_path / "long.json"
    longer.write_text(json.dumps({**doc, "seconds": doc["seconds"] + 5}))
    args = ["--parent", str(short), "--change"]
    assert compare.main(args + [str(short)]) == 0
    assert compare.main(args + [str(longer)]) == 2
