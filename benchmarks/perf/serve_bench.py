"""Served requests: ``repro serve`` driven by one closed-loop client.

A daemon (``python -m repro serve --workers 2``) runs in a temporary
state directory inside the checkout.  One client sends a request, reads
its result stream to the ``done`` line, and only then sends the next: a
closed loop, so a slower daemon receives less load.  Latency runs from
submit to ``done``.  The loop runs in whole blocks of the mix, with a
host clock reading after each; every latency of a block, and the
block's time, are scaled by the readings around it (see
``harness.HostClock``), and the throughput is the median block's rate.

One client, not two: the daemon executes one request at a time, so
with two clients every latency becomes the sum of two requests' service
times and the median jumps between the modes of the mix (43% spread
across seeds on a 2-core host, against 5% with one client).

The mix, one (graph, algorithm, system) cell per request, in blocks of
20 whose order the seed shuffles (so the proportions are exact), from
fastest to slowest kind:

* 5 resubmissions of a warm-up request, answered by content dedupe
  with HTTP 200;
* 10 analytic cache hits — a cell primed in set-up, under a fresh tag
  so the request is new but its cell is cached;
* 3 analytic misses — a fresh ``max_iterations`` (above any cell's
  iteration count) keys a new cache entry, so the worker computes,
  stores and fsyncs it;
* 2 ``fidelity: cycle`` requests on ScalaGraph-128, which the daemon
  runs on the reference cycle engines of a 4x4 mesh.

The proportions put both reported percentiles in the middle of a kind:
the median in the middle of the cache hits (25-75%), the 95th in the
middle of the cycle requests (90-100%).  With 3 resubmissions and 5
misses the median sat at the hits' 70th percentile, where the latency
climbs steeply towards the misses: on a busy host ten seeds spread 36%
(60% unscaled).

Set-up (repeated; median reported) computes the hit cells in-process,
stores them with ``ResultCache.put`` in the daemon's cache, boots the
daemon and sends the warm-up requests, which start a pool worker.

Priming also matters for what is measured: the daemon's worker opens
the cache with ``if cache:``, and ``ResultCache`` defines ``__len__``,
so a daemon whose cache starts empty never reads or writes it.  Priming
makes every run exercise the cache the way a long-lived daemon would.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import ROOT, SETUP_REPEATS, TOP_LAYERS, HostClock, Ledger
from harness import Outcome, Settings, Trace, median, proc_status_mb
from harness import stop_group, tail, worker_count
from repro.algorithms import make_algorithm
from repro.core import CycleAccurateScalaGraph, ScalaGraphConfig
from repro.core.stats import SimulationReport
from repro.errors import ServiceError
from repro.experiments import (
    GRAPH_ORDER,
    ResultCache,
    execute_cell,
    load_benchmark_graph,
)
from repro.experiments.runner import SYSTEM_ORDER
from repro.service.client import ServiceClient
from repro.service.scheduler import ServiceJournal

SCALE_SHIFT = -4
SMOKE_SCALE_SHIFT = -7

#: Algorithms of the hit and miss cells: all converge, so a miss capped
#: at ``MISS_CAP_BASE + index`` iterations computes the uncapped result.
ALGORITHMS = ("bfs", "sssp", "cc")
MISS_CAP_BASE = 1000
CYCLE_CELL = ("PK", "bfs", "ScalaGraph-128")

#: One block of the mix; the seed shuffles each block's order.
BLOCK = ("dup",) * 5 + ("hit",) * 10 + ("miss",) * 3 + ("cycle",) * 2
KINDS = ("hit", "miss", "dup", "cycle")

MIN_REQUESTS = 200
SMOKE_MIN_REQUESTS = 20
WARMUP_REQUESTS = 8
PROBE_CALLS = 20

BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0

Cell = Tuple[str, str, str]
UNIVERSE: List[Cell] = [
    (graph, algorithm, system)
    for graph in GRAPH_ORDER
    for algorithm in ALGORITHMS
    for system in SYSTEM_ORDER
]

#: Summary fields compared against the in-process computation.
ANALYTIC_FIELDS = ("gteps", "total_cycles", "total_edges_traversed", "iterations")
CYCLE_FIELDS = ("total_cycles", "iterations", "updates_processed", "converged")


@dataclass(frozen=True)
class Request:
    index: int
    kind: str
    cell: Cell
    payload: Dict[str, Any]


def _payload(cell: Cell, scale_shift: int, **extra: Any) -> Dict[str, Any]:
    graph, algorithm, system = cell
    return {
        "client_id": "perf",
        "graphs": [graph],
        "algorithms": [algorithm],
        "systems": [system],
        "scale_shift": scale_shift,
        **extra,
    }


def warmup_requests(seed: int, scale_shift: int) -> List[Request]:
    rng = random.Random(f"serve-mixed:{seed}:warmup")
    return [
        Request(-1 - j, "hit", cell, _payload(cell, scale_shift, tag=f"warm-{j}"))
        for j, cell in enumerate(rng.sample(UNIVERSE, WARMUP_REQUESTS))
    ]


def make_request(
    seed: int, index: int, scale_shift: int, warmup: List[Request]
) -> Request:
    """Request ``index`` of the seeded mix (independent of timing).

    Each kind walks its own seeded permutation of the cells, so every
    run of a few hundred requests covers the cells evenly and the mix's
    cost does not depend on which cells the seed happens to draw.
    """
    block, position = divmod(index, len(BLOCK))
    kinds = list(BLOCK)
    random.Random(f"serve-mixed:{seed}:block:{block}").shuffle(kinds)
    kind = kinds[position]
    ordinal = block * BLOCK.count(kind) + kinds[:position].count(kind)
    if kind == "dup":
        order = random.Random(f"serve-mixed:{seed}:dup").sample(warmup, len(warmup))
        return replace(order[ordinal % len(order)], index=index, kind="dup")
    if kind == "cycle":
        payload = _payload(
            CYCLE_CELL, scale_shift, fidelity="cycle", tag=f"cycle-{index}"
        )
        return Request(index, kind, CYCLE_CELL, payload)
    order = random.Random(f"serve-mixed:{seed}:{kind}").sample(UNIVERSE, len(UNIVERSE))
    cell = order[ordinal % len(order)]
    if kind == "hit":
        return Request(index, kind, cell, _payload(cell, scale_shift, tag=f"hit-{index}"))
    payload = _payload(cell, scale_shift, max_iterations=MISS_CAP_BASE + index)
    return Request(index, kind, cell, payload)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Expected:
    """In-process results the daemon's records must match."""

    analytic: Dict[Cell, Dict[str, Any]] = field(default_factory=dict)
    cycle: Dict[str, Any] = field(default_factory=dict)
    reports: List[Tuple[Cell, SimulationReport]] = field(default_factory=list)


def prime(cache_dir: Path, scale_shift: int) -> Expected:
    """Compute every hit cell, store it in the daemon's cache, and run
    the cycle cell on the same 4x4 reference engines the daemon uses."""
    expected = Expected()
    cache = ResultCache(cache_dir)
    for graph in GRAPH_ORDER:
        for algorithm in ALGORITHMS:
            for system, report in execute_cell(
                graph, algorithm, SYSTEM_ORDER, scale_shift
            ):
                cache.put(graph, algorithm, system, report, scale_shift)
                cell = (graph, algorithm, system)
                expected.reports.append((cell, report))
                expected.analytic[cell] = {
                    "gteps": float(report.gteps),
                    "total_cycles": float(report.total_cycles),
                    "total_edges_traversed": int(report.total_edges_traversed),
                    "iterations": len(report.iterations),
                }
    graph, algorithm, _ = CYCLE_CELL
    config = ScalaGraphConfig(num_tiles=1, pe_rows=4, pe_cols=4)
    result = CycleAccurateScalaGraph(config, sanitize=False).run(
        make_algorithm(algorithm),
        load_benchmark_graph(graph, algorithm, scale_shift),
    )
    expected.cycle = {
        "total_cycles": int(result.stats.total_cycles),
        "iterations": int(result.stats.iterations),
        "updates_processed": int(result.stats.updates_processed),
        "converged": bool(result.converged),
    }
    return expected


class Daemon:
    """One ``repro serve`` subprocess in its own process group."""

    def __init__(self, state_dir: Path, workers: int, seed: int) -> None:
        env = dict(os.environ)
        env.pop("REPRO_SERVICE_CHAOS", None)
        env.pop("REPRO_SANITIZE", None)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = (
            f"{src}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else src
        )
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--state-dir", str(state_dir),
            "--workers", str(workers),
            "--seed", str(seed),
        ]
        self.state_dir = state_dir
        with open(state_dir / "daemon.log", "wb") as log:
            self.proc = subprocess.Popen(
                argv, env=env, stdout=log, stderr=log, start_new_session=True
            )
        self.stopped = False

    def wait_ready(self) -> ServiceClient:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        endpoint = self.state_dir / "service.json"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise ServiceError(
                    f"daemon exited during boot (code {self.proc.returncode})"
                )
            if endpoint.exists():
                client = ServiceClient.from_state_dir(
                    self.state_dir, timeout_s=REQUEST_TIMEOUT_S
                )
                if client.wait_ready(timeout_s=1.0):
                    return client
            time.sleep(0.005)
        raise ServiceError(f"daemon not healthy within {BOOT_TIMEOUT_S:g}s")

    def stop(self) -> Optional[int]:
        """SIGTERM (graceful drain), wait, SIGKILL the group if needed."""
        self.stopped = True
        return stop_group(self.proc)


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Sample:
    request: Request
    status: Optional[int] = None
    body: Dict[str, Any] = field(default_factory=dict)
    records: List[Dict[str, Any]] = field(default_factory=list)
    latency_s: float = 0.0
    submit_s: float = 0.0
    first_s: float = 0.0
    error: Optional[str] = None


def _issue(client: ServiceClient, request: Request) -> Sample:
    sample = Sample(request)
    start = time.perf_counter()
    try:
        sample.status, sample.body = client.submit(request.payload)
        sample.submit_s = time.perf_counter() - start
        if sample.status in (200, 202):
            for record in client.stream(sample.body["request_id"]):
                if not sample.records:
                    sample.first_s = time.perf_counter() - start
                sample.records.append(record)
    except (ServiceError, OSError, ValueError, KeyError) as exc:
        sample.error = f"{type(exc).__name__}: {exc}"
    sample.latency_s = time.perf_counter() - start
    return sample


def closed_loop(
    client: ServiceClient,
    requests: Callable[[int], Request],
    first_index: int,
    stop: Callable[[int, float], bool],
) -> Tuple[List[Sample], float, int]:
    """Send ``requests(i)`` from ``first_index`` on, each after the
    previous one finished, until ``stop(sent, elapsed_s)``.

    Returns the samples, the loop's wall time and the next unused index.
    """
    samples: List[Sample] = []
    start = time.perf_counter()
    while not stop(len(samples), time.perf_counter() - start):
        samples.append(_issue(client, requests(first_index + len(samples))))
    return samples, time.perf_counter() - start, first_index + len(samples)


def _strip(summary: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in summary.items() if k != "cached"}


def check_sample(sample: Sample, expected: Expected) -> List[str]:
    """Why ``sample`` is wrong (empty when it is right)."""
    request = sample.request
    if sample.error is not None:
        return [sample.error]
    want_status = 200 if request.kind == "dup" else 202
    problems = []
    if sample.status != want_status:
        problems.append(f"HTTP {sample.status}, expected {want_status}")
        return problems
    if (request.kind == "dup") != bool(sample.body.get("deduped")):
        problems.append("dedupe flag wrong")
    cells = [r for r in sample.records if r.get("kind") == "cell"]
    done = sample.records[-1] if sample.records else {}
    if done.get("kind") != "done" or done.get("cells") != 1 or done.get("degraded"):
        problems.append(f"stream did not end in a clean done line: {done}")
    if len(cells) != 1:
        return problems + [f"{len(cells)} cell records, expected 1"]
    record = cells[0]
    if record.get("degraded"):
        problems.append(f"degraded: {record.get('degraded_reason')}")
    if (record["graph"], record["algorithm"], record["system"]) != request.cell:
        problems.append("record is for another cell")
    summary = record.get("summary", {})
    if request.kind == "cycle":
        want, names = expected.cycle, CYCLE_FIELDS
    else:
        want, names = expected.analytic[request.cell], ANALYTIC_FIELDS
    got = {name: summary.get(name) for name in names}
    if got != {name: want[name] for name in names}:
        problems.append(f"summary {got} differs from in-process {want}")
    return problems


def check_samples(
    samples: List[Sample], expected: Expected, ledger: Ledger, label: str
) -> None:
    """One operation per request, plus: every record of one cell — hit,
    miss or cycle — must be identical apart from its ``cached`` flag."""
    by_cell: Dict[Tuple[str, Cell], List[Dict[str, Any]]] = {}
    for sample in samples:
        problems = check_sample(sample, expected)
        ledger.record(
            not problems,
            f"{label} request {sample.request.index} ({sample.request.kind}): "
            + "; ".join(problems),
        )
        if not problems:
            record = next(r for r in sample.records if r.get("kind") == "cell")
            fidelity = "cycle" if sample.request.kind == "cycle" else "analytic"
            by_cell.setdefault((fidelity, sample.request.cell), []).append(
                _strip(record["summary"])
            )
    for key, summaries in by_cell.items():
        ledger.record(
            all(s == summaries[0] for s in summaries),
            f"{label}: records of {key} differ between requests",
        )


def _p50_ms(values: List[float]) -> float:
    return median(values) * 1e3 if values else 0.0


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(
    name: str, settings: Settings, ledger: Ledger, clock: HostClock
) -> Outcome:
    scale_shift = SMOKE_SCALE_SHIFT if settings.smoke else SCALE_SHIFT
    min_requests = SMOKE_MIN_REQUESTS if settings.smoke else MIN_REQUESTS
    workers = worker_count()
    warmup = warmup_requests(settings.seed, scale_shift)

    def requests(index: int) -> Request:
        if index < 0:
            return warmup[-1 - index]
        return make_request(settings.seed, index, scale_shift, warmup)

    daemons: List[Daemon] = []
    state_dirs: List[Path] = []
    outcome = Outcome(
        layers=("service", "store", "journal", "trace"),
        info={"daemon_pids": [], "drain_exit_codes": []},
    )
    try:
        setup_times: List[float] = []  # host seconds
        setup_scaled: List[float] = []  # HostClock.scale of each
        boot_times: List[float] = []
        daemon: Optional[Daemon] = None
        expected = Expected()
        client: Optional[ServiceClient] = None
        for index in range(SETUP_REPEATS):
            if daemon is not None:
                _retire(daemon, ledger, outcome)
            state_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=settings.tmp_root))
            state_dirs.append(state_dir)
            start = time.perf_counter()
            expected = prime(state_dir / "cache", scale_shift)
            boot_start = time.perf_counter()
            daemon = Daemon(state_dir, workers, settings.seed)
            daemons.append(daemon)
            outcome.info["daemon_pids"].append(daemon.proc.pid)
            client = daemon.wait_ready()
            boot_times.append(time.perf_counter() - boot_start)
            warm, _, _ = closed_loop(
                client,
                requests,
                -WARMUP_REQUESTS,
                lambda sent, _: sent >= WARMUP_REQUESTS,
            )
            setup_times.append(time.perf_counter() - start)
            check_samples(warm, expected, ledger, f"warm-up {index}")
            clock.read()
            setup_scaled.append(clock.scale(setup_times[-1]))
        assert daemon is not None and client is not None

        # Whole blocks of the mix, with a host clock reading after each;
        # the loop's time leaves the readings out.
        samples: List[Sample] = []
        latencies: List[float] = []  # scaled
        blocks: List[float] = []  # scaled
        loop_s = 0.0  # host seconds
        next_index = 0
        while len(samples) < min_requests or loop_s < settings.seconds:
            block, block_s, next_index = closed_loop(
                client, requests, next_index, lambda sent, _: sent >= len(BLOCK)
            )
            clock.read()
            samples += block
            latencies += [clock.scale(s.latency_s) for s in block]
            loop_s += block_s
            blocks.append(clock.scale(block_s))
        check_samples(samples, expected, ledger, "measured")
        outcome.end_to_end = {
            "setup_s": median(setup_scaled),
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_p95_ms": tail(latencies) * 1e3,
            # Every block holds the same mix, so the median block's
            # rate is the loop's rate without its outlier blocks.
            "throughput_per_s": len(BLOCK) / median(blocks),
            "peak_rss_mb": proc_status_mb(daemon.proc.pid, "VmHWM"),
        }
        outcome.samples = {"setup_s": len(setup_times), "latency_ms": len(samples)}
        outcome.info.update(
            {
                "scale_shift": scale_shift,
                "daemon_workers": workers,
                "requests": len(samples),
                "by_kind": {
                    kind: sum(1 for s in samples if s.request.kind == kind)
                    for kind in KINDS
                },
                "setup_s": setup_times,
                "loop_s": loop_s,
                "latency_s": [s.latency_s for s in samples],
                "boot_s": boot_times,
            }
        )
        if settings.trace:
            outcome.per_layer = _traced_pass(
                client, daemon, requests, next_index, min_requests, expected,
                median(outcome.info["latency_s"]), boot_times, scale_shift,
                settings, ledger,
                outcome,
            )
        _retire(daemon, ledger, outcome)
    finally:
        for started in daemons:
            if not started.stopped:
                started.stop()
        for state_dir in state_dirs:
            shutil.rmtree(state_dir, ignore_errors=True)
    return outcome


def _retire(daemon: Daemon, ledger: Ledger, outcome: Outcome) -> None:
    code = daemon.stop()
    outcome.info["drain_exit_codes"].append(code)
    ledger.record(code == 0, f"daemon drain exited with {code}, expected 0")


def _traced_pass(
    client: ServiceClient,
    daemon: Daemon,
    requests: Callable[[int], Request],
    first_index: int,
    count: int,
    expected: Expected,
    untraced_p50_s: float,
    boot_times: List[float],
    scale_shift: int,
    settings: Settings,
    ledger: Ledger,
    outcome: Outcome,
) -> Dict[str, float]:
    """A second closed loop of ``count`` requests recording submit and
    first-record times, then direct store and journal calls on the same
    record sizes."""
    trace = Trace()
    with trace.span("service.loop"):
        samples, _, _ = closed_loop(
            client, requests, first_index, lambda sent, _: sent >= count
        )
    check_samples(samples, expected, ledger, "traced")
    probe_dir = Path(tempfile.mkdtemp(prefix="probe-", dir=settings.tmp_root))
    try:
        cache = ResultCache(probe_dir / "cache")
        puts: List[float] = []
        gets: List[float] = []
        with trace.span("store.probe"):
            for index in range(PROBE_CALLS):
                (graph, algorithm, system), report = expected.reports[
                    index % len(expected.reports)
                ]
                cap = MISS_CAP_BASE + index  # a fresh key per call
                began = time.perf_counter()
                cache.put(graph, algorithm, system, report, scale_shift, cap)
                puts.append(time.perf_counter() - began)
                began = time.perf_counter()
                hit = cache.get(graph, algorithm, system, scale_shift, cap)
                gets.append(time.perf_counter() - began)
                ledger.record(
                    hit is not None and hit.to_dict() == report.to_dict(),
                    f"store probe {index}: cached report did not round-trip",
                )
        record = next(r for s in samples for r in s.records if r.get("kind") == "cell")
        appends: List[float] = []
        with trace.span("journal.probe"):
            journal = ServiceJournal(probe_dir / "journal.jsonl")
            try:
                for _ in range(PROBE_CALLS):
                    began = time.perf_counter()
                    journal.append(record)
                    appends.append(time.perf_counter() - began)
            finally:
                journal.close()
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    trace.finish()

    def kind_ms(kind: str) -> float:
        return _p50_ms([s.latency_s for s in samples if s.request.kind == kind])

    cells = [r for s in samples for r in s.records if r.get("kind") == "cell"]
    analytic = [r for r in cells if r["summary"].get("fidelity") == "analytic"]
    statuses = [s.status for s in samples]
    outcome.spans = trace.spans
    layers = trace.layer_times(TOP_LAYERS)
    layers.update(
        {
            "service.boot_s": median(boot_times),
            "service.submit_ms_p50": _p50_ms([s.submit_s for s in samples]),
            "service.first_record_ms_p50": _p50_ms(
                [s.first_s for s in samples if s.records]
            ),
            "service.hit_ms_p50": kind_ms("hit"),
            "service.miss_ms_p50": kind_ms("miss"),
            "service.dup_ms_p50": kind_ms("dup"),
            "service.cycle_ms_p50": kind_ms("cycle"),
            "service.http_2xx": sum(1 for c in statuses if c in (200, 202)),
            "service.http_429": statuses.count(429),
            "service.http_503": statuses.count(503),
            "service.degraded_cells": sum(1 for r in cells if r.get("degraded")),
            "service.cache_hit_ratio": (
                sum(1 for r in analytic if r["summary"].get("cached"))
                / max(len(analytic), 1)
            ),
            "service.daemon_rss_mb": proc_status_mb(daemon.proc.pid, "VmRSS"),
            "store.get_ms": median(gets) * 1e3,
            "store.put_ms": median(puts) * 1e3,
            "journal.append_ms": median(appends) * 1e3,
            "trace.overhead_ratio": (
                median([s.latency_s for s in samples]) / untraced_p50_s - 1.0
            ),
        }
    )
    return layers
