"""Chaos soak harness: prove the daemon's promises under real kills.

The harness drives a *real* daemon subprocess (``python -m repro
serve``) through the failure modes the service claims to absorb, then
audits the journal for the three properties the ISSUE's acceptance
criteria name:

1. **Zero lost requests** — every admitted request (HTTP 202, plus any
   re-admitted on recovery) reaches a ``done`` journal record with a
   record for every one of its cells (completed or explicitly
   degraded).
2. **No duplicates** — no request is journaled twice, no (request,
   cell, system) record appears twice, even across a daemon SIGKILL +
   restart (monotone journal recovery: the post-restart journal is
   a superset of the pre-kill valid prefix).
3. **Clean drain** — SIGTERM produces exit code 0 after the in-flight
   work is journaled.

The injected chaos: one worker SIGKILL (the ``worker-crash-once``
request hook), one circuit-breaker trip (repeated ``fail`` hooks on
one config family), one blown SLO deadline, fault-schedule-seeded
cycle-fidelity load, and — the big one — a SIGKILL of the *daemon
itself* mid-soak followed by a restart against the same state dir.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

import repro
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.scheduler import JournalReplay, replay_journal


@dataclass(frozen=True)
class SoakSettings:
    """Knobs of one chaos soak run.

    Attributes:
        state_dir: daemon state directory (journal, cache, endpoint
            file); the harness owns it for the run's duration.
        seed: seeds the fault-schedule of the cycle-fidelity workload
            and tags the request batch (re-running with the same seed
            replays the same workload against a fresh state dir).
        kill_daemon: SIGKILL the daemon mid-soak and restart it against
            the same state dir (the recovery half of the soak).
        extra_requests: additional plain analytic requests beyond the
            fixed chaos set, to keep the queue busy across the kill.
        startup_timeout_s: budget for each daemon boot to answer
            ``/healthz``.
        request_timeout_s: budget for any single request to finish.
    """

    state_dir: str
    seed: int = 0
    kill_daemon: bool = True
    extra_requests: int = 3
    startup_timeout_s: float = 30.0
    request_timeout_s: float = 180.0


def _daemon_argv(state_dir: Path) -> List[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--state-dir",
        str(state_dir),
        "--workers",
        "2",
        "--cell-timeout",
        "60",
        "--max-attempts",
        "2",
        "--backoff-base",
        "0.02",
        "--backoff-cap",
        "0.1",
        "--breaker-threshold",
        "2",
        "--breaker-cooldown",
        "60",
        "--queue-capacity",
        "64",
    ]


def _spawn_daemon(state_dir: Path) -> "subprocess.Popen[bytes]":
    """Boot one daemon subprocess with chaos hooks armed."""
    env = dict(os.environ)
    src_root = Path(repro.__file__).resolve().parents[1]
    env["PYTHONPATH"] = (
        f"{src_root}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(src_root)
    )
    env["REPRO_SERVICE_CHAOS"] = "1"
    log = open(state_dir / "daemon.log", "ab")
    try:
        return subprocess.Popen(
            _daemon_argv(state_dir),
            env=env,
            stdout=log,
            stderr=log,
        )
    finally:
        log.close()  # the child holds its own descriptor


def _await_daemon(
    state_dir: Path, proc: "subprocess.Popen[bytes]", timeout_s: float
) -> ServiceClient:
    """Wait for the endpoint file + a 200 ``/healthz``."""
    deadline = time.monotonic() + timeout_s
    endpoint = state_dir / "service.json"
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise ServiceError(
                f"daemon exited during startup (code {proc.returncode})"
            )
        if endpoint.exists():
            try:
                client = ServiceClient.from_state_dir(state_dir, timeout_s=10.0)
            except ServiceError:
                time.sleep(0.05)
                continue
            if client.wait_ready(timeout_s=1.0):
                return client
        time.sleep(0.05)
    raise ServiceError(f"daemon not healthy within {timeout_s:g}s")


def _workload(settings: SoakSettings) -> List[Tuple[str, Dict[str, Any]]]:
    """The soak's request batch: (label, wire payload) pairs.

    Two clients interleave (exercising WRR fairness); the chaos set
    covers one worker SIGKILL, one breaker trip (two ``fail`` requests
    on the same family so the second lands on an open breaker), one
    blown deadline, and one fault-seeded cycle-fidelity request.
    Tags carry the soak seed so repeated soaks never de-dupe against a
    previous run's journal by accident.
    """
    run = f"soak-{settings.seed}"
    batch: List[Tuple[str, Dict[str, Any]]] = [
        (
            "worker-crash",
            {
                "client_id": "alice",
                "graphs": ["PK", "LJ"],
                "algorithms": ["bfs"],
                "systems": ["Gunrock", "ScalaGraph-512"],
                "scale_shift": -9,
                "tag": f"{run}-crash",
                "chaos": ["worker-crash-once"],
            },
        ),
        (
            "breaker-trip-a",
            {
                "client_id": "bob",
                "graphs": ["PK"],
                "algorithms": ["cc"],
                "systems": ["Gunrock"],
                "scale_shift": -9,
                "tag": f"{run}-fail-a",
                "chaos": ["fail"],
            },
        ),
        (
            "breaker-trip-b",
            {
                "client_id": "bob",
                "graphs": ["LJ"],
                "algorithms": ["cc"],
                "systems": ["Gunrock"],
                "scale_shift": -9,
                "tag": f"{run}-fail-b",
                "chaos": ["fail"],
            },
        ),
        (
            "blown-deadline",
            {
                "client_id": "alice",
                "graphs": ["OR"],
                "algorithms": ["pagerank"],
                "systems": ["Gunrock"],
                "scale_shift": -9,
                "deadline_s": 0.001,
                "tag": f"{run}-deadline",
            },
        ),
        (
            "cycle-faulted",
            {
                "client_id": "bob",
                "graphs": ["PK"],
                "algorithms": ["bfs"],
                "systems": ["ScalaGraph-128"],
                "scale_shift": -9,
                "max_iterations": 4,
                "fidelity": "cycle",
                "fault_seed": settings.seed,
                "tag": f"{run}-cycle",
            },
        ),
    ]
    algorithms = ("bfs", "sssp", "pagerank")
    graphs = ("PK", "LJ", "OR", "RM", "TW")
    for index in range(settings.extra_requests):
        batch.append(
            (
                f"filler-{index}",
                {
                    "client_id": "alice" if index % 2 == 0 else "bob",
                    "graphs": [graphs[index % len(graphs)]],
                    "algorithms": [algorithms[index % len(algorithms)]],
                    "systems": ["Gunrock", "GraphDynS-128"],
                    "scale_shift": -9,
                    "tag": f"{run}-filler-{index}",
                },
            )
        )
    return batch


def _audit_journal(
    replay: JournalReplay, admitted: Set[str]
) -> Dict[str, Any]:
    """The zero-lost / no-duplicate audit over a final journal."""
    lost = sorted(rid for rid in admitted if rid not in replay.done)
    duplicate_cells: List[str] = []
    incomplete: List[str] = []
    degraded_cells = 0
    for rid in admitted:
        seen: Set[Tuple[str, str, str]] = set()
        for record in replay.cells.get(rid, []):
            cell = (record["graph"], record["algorithm"], record["system"])
            if cell in seen:
                duplicate_cells.append(f"{rid}:{'/'.join(cell)}")
            seen.add(cell)
            if record.get("degraded"):
                degraded_cells += 1
        done = replay.done.get(rid)
        if done is not None and done.get("cells") != len(seen):
            incomplete.append(rid)
    return {
        "lost_requests": lost,
        "duplicate_cells": duplicate_cells,
        "incomplete_requests": incomplete,
        "degraded_cells": degraded_cells,
    }


def run_soak(settings: SoakSettings) -> Dict[str, Any]:
    """Run the full chaos soak; returns the audit report.

    ``report["ok"]`` is the single gate CI checks: it requires zero
    lost requests, zero duplicate cells, at least one degraded cell
    (the chaos actually fired), at least one breaker trip, a clean
    SIGTERM drain (exit 0) — and, when ``kill_daemon`` is set, that
    the post-restart journal is a superset of the pre-kill prefix.
    """
    state_dir = Path(settings.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    report: Dict[str, Any] = {
        "seed": settings.seed,
        "kill_daemon": settings.kill_daemon,
        "admitted": 0,
        "rejected": 0,
        "daemon_restarts": 0,
    }
    admitted: Set[str] = set()
    proc = _spawn_daemon(state_dir)
    try:
        client = _await_daemon(state_dir, proc, settings.startup_timeout_s)
        batch = _workload(settings)
        # Phase 1: submit everything up front so the kill lands with
        # work still queued behind the in-flight cell.
        for _, payload in batch:
            http, body = client.submit(payload)
            if http in (200, 202):
                admitted.add(body["request_id"])
            else:
                report["rejected"] += 1
        report["admitted"] = len(admitted)

        pre_kill = JournalReplay()
        if settings.kill_daemon:
            # Phase 2: let some cells land, then SIGKILL the daemon.
            deadline = time.monotonic() + settings.request_timeout_s
            while time.monotonic() < deadline:
                if replay_journal(state_dir / "journal.jsonl").cells:
                    break
                time.sleep(0.05)
            pre_kill = replay_journal(state_dir / "journal.jsonl")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            report["daemon_restarts"] = 1
            proc = _spawn_daemon(state_dir)
            client = _await_daemon(
                state_dir, proc, settings.startup_timeout_s
            )

        # Phase 3: wait for every admitted request to finish, and
        # check the stream replays exactly the journaled records.
        for request_id in sorted(admitted):
            client.wait_done(
                request_id, timeout_s=settings.request_timeout_s
            )
        probe_id = sorted(admitted)[0] if admitted else None
        stream_consistent = True
        if probe_id is not None:
            streamed = [
                r for r in client.stream(probe_id) if r.get("kind") == "cell"
            ]
            _, results = client.results(probe_id)
            stream_consistent = len(streamed) == len(
                results.get("records", [])
            )
        report["stream_consistent"] = stream_consistent
        _, stats = client.stats()
        trips = sum(
            family.get("trips", 0)
            for family in stats.get("breakers", {})
            .get("families", {})
            .values()
        )
        report["breaker_trips"] = trips

        # Phase 4: graceful drain.
        proc.send_signal(signal.SIGTERM)
        report["drain_exit_code"] = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    final = replay_journal(state_dir / "journal.jsonl")
    report.update(_audit_journal(final, admitted))
    monotone = True
    if settings.kill_daemon:
        final_cells = {
            (rid, r["graph"], r["algorithm"], r["system"])
            for rid, records in final.cells.items()
            for r in records
        }
        pre_cells = {
            (rid, r["graph"], r["algorithm"], r["system"])
            for rid, records in pre_kill.cells.items()
            for r in records
        }
        monotone = pre_cells.issubset(final_cells)
    report["monotone_recovery"] = monotone
    report["ok"] = bool(
        report["admitted"] > 0
        and not report["lost_requests"]
        and not report["duplicate_cells"]
        and not report["incomplete_requests"]
        and report["degraded_cells"] > 0
        and report["breaker_trips"] > 0
        and report["stream_consistent"]
        and report["drain_exit_code"] == 0
        and monotone
    )
    return report
