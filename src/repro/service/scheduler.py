"""The sweep service's execution core: journal, pool, SLOs, degradation.

:class:`SweepScheduler` owns everything between admission and response:

* a **durable journal** (:class:`ServiceJournal`, the shared
  :class:`~repro.experiments.executor.Journal`) — an fsync'd
  append-only JSONL file recording every admitted request, every
  finished cell, and every completed request.  A daemon SIGKILLed
  mid-write loses at most the record being written; on boot the valid
  prefix is replayed, unfinished requests are re-admitted, and their
  already-journaled cells are *not* re-executed — the
  monotone-recovery property the chaos soak asserts.
* a **worker pool** with crash isolation, run by the same
  :class:`~repro.experiments.executor.CellExecutor` as the batch sweep:
  a SIGKILLed worker breaks the pool (``BrokenProcessPool``), which is
  rebuilt, and the cell is retried under jittered exponential backoff.
* **SLO deadline propagation**: a request's ``deadline_s`` budget is
  anchored at admission and converted into per-cell timeouts
  (``min(cell_timeout_s, remaining)``); once the budget is spent the
  remaining cells return *degraded* analytic results instead of
  queueing unbounded work behind a blown deadline.
* **graceful degradation** via the per-family circuit breakers: cells
  whose family is open — or whose own retries are exhausted — are
  answered by the in-process analytic model, marked
  ``degraded: true`` with a machine-readable reason.  Every admitted
  cell yields exactly one record: completed, degraded, or (when even
  the analytic fallback fails) an explicit error record.

The scheduler is single-loop asyncio; cells of one request run
concurrently up to the pool width, requests are served in the
admission queue's weighted round-robin order.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.errors import (
    CircuitOpenError,
    ProtocolError,
    ReproError,
    SanitizerError,
)
from repro.experiments.executor import CellExecutor, CellFailed, Journal
from repro.experiments.executor import JournalReplay, replay_journal  # noqa: F401
from repro.experiments.runner import cached_cell
from repro.experiments.store import CODE_MODEL_VERSION, ResultCache
from repro.service.breaker import BreakerPolicy, CircuitBreakerBank
from repro.service.protocol import (
    DEGRADED_BREAKER_OPEN,
    DEGRADED_DEADLINE,
    DEGRADED_RETRIES_EXHAUSTED,
    PROTOCOL_VERSION,
    STATE_DONE,
    STATE_QUEUED,
    STATE_RUNNING,
    SweepRequest,
    cell_record,
    request_key,
)
from repro.service.queue import AdmissionQueue

#: The daemon's journal, under the name the service's callers import.
ServiceJournal = Journal


# ----------------------------------------------------------------------
# Worker-side execution (module-level: must pickle across the pool)
# ----------------------------------------------------------------------
#: Cycle-accurate stand-in meshes per system label.  The service's
#: cycle fidelity runs a single-tile twin sized for interactive
#: latency; the label still selects distinct hardware (column count),
#: mirroring how ScalaGraph-128/512 differ by columns.
_CYCLE_MESH: Dict[str, Tuple[int, int]] = {
    "ScalaGraph-128": (4, 4),
    "ScalaGraph-512": (4, 8),
}


def _chaos_maybe_crash(chaos: Tuple[str, ...], chaos_dir: str, request_id: str) -> None:
    """Honour the ``worker-crash-once`` hook: SIGKILL self, once.

    The one-shot latch is an ``O_CREAT|O_EXCL`` flag file keyed by
    request id, so exactly one worker dies per request no matter how
    many cells race — the atomic create *is* the election.
    """
    if "worker-crash-once" not in chaos:
        return
    flag = os.path.join(chaos_dir, f"crashed-{request_id}")
    try:
        fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # someone already took the bullet for this request
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _summarise_report(report: Any) -> Dict[str, Any]:
    """The compact wire summary of one analytic SimulationReport."""
    return {
        "fidelity": "analytic",
        "gteps": float(report.gteps),
        "total_cycles": float(report.total_cycles),
        "total_edges_traversed": int(report.total_edges_traversed),
        "iterations": len(report.iterations),
    }


def _analytic_cell(
    graph: str,
    algorithm: str,
    systems: Tuple[str, ...],
    scale_shift: int,
    max_iterations: Optional[int],
    cache_dir: Optional[str],
) -> List[Tuple[str, Dict[str, Any], bool]]:
    """Run one cell's systems analytically, through the result cache."""
    cache = ResultCache(cache_dir) if cache_dir else None
    return [
        (system, _summarise_report(report), cached)
        for system, report, cached in cached_cell(
            graph, algorithm, systems, scale_shift, max_iterations, cache
        )
    ]


def _cycle_cell(
    graph: str,
    algorithm: str,
    systems: Tuple[str, ...],
    scale_shift: int,
    max_iterations: Optional[int],
    fault_seed: Optional[int],
) -> List[Tuple[str, Dict[str, Any], bool]]:
    """Run one cell's systems on the cycle-accurate twin (never cached)."""
    from repro.algorithms import make_algorithm
    from repro.core import ScalaGraphConfig
    from repro.core.cycle_sim import CycleAccurateScalaGraph
    from repro.experiments.runner import load_benchmark_graph
    from repro.faults import FaultConfig, FaultSchedule
    from repro.noc.topology import MeshTopology

    graph_obj = load_benchmark_graph(graph, algorithm, scale_shift)
    out: List[Tuple[str, Dict[str, Any], bool]] = []
    for system in systems:
        rows, cols = _CYCLE_MESH[system]
        schedule = None
        if fault_seed is not None:
            schedule = FaultSchedule(
                MeshTopology(rows, cols),
                FaultConfig(seed=fault_seed, pe_stalls=1),
            )
        sim = CycleAccurateScalaGraph(
            ScalaGraphConfig(num_tiles=1, pe_rows=rows, pe_cols=cols),
            faults=schedule,
        )
        program = make_algorithm(algorithm)
        result = sim.run(program, graph_obj, max_iterations)
        stats = result.stats
        out.append(
            (
                system,
                {
                    "fidelity": "cycle",
                    "total_cycles": int(stats.total_cycles),
                    "iterations": int(stats.iterations),
                    "updates_processed": int(stats.updates_processed),
                    "updates_coalesced": int(stats.updates_coalesced),
                    "degraded_cycles": int(stats.degraded_cycles),
                    "rerouted_packets": int(stats.rerouted_packets),
                    "converged": bool(result.converged),
                },
                False,
            )
        )
    return out


def _service_cell_worker(
    graph: str,
    algorithm: str,
    systems: Tuple[str, ...],
    scale_shift: int,
    max_iterations: Optional[int],
    fidelity: str,
    fault_seed: Optional[int],
    cache_dir: Optional[str],
    chaos: Tuple[str, ...],
    chaos_dir: str,
    request_id: str,
) -> List[Tuple[str, Dict[str, Any], bool]]:
    """Pool entry point: one (graph, algorithm) cell, all its systems.

    Returns ``[(system, summary, cached), ...]``.  Chaos hooks fire
    first — a crash must look exactly like a real worker death (the
    result never materialises), and a ``fail`` hook must exercise the
    same exception path a real :class:`SanitizerError` would.
    """
    _chaos_maybe_crash(chaos, chaos_dir, request_id)
    if "fail" in chaos:
        raise SanitizerError(
            "chaos-fail",
            f"chaos hook 'fail' armed for request {request_id}",
            context="service",
        )
    if fidelity == "cycle":
        return _cycle_cell(
            graph, algorithm, systems, scale_shift, max_iterations, fault_seed
        )
    return _analytic_cell(
        graph, algorithm, systems, scale_shift, max_iterations, cache_dir
    )


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServicePolicy:
    """Tunables of one :class:`SweepScheduler`.

    Attributes:
        workers: process-pool width (also the per-request cell
            concurrency cap).
        cell_timeout_s: wall-clock budget of one cell attempt; an
            expiry tears the pool down (the only way to reclaim a hung
            worker) and counts as a failure.
        max_attempts: attempts per cell before degrading with reason
            ``retries-exhausted``.
        backoff_base_s: first retry delay; doubles per attempt.
        backoff_cap_s: upper bound on any retry delay.
        queue_capacity: admission queue depth before 429 shedding.
        max_clients: admission queue client-slot table size.
        breaker_threshold: consecutive family failures that open the
            circuit breaker.
        breaker_cooldown_s: seconds an open breaker sheds before the
            half-open probe.
        seed: root of the jittered-backoff RNG stream (deterministic
            replays for the soak harness).
    """

    workers: int = 2
    cell_timeout_s: float = 60.0
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    queue_capacity: int = 64
    max_clients: int = 16
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    seed: int = 0


class _RequestState:
    """In-memory lifecycle of one admitted request."""

    def __init__(self, request_id: str, request: SweepRequest) -> None:
        self.request_id = request_id
        self.request = request
        self.state = STATE_QUEUED
        self.records: List[Dict[str, Any]] = []
        self.deadline: Optional[float] = None
        if request.deadline_s is not None:
            self.deadline = time.monotonic() + float(request.deadline_s)
        self.cond = asyncio.Condition()

    def status(self, deduped: bool = False) -> Dict[str, Any]:
        total = len(self.request.cells()) * len(self.request.systems)
        degraded = sum(1 for r in self.records if r.get("degraded"))
        return {
            "protocol": PROTOCOL_VERSION,
            "request_id": self.request_id,
            "state": self.state,
            "deduped": deduped,
            "client_id": self.request.client_id,
            "cells_total": total,
            "cells_done": len(self.records),
            "cells_degraded": degraded,
        }


class SweepScheduler:
    """Admission, execution, durability, and degradation in one loop.

    Args:
        state_dir: root of the daemon's durable state — the journal,
            the shared result cache, and the chaos latch directory all
            live under it; point a restarted daemon at the same
            directory to resume.
        policy: tunables (:class:`ServicePolicy`).
        chaos_enabled: honour request chaos hooks (the soak harness
            sets this via ``REPRO_SERVICE_CHAOS=1``); disabled, a
            chaotic submission is a protocol error.
    """

    def __init__(
        self,
        state_dir: Path,
        policy: Optional[ServicePolicy] = None,
        chaos_enabled: bool = False,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.policy = policy or ServicePolicy()
        self.chaos_enabled = chaos_enabled
        self.cache_dir = self.state_dir / "cache"
        self.chaos_dir = self.state_dir / "chaos"
        self.chaos_dir.mkdir(parents=True, exist_ok=True)
        self.queue = AdmissionQueue(
            capacity=self.policy.queue_capacity,
            max_clients=self.policy.max_clients,
        )
        self.breakers = CircuitBreakerBank(
            BreakerPolicy(
                failure_threshold=self.policy.breaker_threshold,
                cooldown_s=self.policy.breaker_cooldown_s,
            )
        )
        self.requests: Dict[str, _RequestState] = {}
        self.recovered_requests = 0
        # Spawn, not fork: a forked worker inherits the asyncio signal
        # machinery (the wakeup-fd self-pipe is shared across fork), so
        # a SIGTERM aimed at a worker during pool teardown would fire
        # the *daemon's* SIGTERM handler and drain the whole service.
        # Spawned workers share no loop state with the daemon.
        self._executor = CellExecutor(
            self.policy.workers,
            start_method="spawn",
            backoff_base=self.policy.backoff_base_s,
            backoff_cap=self.policy.backoff_cap_s,
            seed=f"service-backoff:{self.policy.seed}",
        )
        self._journal: Optional[Journal] = None
        self._wake = asyncio.Event()
        self._loop_task: Optional[asyncio.Task] = None
        self._draining = False
        self.drained = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self.state_dir / "journal.jsonl"

    async def start(self) -> None:
        """Replay the journal, re-admit unfinished work, start the loop."""
        replay = replay_journal(self.journal_path)
        self._journal = Journal(
            self.journal_path, valid_bytes=replay.valid_bytes
        )
        for request_id, wire in replay.requests.items():
            try:
                request = SweepRequest.from_wire(wire)
            except ProtocolError:
                continue  # journaled under an older registry; skip
            state = _RequestState(request_id, request)
            state.records = list(replay.cells.get(request_id, []))
            if request_id in replay.done:
                state.state = STATE_DONE
            else:
                # Unfinished: re-admit, bypassing capacity — this work
                # was already accepted once and must not be shed now.
                self.queue.offer(request.client_id, request_id, force=True)
                self.recovered_requests += 1
            self.requests[request_id] = state
        self._loop_task = asyncio.create_task(self._run_loop())

    async def drain(self) -> None:
        """Stop admitting, finish the in-flight request, fsync, stop.

        Queued-but-unstarted requests stay journaled; the next boot
        re-admits them.  Idempotent.
        """
        self._draining = True
        self.queue.draining = True
        self._wake.set()
        if self._loop_task is not None:
            await self._loop_task
            self._loop_task = None
        self._executor.close()
        if self._journal is not None:
            self._journal.close()
        self.drained = True

    # ------------------------------------------------------------------
    # API surface (called by the HTTP layer)
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> Dict[str, Any]:
        """Validate, de-dupe, admit, and journal one submission.

        Raises :class:`~repro.errors.ProtocolError` (400) or
        :class:`~repro.errors.AdmissionError` (429/503); on success
        returns the request's status object.  A content-identical
        resubmission returns the existing request — whatever its state
        — with ``deduped: true`` and costs no queue slot.
        """
        request = SweepRequest.from_wire(payload)
        if request.chaos and not self.chaos_enabled:
            raise ProtocolError(
                "chaos hooks require the daemon to run with "
                "REPRO_SERVICE_CHAOS=1"
            )
        request_id = request_key(request)
        existing = self.requests.get(request_id)
        if existing is not None:
            return existing.status(deduped=True)
        self.queue.offer(request.client_id, request_id)
        state = _RequestState(request_id, request)
        self.requests[request_id] = state
        assert self._journal is not None, "scheduler not started"
        self._journal.append(
            {
                "kind": "request",
                "request_id": request_id,
                "request": request.to_wire(),
            }
        )
        self._wake.set()
        return state.status()

    def status(self, request_id: str) -> Optional[Dict[str, Any]]:
        state = self.requests.get(request_id)
        return None if state is None else state.status()

    def results(self, request_id: str) -> Optional[List[Dict[str, Any]]]:
        state = self.requests.get(request_id)
        return None if state is None else list(state.records)

    async def stream(self, request_id: str) -> AsyncIterator[Dict[str, Any]]:
        """Yield a request's records as they land, then a ``done`` line.

        The stream is complete and duplicate-free regardless of when
        the client attaches: records already emitted are replayed
        first, live ones follow, and the terminal line carries the
        final counts.
        """
        state = self.requests[request_id]
        index = 0
        while True:
            while index < len(state.records):
                yield state.records[index]
                index += 1
            if state.state == STATE_DONE:
                yield {
                    "kind": "done",
                    "request_id": request_id,
                    "cells": len(state.records),
                    "degraded": sum(
                        1 for r in state.records if r.get("degraded")
                    ),
                }
                return
            async with state.cond:
                if index >= len(state.records) and state.state != STATE_DONE:
                    try:
                        await asyncio.wait_for(state.cond.wait(), timeout=0.5)
                    except (asyncio.TimeoutError, TimeoutError):
                        pass  # periodic re-check; progress, not a wakeup bug

    def stats(self) -> Dict[str, Any]:
        """Operational snapshot for ``/api/v1/stats`` and readiness."""
        states: Dict[str, int] = {}
        for state in self.requests.values():
            states[state.state] = states.get(state.state, 0) + 1
        return {
            "protocol": PROTOCOL_VERSION,
            "model_version": CODE_MODEL_VERSION,
            "draining": self._draining,
            "queue": self.queue.snapshot(),
            "breakers": self.breakers.snapshot(),
            "requests": states,
            "recovered_requests": self.recovered_requests,
            "pool_generation": self._executor.generation,
            "chaos_enabled": self.chaos_enabled,
        }

    # ------------------------------------------------------------------
    # Execution loop
    # ------------------------------------------------------------------
    async def _run_loop(self) -> None:
        while True:
            if self._draining:
                return
            taken = self.queue.take()
            if taken is None:
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.25)
                except (asyncio.TimeoutError, TimeoutError):
                    pass  # idle poll; drain flag is re-checked above
                continue
            _, request_id = taken
            await self._execute_request(self.requests[request_id])

    async def _execute_request(self, state: _RequestState) -> None:
        state.state = STATE_RUNNING
        request = state.request
        already = {
            (r["graph"], r["algorithm"], r["system"]) for r in state.records
        }
        gate = asyncio.Semaphore(max(1, self.policy.workers))

        async def run_one(graph: str, algorithm: str) -> None:
            systems = tuple(
                s
                for s in request.systems
                if (graph, algorithm, s) not in already
            )
            if not systems:
                return
            async with gate:
                records = await self._execute_cell(
                    state, graph, algorithm, systems
                )
            for record in records:
                await self._emit(state, record)

        tasks = [
            asyncio.create_task(run_one(graph, algorithm))
            for graph, algorithm in request.cells()
        ]
        if tasks:
            await asyncio.gather(*tasks)
        assert self._journal is not None
        self._journal.append(
            {
                "kind": "done",
                "request_id": state.request_id,
                "cells": len(state.records),
                "degraded": sum(
                    1 for r in state.records if r.get("degraded")
                ),
            }
        )
        async with state.cond:
            state.state = STATE_DONE
            state.cond.notify_all()

    async def _emit(self, state: _RequestState, record: Dict[str, Any]) -> None:
        assert self._journal is not None
        self._journal.append(record)
        async with state.cond:
            state.records.append(record)
            state.cond.notify_all()

    # ------------------------------------------------------------------
    # One cell
    # ------------------------------------------------------------------
    async def _execute_cell(
        self,
        state: _RequestState,
        graph: str,
        algorithm: str,
        systems: Tuple[str, ...],
    ) -> List[Dict[str, Any]]:
        request = state.request
        family = f"{algorithm}:{request.fidelity}"
        if state.deadline is not None and time.monotonic() >= state.deadline:
            return self._degraded(state, graph, algorithm, systems, DEGRADED_DEADLINE, 0)
        try:
            self.breakers.admit(family, time.monotonic())
        except CircuitOpenError:
            return self._degraded(
                state, graph, algorithm, systems, DEGRADED_BREAKER_OPEN, 0
            )
        try:
            payload, attempts = await self._executor.run(
                _service_cell_worker,
                (
                    graph,
                    algorithm,
                    systems,
                    request.scale_shift,
                    request.max_iterations,
                    request.fidelity,
                    request.fault_seed,
                    str(self.cache_dir),
                    request.chaos,
                    str(self.chaos_dir),
                    state.request_id,
                ),
                attempts=self.policy.max_attempts,
                timeout=self.policy.cell_timeout_s,
                deadline=state.deadline,
                retry_on=(ReproError,),
                on_failure=lambda _: self.breakers.record_failure(
                    family, time.monotonic()
                ),
            )
        except CellFailed as failure:
            reason = (
                DEGRADED_DEADLINE
                if failure.expired
                else DEGRADED_RETRIES_EXHAUSTED
            )
            return self._degraded(
                state, graph, algorithm, systems, reason, failure.attempts
            )
        self.breakers.record_success(family)
        return [
            cell_record(
                state.request_id,
                graph,
                algorithm,
                system,
                dict(summary, cached=cached),
                attempts=attempts,
            )
            for system, summary, cached in payload
        ]

    def _degraded(
        self,
        state: _RequestState,
        graph: str,
        algorithm: str,
        systems: Tuple[str, ...],
        reason: str,
        attempts: int,
    ) -> List[Dict[str, Any]]:
        """Answer a cell with the in-process analytic model.

        The degraded path must not re-enter the failing machinery: it
        runs without the pool, without chaos hooks, and without the
        cycle simulator.  If even the analytic model fails, the cell
        still gets exactly one record — an explicit error summary —
        because a lost request is the one failure mode the service
        promises away.
        """
        request = state.request
        try:
            computed = _analytic_cell(
                graph,
                algorithm,
                systems,
                request.scale_shift,
                request.max_iterations,
                str(self.cache_dir),
            )
            summaries = {system: summary for system, summary, _ in computed}
        except ReproError as exc:
            summaries = {
                system: {"error": f"{type(exc).__name__}: {exc}"}
                for system in systems
            }
        return [
            cell_record(
                state.request_id,
                graph,
                algorithm,
                system,
                summaries.get(system, {"error": "analytic fallback missing"}),
                degraded=True,
                degraded_reason=reason,
                attempts=attempts,
            )
            for system in systems
        ]
