"""Parallel fan-out of the experiment matrix.

The paper's evaluation is a (graph x algorithm x system) sweep whose
cells are independent; :func:`run_matrix_parallel` fans them out over a
``concurrent.futures.ProcessPoolExecutor`` and merges the results back
deterministically, so a parallel sweep's :class:`ExperimentMatrix` is
identical — per-cell ``to_dict()`` output included — to the serial
:func:`~repro.experiments.runner.run_matrix`'s.

Design notes:

* The unit of work is one **(graph, algorithm) cell with all of its
  missing systems**, not one (graph, algorithm, system) triple: the
  functional reference execution is shared across systems, and
  splitting it over workers would recompute it per system.
* Work items cross the process boundary as plain strings/ints and come
  back as :class:`SimulationReport` (numpy arrays pickle natively), so
  pickling normally cannot fail; if it does — or multiprocessing is
  unavailable altogether — the runner falls back to in-process serial
  execution rather than raising.
* **Crash isolation** (:class:`RetryPolicy`): a worker that dies (OOM
  kill, segfault) breaks the whole ``ProcessPoolExecutor``; instead of
  aborting the sweep, the runner requeues the in-flight cells, rebuilds
  the pool, and retries each cell up to ``max_retries`` times with
  exponential backoff.  Cells that exhaust their retries are recomputed
  serially in-process (``serial_fallback=True``, the default) or
  reported via :class:`~repro.errors.WorkerCrashError`.
* **Timeouts**: with ``cell_timeout`` set, a cell that exceeds its
  wall-clock budget is cancelled (or, if already running, its pool is
  torn down) and retried like a crashed cell.
* **Incremental persistence**: with a
  :class:`~repro.experiments.store.ResultCache`, cached cells are
  loaded in the parent before any worker is spawned and fresh results
  are written back *per completed cell*, not at sweep end — a crash
  never discards finished work.  A
  :class:`~repro.experiments.checkpoint.SweepCheckpoint` journal
  additionally makes interrupted sweeps resumable even without a
  cache: at most the in-flight cells are lost.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.stats import SimulationReport
from repro.errors import ConfigurationError, WorkerCrashError
from repro.experiments.checkpoint import SweepCheckpoint
from repro.experiments.runner import (
    ALGORITHM_ORDER,
    GRAPH_ORDER,
    SYSTEM_ORDER,
    ExperimentMatrix,
    execute_cell,
)
from repro.experiments.store import CODE_MODEL_VERSION, ResultCache
from repro.graph.datasets import _resolve

#: (graph, algorithm, missing-systems) work unit shipped to a worker.
_CellJob = Tuple[str, str, Tuple[str, ...]]

#: Callback fired in the parent for every completed (g, a, s) result.
_OnResult = Callable[[Tuple[str, str, str], SimulationReport], None]


@dataclass(frozen=True)
class RetryPolicy:
    """Resilience knobs of the pooled runner.

    Attributes:
        cell_timeout: wall-clock seconds one cell (its whole worker
            call) may take before it is cancelled and retried; None
            disables timeouts.
        max_retries: times a crashed/timed-out cell is retried on a
            fresh pool before it is given up on (0 = no retries).
        backoff: base of the exponential retry delay; retry *n* sleeps
            ``backoff * 2**(n-1)`` seconds (capped at 2 s).
        poll_interval: seconds the parent blocks per wait() call while
            supervising in-flight cells; bounds timeout-detection
            latency.
        serial_fallback: recompute cells that exhausted their retries
            serially in-process (True, the default) instead of raising
            :class:`~repro.errors.WorkerCrashError`.
    """

    cell_timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.05
    poll_interval: float = 0.1
    serial_fallback: bool = True

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigurationError("cell_timeout must be positive or None")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff < 0:
            raise ConfigurationError("backoff must be >= 0")
        if self.poll_interval <= 0:
            raise ConfigurationError("poll_interval must be positive")


def _cell_worker(
    graph_name: str,
    algorithm_name: str,
    systems: Tuple[str, ...],
    scale_shift: int,
    max_iterations: Optional[int],
) -> List[Tuple[str, SimulationReport]]:
    """Top-level (hence picklable) worker entry point."""
    return execute_cell(
        graph_name, algorithm_name, systems, scale_shift, max_iterations
    )


def run_matrix_parallel(
    graphs: Sequence[str] = GRAPH_ORDER,
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    systems: Sequence[str] = SYSTEM_ORDER,
    scale_shift: int = 0,
    max_iterations: Optional[int] = None,
    max_workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    refresh: bool = False,
    policy: Optional[RetryPolicy] = None,
    checkpoint: Optional[Path] = None,
) -> ExperimentMatrix:
    """Run the sweep with cell-level process parallelism.

    Cells are submitted largest first: ordered by their graph's
    :attr:`~repro.graph.datasets.DatasetSpec.standin_edges`, descending
    and stable on ties (nominal order within one graph).  The largest
    graph's cells, the sweep's stragglers, then start first rather than
    last; the returned matrix is still assembled in nominal order.

    Args:
        max_workers: worker processes; ``None`` lets the executor pick
            (bounded by the number of dispatched cells), ``1`` runs
            serially in-process without spawning a pool.
        cache: optional on-disk result cache; hits skip computation
            entirely and fresh cells are written back as they complete.
        refresh: recompute every cell even when cached/checkpointed.
        policy: crash-isolation/timeout/retry knobs of the pooled path
            (defaults to :class:`RetryPolicy`'s defaults).
        checkpoint: optional path to a
            :class:`~repro.experiments.checkpoint.SweepCheckpoint`
            journal.  Completed cells are journaled as they land and an
            interrupted sweep re-invoked with the same path resumes
            from the journal, losing at most the in-flight cells.

    Returns:
        The same :class:`ExperimentMatrix` the serial runner produces —
        deterministic cell order, identical reports.
    """
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError(
            f"max_workers must be >= 1 (got {max_workers})"
        )
    graphs = tuple(graphs)
    algorithms = tuple(algorithms)
    systems = tuple(systems)

    ckpt: Optional[SweepCheckpoint] = None
    resumed: Dict[Tuple[str, str, str], SimulationReport] = {}
    if checkpoint is not None:
        ckpt = SweepCheckpoint(
            checkpoint,
            signature={
                "graphs": list(graphs),
                "algorithms": list(algorithms),
                "systems": list(systems),
                "scale_shift": scale_shift,
                "max_iterations": max_iterations,
                "model_version": (
                    cache.model_version
                    if cache is not None
                    else CODE_MODEL_VERSION
                ),
            },
        )
        if not refresh:
            resumed = ckpt.load()

    cached: Dict[Tuple[str, str, str], SimulationReport] = {}
    jobs: List[_CellJob] = []
    for graph_name in graphs:
        for algorithm_name in algorithms:
            missing: List[str] = []
            for system_label in systems:
                key = (graph_name, algorithm_name, system_label)
                report = None
                if cache is not None and not refresh:
                    report = cache.get(
                        graph_name,
                        algorithm_name,
                        system_label,
                        scale_shift=scale_shift,
                        max_iterations=max_iterations,
                    )
                if report is None and key in resumed:
                    report = resumed[key]
                    if cache is not None:
                        # Promote the journaled cell into the cache so
                        # later sweeps hit without the checkpoint file.
                        cache.put(
                            graph_name,
                            algorithm_name,
                            system_label,
                            report,
                            scale_shift=scale_shift,
                            max_iterations=max_iterations,
                        )
                if report is None:
                    missing.append(system_label)
                else:
                    cached[key] = report
            if missing:
                jobs.append((graph_name, algorithm_name, tuple(missing)))
    jobs.sort(key=lambda job: -_resolve(job[0]).standin_edges)

    def persist(
        key: Tuple[str, str, str], report: SimulationReport
    ) -> None:
        # Incremental write-back: runs in the parent the moment a cell
        # completes, so a crash later in the sweep loses nothing.
        if cache is not None:
            cache.put(
                key[0],
                key[1],
                key[2],
                report,
                scale_shift=scale_shift,
                max_iterations=max_iterations,
            )
        if ckpt is not None:
            ckpt.append(key, report)

    on_result = persist if (cache is not None or ckpt is not None) else None

    computed: Dict[Tuple[str, str, str], SimulationReport] = {}
    if jobs:
        if ckpt is not None:
            ckpt.start(reset=refresh)
        try:
            if max_workers == 1 or len(jobs) == 1:
                _run_jobs_serial(
                    jobs, scale_shift, max_iterations, computed,
                    on_result=on_result,
                )
            else:
                _run_jobs_pooled(
                    jobs, scale_shift, max_iterations, max_workers, computed,
                    policy=policy, on_result=on_result,
                )
        finally:
            if ckpt is not None:
                ckpt.close()

    matrix = ExperimentMatrix()
    for graph_name in graphs:
        for algorithm_name in algorithms:
            for system_label in systems:
                key = (graph_name, algorithm_name, system_label)
                matrix.reports[key] = (
                    computed[key] if key in computed else cached[key]
                )
    return matrix


# ----------------------------------------------------------------------
# Execution strategies
# ----------------------------------------------------------------------
def _run_jobs_serial(
    jobs: Sequence[_CellJob],
    scale_shift: int,
    max_iterations: Optional[int],
    out: Dict[Tuple[str, str, str], SimulationReport],
    on_result: Optional[_OnResult] = None,
) -> None:
    for graph_name, algorithm_name, missing in jobs:
        for system_label, report in execute_cell(
            graph_name, algorithm_name, missing, scale_shift, max_iterations
        ):
            key = (graph_name, algorithm_name, system_label)
            out[key] = report
            if on_result is not None:
                on_result(key, report)


def _terminate_pool(pool) -> None:
    """Tear a pool down without waiting on its (possibly hung) workers."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        proc.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def _run_jobs_pooled(
    jobs: Sequence[_CellJob],
    scale_shift: int,
    max_iterations: Optional[int],
    max_workers: Optional[int],
    out: Dict[Tuple[str, str, str], SimulationReport],
    policy: Optional[RetryPolicy] = None,
    on_result: Optional[_OnResult] = None,
) -> None:
    """Fan the jobs over a process pool with crash isolation.

    A dying worker breaks the whole ``ProcessPoolExecutor`` (every
    outstanding future raises ``BrokenProcessPool``); the supervisor
    loop below requeues the in-flight cells, rebuilds the pool, and
    retries them under the :class:`RetryPolicy`.  Cells that exhaust
    their retries fall back to in-process serial execution (or raise
    :class:`~repro.errors.WorkerCrashError` when the policy forbids the
    fallback).  When the pool cannot be used at all (no multiprocessing
    support) or a payload will not pickle, whatever cells are still
    missing are recomputed serially; completed results are never
    discarded or overwritten.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    policy = policy or RetryPolicy()
    if max_workers is not None:
        max_workers = min(max_workers, len(jobs))

    pending: Deque[Tuple[_CellJob, int]] = deque((job, 0) for job in jobs)
    failed: List[_CellJob] = []
    # Last failure context per job, so a cell given up on after N pool
    # rebuilds still reports *why* its attempts failed (the original
    # BrokenProcessPool / timeout), not just a bare give-up.
    last_cause: Dict[_CellJob, BaseException] = {}

    def record(job: _CellJob, results) -> None:
        graph_name, algorithm_name, _ = job
        last_cause.pop(job, None)
        for system_label, report in results:
            key = (graph_name, algorithm_name, system_label)
            out[key] = report
            if on_result is not None:
                on_result(key, report)

    def requeue(
        job: _CellJob,
        attempts: int,
        cause: Optional[BaseException] = None,
    ) -> None:
        if cause is not None:
            last_cause[job] = cause
        if attempts > policy.max_retries:
            failed.append(job)
            return
        if policy.backoff > 0 and attempts > 0:
            time.sleep(min(policy.backoff * 2 ** (attempts - 1), 2.0))
        pending.append((job, attempts))

    try:
        while pending:
            pool = ProcessPoolExecutor(max_workers=max_workers)
            limit = getattr(pool, "_max_workers", None) or len(jobs)
            # future -> (job, attempts, deadline)
            inflight: Dict = {}
            broken = False
            try:
                while (pending or inflight) and not broken:
                    while pending and len(inflight) < limit and not broken:
                        job, attempts = pending.popleft()
                        try:
                            future = pool.submit(
                                _cell_worker,
                                job[0],
                                job[1],
                                job[2],
                                scale_shift,
                                max_iterations,
                            )
                        except BrokenProcessPool as exc:
                            broken = True
                            requeue(job, attempts + 1, cause=exc)
                            break
                        deadline = (
                            None
                            if policy.cell_timeout is None
                            else time.monotonic() + policy.cell_timeout
                        )
                        inflight[future] = (job, attempts, deadline)
                    done, _ = wait(
                        set(inflight),
                        timeout=policy.poll_interval,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        job, attempts, _ = inflight.pop(future)
                        try:
                            results = future.result(timeout=0)
                        except BrokenProcessPool as exc:
                            # A worker died; this future may be the
                            # victim or a bystander — both retry.
                            broken = True
                            requeue(job, attempts + 1, cause=exc)
                        else:
                            record(job, results)
                    if broken:
                        continue
                    now = time.monotonic()
                    expired = [
                        future
                        for future, (_, _, deadline) in inflight.items()
                        if deadline is not None and now >= deadline
                    ]
                    for future in expired:
                        job, attempts, _ = inflight.pop(future)
                        if not future.cancel():
                            # Already running: the only way to reclaim
                            # the worker is to tear the pool down.
                            broken = True
                        requeue(
                            job,
                            attempts + 1,
                            cause=TimeoutError(
                                f"cell {job[0]}/{job[1]} exceeded its "
                                f"{policy.cell_timeout:g}s wall-clock "
                                "budget"
                            ),
                        )
            finally:
                # Whatever is still in flight goes back to the queue: a
                # cancelled-before-start cell keeps its attempt count, a
                # victim of a broken/torn-down pool is charged one.
                for future, (job, attempts, _) in inflight.items():
                    if future.cancel():
                        pending.appendleft((job, attempts))
                    else:
                        requeue(job, attempts + 1)
                inflight.clear()
                _terminate_pool(pool)
    except (pickle.PicklingError, OSError, ImportError):
        # No/broken multiprocessing support, or an unpicklable payload:
        # recompute whatever is still missing in-process.
        _run_jobs_serial(
            _still_missing(jobs, out),
            scale_shift,
            max_iterations,
            out,
            on_result=on_result,
        )
        return

    if failed:
        if policy.serial_fallback:
            _run_jobs_serial(
                _still_missing(failed, out),
                scale_shift,
                max_iterations,
                out,
                on_result=on_result,
            )
        else:
            cells = [
                (graph_name, algorithm_name, system_label)
                for graph_name, algorithm_name, missing in failed
                for system_label in missing
                if (graph_name, algorithm_name, system_label) not in out
            ]
            causes = {
                (graph_name, algorithm_name, system_label): last_cause[
                    (graph_name, algorithm_name, missing)
                ]
                for graph_name, algorithm_name, missing in failed
                for system_label in missing
                if (graph_name, algorithm_name, missing) in last_cause
                and (graph_name, algorithm_name, system_label) not in out
            }
            error = WorkerCrashError(cells, causes=causes)
            # Chain the first original failure so the traceback shows
            # what actually broke inside the pool.
            raise error from next(iter(causes.values()), None)


def _still_missing(
    jobs: Sequence[_CellJob],
    out: Dict[Tuple[str, str, str], SimulationReport],
) -> List[_CellJob]:
    """The sub-jobs whose systems are not computed yet."""
    remaining: List[_CellJob] = []
    for graph_name, algorithm_name, missing in jobs:
        left = tuple(
            system_label
            for system_label in missing
            if (graph_name, algorithm_name, system_label) not in out
        )
        if left:
            remaining.append((graph_name, algorithm_name, left))
    return remaining
