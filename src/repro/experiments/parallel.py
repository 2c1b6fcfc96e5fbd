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
  back as :class:`SimulationReport` (numpy arrays pickle natively).
  Every sweep with ``max_workers`` other than 1 runs on the pool, a
  one-cell sweep included, so ``cell_timeout`` and ``max_retries`` hold
  for every cell.
* **Crash isolation**: the pooled path is a thin layer over
  :class:`~repro.experiments.executor.CellExecutor`, the executor the
  sweep daemon uses too.  One task per job, gated to the pool width,
  runs the job's attempts: a worker that dies (OOM kill, segfault) or
  a cell that exceeds ``cell_timeout`` rebuilds the pool, and the cell
  is retried up to ``max_retries`` times after a jittered exponential
  backoff (:class:`RetryPolicy`).  Cells that exhaust their retries are
  reported via :class:`~repro.errors.WorkerCrashError` once the other
  cells have finished; they are never rerun in the sweep's own process,
  where no timeout could stop them.  Any other exception — one a cell
  raises (a model error, an ``OSError``), a payload that will not
  pickle, or a failed cache write — reaches the caller unchanged.
* **Resume through the cache**: with a
  :class:`~repro.experiments.store.ResultCache`, cached cells are
  loaded in the parent before any worker is spawned and fresh results
  are written back *per completed cell*, not at sweep end.  Re-running
  an interrupted sweep with the same cache therefore resumes it,
  losing at most the cells that were in flight.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.stats import SimulationReport
from repro.errors import ConfigurationError, WorkerCrashError
from repro.experiments.executor import CellExecutor, CellFailed
from repro.experiments.runner import (
    ALGORITHM_ORDER,
    GRAPH_ORDER,
    SYSTEM_ORDER,
    ExperimentMatrix,
    execute_cell,
    run_matrix,
)
from repro.experiments.store import ResultCache
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
            call) may take before its pool is torn down and the cell
            retried; None disables timeouts.
        max_retries: times a crashed/timed-out cell is retried on a
            fresh pool before it is given up on (0 = no retries).
        backoff: base of the exponential retry delay; retry *n* sleeps
            ``backoff * 2**(n-1)`` seconds plus up to as much seeded
            jitter, capped at 2 s.

    A cell still failing after its last retry fails the sweep with
    :class:`~repro.errors.WorkerCrashError`.
    """

    cell_timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigurationError("cell_timeout must be positive or None")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff < 0:
            raise ConfigurationError("backoff must be >= 0")


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
) -> ExperimentMatrix:
    """Run the sweep with cell-level process parallelism.

    Cells are submitted largest first: ordered by their graph's
    :attr:`~repro.graph.datasets.DatasetSpec.standin_edges`, descending
    and stable on ties (nominal order within one graph).  The largest
    graph's cells, the sweep's stragglers, then start first rather than
    last; the returned matrix is still assembled in nominal order.

    Args:
        max_workers: worker processes; ``None`` lets the executor pick
            (bounded by the number of dispatched cells), ``1`` is
            :func:`~repro.experiments.runner.run_matrix`: serial and
            in-process, without a pool.
        cache: optional on-disk result cache; hits skip computation
            entirely and fresh cells are written back as they complete.
        refresh: recompute every cell even when cached.
        policy: crash-isolation/timeout/retry knobs of the pooled path
            (defaults to :class:`RetryPolicy`'s defaults).

    Returns:
        The same :class:`ExperimentMatrix` the serial runner produces —
        deterministic cell order, identical reports.
    """
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError(
            f"max_workers must be >= 1 (got {max_workers})"
        )
    if max_workers == 1:
        return run_matrix(
            graphs,
            algorithms,
            systems,
            scale_shift,
            max_iterations,
            cache,
            refresh,
        )
    graphs = tuple(graphs)
    algorithms = tuple(algorithms)
    systems = tuple(systems)

    # Cached cells are looked up here, before any worker spawns.
    reports: Dict[Tuple[str, str, str], SimulationReport] = {}
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
                        scale_shift,
                        max_iterations,
                    )
                if report is None:
                    missing.append(system_label)
                else:
                    reports[key] = report
            if missing:
                jobs.append((graph_name, algorithm_name, tuple(missing)))
    jobs.sort(key=lambda job: -_resolve(job[0]).standin_edges)

    def persist(
        key: Tuple[str, str, str], report: SimulationReport
    ) -> None:
        # Incremental write-back: runs in the parent the moment a cell
        # completes, so a crash later in the sweep loses nothing.
        reports[key] = report
        if cache is not None:
            cache.put(*key, report, scale_shift, max_iterations)

    if jobs:
        _run_jobs_pooled(
            jobs, scale_shift, max_iterations, max_workers, policy, persist
        )

    matrix = ExperimentMatrix()
    for graph_name in graphs:
        for algorithm_name in algorithms:
            for system_label in systems:
                key = (graph_name, algorithm_name, system_label)
                matrix.reports[key] = reports[key]
    return matrix


def _run_jobs_pooled(
    jobs: Sequence[_CellJob],
    scale_shift: int,
    max_iterations: Optional[int],
    max_workers: Optional[int],
    policy: Optional[RetryPolicy],
    on_result: _OnResult,
) -> None:
    """Fan the jobs over a process pool with crash isolation.

    Each job is one task of a :class:`CellExecutor` sweep, started
    largest first as pool slots free up.  Once every job has finished
    or exhausted its attempts, the exhausted ones raise
    :class:`~repro.errors.WorkerCrashError` with each cell's last
    failure.
    """
    policy = policy or RetryPolicy()
    width = min(max_workers or os.cpu_count() or 1, len(jobs))
    executor = CellExecutor(
        width,
        start_method=None,
        backoff_base=policy.backoff,
        backoff_cap=2.0,
        seed="sweep-backoff",
    )
    # Jobs given up on -> the exception that failed their last attempt.
    failed: Dict[_CellJob, Optional[BaseException]] = {}

    async def run_job(job: _CellJob, gate: asyncio.Semaphore) -> None:
        async with gate:
            try:
                results, _ = await executor.run(
                    _cell_worker,
                    (*job, scale_shift, max_iterations),
                    attempts=policy.max_retries + 1,
                    timeout=policy.cell_timeout,
                )
            except CellFailed as failure:
                failed[job] = failure.cause
                return
        for system_label, report in results:
            on_result((job[0], job[1], system_label), report)

    async def sweep() -> None:
        gate = asyncio.Semaphore(width)
        await asyncio.gather(*(run_job(job, gate) for job in jobs))

    try:
        asyncio.run(sweep())
    finally:
        # asyncio.run has cancelled and awaited every task by now, so no
        # attempt can start a pool after this.
        executor.close()

    if failed:
        causes = {
            (graph_name, algorithm_name, system_label): cause
            for (graph_name, algorithm_name, missing), cause in failed.items()
            for system_label in missing
        }
        # Chain the first original failure so the traceback shows what
        # actually broke inside the pool.
        raise WorkerCrashError(list(causes), causes=causes) from next(
            iter(causes.values()), None
        )

