"""One crash-resilient executor for the batch sweep and the daemon.

Both :func:`~repro.experiments.parallel.run_matrix_parallel` and the
sweep daemon's :class:`~repro.service.scheduler.SweepScheduler` compute
(graph, algorithm) cells in worker processes that may crash, hang or be
killed, and both must keep every cell that finished.  This module is
the one implementation of that:

* :class:`CellExecutor` owns the process pool: built lazily, torn down
  and rebuilt at most once per failure generation, terminated on
  :meth:`~CellExecutor.close`.
* :meth:`CellExecutor.run` is the per-cell attempt loop: every attempt
  has a wall-clock timeout; a worker crash (``BrokenProcessPool``) or a
  timeout rebuilds the pool and retries after one seeded-jitter
  exponential backoff, never longer than the cap.  Any other exception
  reaches the caller unchanged unless the caller lists it as retryable.
* :class:`Journal` / :func:`replay_journal` are the fsync'd JSONL
  journal: a header line, then ``request``, ``cell`` and ``done``
  records keyed by request id.  Replay keeps the valid prefix; a torn
  tail is truncated before the next append.  The daemon journals every
  request it admits.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import random
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.experiments.store import CODE_MODEL_VERSION

_JOURNAL_SCHEMA = "repro-service-journal/1"


# ----------------------------------------------------------------------
# Pool lifecycle + attempt loop
# ----------------------------------------------------------------------
class CellFailed(Exception):
    """A cell used up its attempts, or its deadline passed first.

    Attributes:
        attempts: attempts made.
        cause: the exception that failed the last attempt (None when
            the deadline passed before any attempt).
        expired: the deadline, not the attempt count, ended the loop.
    """

    def __init__(
        self,
        attempts: int,
        cause: Optional[BaseException],
        expired: bool = False,
    ) -> None:
        super().__init__(f"cell failed after {attempts} attempt(s): {cause!r}")
        self.attempts = attempts
        self.cause = cause
        self.expired = expired


def _init_worker() -> None:
    """Pool initializer: a worker lives and dies with the pool's owner.

    Ctrl-C belongs to the owner.  A terminal sends SIGINT to the whole
    process group.  The owner cancels its cells and terminates the pool;
    a forked worker would instead run the handler it inherited from the
    owner (``asyncio.run`` installs one on Python 3.11+).

    A SIGKILLed owner terminates nothing, and its workers would block
    forever on the pool's queues (and keep multiprocessing's resource
    tracker alive).  A daemon thread waits for the owner to exit and
    then ends the worker.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    owner = multiprocessing.parent_process()
    if owner is not None:
        threading.Thread(
            target=_exit_with, args=(owner,), daemon=True
        ).start()


def _exit_with(owner: multiprocessing.process.BaseProcess) -> None:
    owner.join()
    os._exit(1)


class CellExecutor:
    """A process pool plus the per-cell attempt loop around it.

    Not thread-safe: one event loop drives it.  It holds no asyncio
    object, so it may be built outside the loop and closed after it.

    Args:
        workers: pool width.
        start_method: ``multiprocessing`` start method; None is the
            platform default.
        backoff_base: first retry delay in seconds; doubles per attempt.
        backoff_cap: upper bound on any retry delay.
        seed: seed of the jitter stream (deterministic replays).
    """

    def __init__(
        self,
        workers: int,
        start_method: Optional[str],
        backoff_base: float,
        backoff_cap: float,
        seed: str,
    ) -> None:
        self.workers = workers
        self._context = multiprocessing.get_context(start_method)
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._rng = random.Random(seed)
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Pools torn down after a failure so far; a failure only
        #: rebuilds the pool of the generation it ran on.
        self.generation = 0

    def close(self) -> None:
        """Tear the pool down without waiting on its (possibly hung)
        workers."""
        if self._pool is not None:
            processes = getattr(self._pool, "_processes", None) or {}
            for proc in list(processes.values()):
                proc.terminate()
            # No cancel_futures: every attempt still in this pool, running
            # or queued, fails with BrokenProcessPool, which its caller
            # retries; a cancelled one would look like the caller's own
            # cancellation.
            self._pool.shutdown(wait=False)
            self._pool = None

    def backoff(self, attempt: int) -> float:
        """Delay before retry ``attempt + 1``: exponential plus seeded
        jitter, clamped to the cap."""
        base = min(self._backoff_base * 2.0 ** (attempt - 1), self._backoff_cap)
        return min(base + self._rng.uniform(0.0, base), self._backoff_cap)

    async def run(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any],
        attempts: int,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        retry_on: Tuple[Type[BaseException], ...] = (),
        on_failure: Optional[Callable[[BaseException], None]] = None,
    ) -> Tuple[Any, int]:
        """Run ``fn(*args)`` in the pool; return ``(result, attempts)``.

        Each attempt may take ``timeout`` seconds, and none may run past
        the ``time.monotonic()`` ``deadline``.  A crash or timeout
        rebuilds the pool; it and any ``retry_on`` exception are
        reported to ``on_failure`` and retried after :meth:`backoff`.
        Raises :class:`CellFailed` when the attempts or the deadline
        run out.
        """
        cause: Optional[BaseException] = None
        for attempt in range(1, attempts + 1):
            limit = timeout
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CellFailed(attempt - 1, cause, expired=True)
                limit = remaining if limit is None else min(limit, remaining)
            generation = self.generation
            try:
                return await self._attempt(fn, args, limit), attempt
            except (BrokenProcessPool, TimeoutError) as exc:
                # The worker may be dead or hung: tearing the pool down
                # is the only way to reclaim it.  Every cell in flight on
                # a broken pool lands here; only the first tears down, so
                # the others keep the freshly built replacement.
                if generation == self.generation:
                    self.close()
                    self.generation += 1
                cause = exc
            except retry_on as exc:
                cause = exc
            if on_failure is not None:
                on_failure(cause)
            if attempt < attempts:
                await asyncio.sleep(self.backoff(attempt))
        raise CellFailed(attempts, cause)

    async def _attempt(
        self, fn: Callable[..., Any], args: Sequence[Any], timeout: Optional[float]
    ) -> Any:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._context,
                initializer=_init_worker,
            )
        future = asyncio.wrap_future(self._pool.submit(fn, *args))
        try:
            done, _ = await asyncio.wait({future}, timeout=timeout)
        finally:
            # Detach a timed-out or abandoned attempt, so its late
            # result is dropped instead of posted to a closed loop.
            future.cancel()
        if not done:
            raise TimeoutError(
                f"attempt exceeded its {timeout:g}s wall-clock budget"
            )
        return await future


# ----------------------------------------------------------------------
# Durable journal
# ----------------------------------------------------------------------
@dataclass
class JournalReplay:
    """The valid prefix of a journal, parsed.

    ``valid_bytes`` is the byte length of that prefix — recovery
    truncates the file there before appending, so one torn tail cannot
    poison the next record.
    """

    requests: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    cells: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    done: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    valid_bytes: int = 0


def replay_journal(path: Path) -> JournalReplay:
    """Parse a journal's valid prefix; tolerant of any torn tail.

    Reading stops at the first line that is incomplete (no trailing
    newline), fails to decode, or is not a known record — everything
    before it is trusted (each record was fsync'd before the next
    began).  An unrecognised header schema discards the whole file
    (fail-safe: an incompatible journal must not be half-replayed).
    """
    replay = JournalReplay()
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return replay
    offset = 0
    first = True
    while offset < len(raw):
        end = raw.find(b"\n", offset)
        if end < 0:
            break  # torn tail: record was being written when we died
        line = raw[offset : end + 1]
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            break
        if not isinstance(record, dict):
            break
        if first:
            if record.get("schema") != _JOURNAL_SCHEMA:
                return JournalReplay()
            first = False
        else:
            kind = record.get("kind")
            request_id = record.get("request_id")
            if not isinstance(request_id, str):
                break
            if kind == "request":
                replay.requests[request_id] = record.get("request", {})
            elif kind == "cell":
                replay.cells.setdefault(request_id, []).append(record)
            elif kind == "done":
                replay.done[request_id] = record
            else:
                break
        offset = end + 1
        replay.valid_bytes = offset
    return replay


class Journal:
    """Append-only fsync'd JSONL journal.

    Every ``append`` is flush+fsync before returning, so a record the
    caller believes durable *is* durable — the property that lets the
    soak harness SIGKILL the daemon at arbitrary points and still
    demand zero lost requests.

    Args:
        path: the journal file; parent directories are created.
        valid_bytes: the :attr:`JournalReplay.valid_bytes` of the
            existing file; bytes past it are truncated before the first
            append.  0 starts a fresh journal with a new header.
    """

    def __init__(self, path: Path, valid_bytes: int = 0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or valid_bytes == 0
        self._fh = open(self.path, "a+b")
        self._fh.seek(0, os.SEEK_END)
        if not fresh and self._fh.tell() > valid_bytes:
            # Torn tail from a previous incarnation: drop it before the
            # next append would glue two half-records together.
            self._fh.truncate(valid_bytes)
            self._fh.seek(0, os.SEEK_END)
        if fresh:
            self._fh.truncate(0)
            self.append(
                {"schema": _JOURNAL_SCHEMA, "model_version": CODE_MODEL_VERSION}
            )

    def append(self, record: Dict[str, Any]) -> None:
        # Keys keep the writer's order: a journaled report must load
        # back with the same to_dict() output, free-form dicts included.
        self._fh.write(json.dumps(record).encode() + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
