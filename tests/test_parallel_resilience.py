"""Crash isolation, timeouts, and resume after a crash of the pooled runner.

The workers used here are top-level functions so they pickle by
reference into pool children; with the fork start method (asserted
below) the children inherit the parent's monkeypatched module state,
which is what routes the pool through them.  Coordination crosses the
process boundary through flag files under ``REPRO_RESILIENCE_DIR``.
"""

import builtins
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
import repro.experiments.parallel as parallel_mod
from repro.errors import ConfigurationError, WorkerCrashError
from repro.core.stats import SimulationReport
from repro.experiments import RetryPolicy, run_matrix, run_matrix_parallel
from repro.experiments.executor import Journal, replay_journal
from repro.experiments.runner import execute_cell
from repro.experiments.store import ResultCache

GRAPHS = ["PK"]
ALGORITHMS = ["bfs", "pagerank", "cc", "sssp"]
SYSTEMS = ["ScalaGraph-512"]
KW = dict(scale_shift=-5, max_iterations=3)

#: The (graph, algorithm) cell whose worker misbehaves.  It is last in
#: nominal order, so with 2 workers the first cells complete (and
#: persist) before the poison cell is even submitted.
POISON = ("PK", "sssp")

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see monkeypatched module state only under fork",
)


def _flag(name: str) -> Path:
    return Path(os.environ["REPRO_RESILIENCE_DIR"]) / name


def _record_invocation(graph_name: str, algorithm_name: str) -> None:
    marker = _flag(f"invoked-{graph_name}-{algorithm_name}-{os.getpid()}")
    with marker.open("a") as fh:
        fh.write("x\n")


def recording_execute_cell(
    graph_name, algorithm_name, systems, scale_shift, max_iterations
):
    """Stand-in for execute_cell that logs invocations."""
    _record_invocation(graph_name, algorithm_name)
    return execute_cell(
        graph_name, algorithm_name, systems, scale_shift, max_iterations
    )


def crash_once_worker(
    graph_name, algorithm_name, systems, scale_shift, max_iterations
):
    """Dies via SIGKILL the first time it sees the poison cell."""
    _record_invocation(graph_name, algorithm_name)
    if (graph_name, algorithm_name) == POISON:
        armed = _flag("crash-armed")
        if not armed.exists():
            armed.write_text("fired")
            os.kill(os.getpid(), signal.SIGKILL)
    return execute_cell(
        graph_name, algorithm_name, systems, scale_shift, max_iterations
    )


def crash_always_worker(
    graph_name, algorithm_name, systems, scale_shift, max_iterations
):
    """Dies via SIGKILL every time it sees the poison cell, unless the
    disarm flag exists."""
    _record_invocation(graph_name, algorithm_name)
    if (graph_name, algorithm_name) == POISON and not _flag(
        "crash-disarmed"
    ).exists():
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_cell(
        graph_name, algorithm_name, systems, scale_shift, max_iterations
    )


def slow_once_worker(
    graph_name, algorithm_name, systems, scale_shift, max_iterations
):
    """Hangs well past the cell timeout the first time it sees the
    poison cell."""
    _record_invocation(graph_name, algorithm_name)
    if (graph_name, algorithm_name) == POISON:
        armed = _flag("slow-armed")
        if not armed.exists():
            armed.write_text("fired")
            time.sleep(60.0)
    return execute_cell(
        graph_name, algorithm_name, systems, scale_shift, max_iterations
    )


def hanging_execute_cell(
    graph_name, algorithm_name, systems, scale_shift, max_iterations
):
    """Stand-in for execute_cell that hangs well past any cell timeout
    on the poison cell."""
    if (graph_name, algorithm_name) == POISON:
        time.sleep(60.0)
    return execute_cell(
        graph_name, algorithm_name, systems, scale_shift, max_iterations
    )


def model_error_worker(
    graph_name, algorithm_name, systems, scale_shift, max_iterations
):
    """Raises a plain model error (no crash) on the poison cell: the
    builtin exception named by ``REPRO_POISON_ERROR``.  It raises only
    once the ``bfs`` and ``pagerank`` cells are in the cache at
    ``REPRO_POISON_CACHE``: the poison cell can start as soon as any
    other cell finishes, and its error cancels a cell still running."""
    _record_invocation(graph_name, algorithm_name)
    if (graph_name, algorithm_name) == POISON:
        cache = ResultCache(os.environ["REPRO_POISON_CACHE"])
        deadline = time.monotonic() + 60.0
        while any(
            cache.get(
                graph_name, name, systems[0], scale_shift, max_iterations
            )
            is None
            for name in ("bfs", "pagerank")
        ):
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "the poison cell waited 60 s for the bfs and pagerank "
                    "cells to be cached"
                )
            time.sleep(0.01)
        error = getattr(builtins, os.environ["REPRO_POISON_ERROR"])
        raise error("model error in the poison cell")
    return execute_cell(
        graph_name, algorithm_name, systems, scale_shift, max_iterations
    )


#: Run in a subprocess: a pooled sweep whose workers hang mid-cell,
#: each leaving a ``worker-<pid>`` marker once it is running.
_HANGING_SWEEP = """
import os, sys, time
import repro.experiments.parallel as parallel_mod

def hanging_worker(graph_name, algorithm_name, systems, shift, cap):
    open(os.path.join(sys.argv[1], f"worker-{os.getpid()}"), "w").close()
    time.sleep(120.0)

parallel_mod._cell_worker = hanging_worker
parallel_mod.run_matrix_parallel(
    ["PK"], ["bfs", "pagerank", "cc", "sssp"], ["ScalaGraph-512"],
    scale_shift=-5, max_iterations=3, max_workers=2,
)
print("sweep finished")
"""


#: Run as a script: owns a CellExecutor (start method argv[2]) whose
#: two workers each hang in a cell after leaving a ``worker-<pid>``
#: marker in argv[1].  A file, not ``-c``, so spawn workers can import
#: ``hang`` from it.
_HANGING_OWNER = """
import asyncio, os, sys, time
from repro.experiments.executor import CellExecutor

def hang(marker_dir):
    open(os.path.join(marker_dir, f"worker-{os.getpid()}"), "w").close()
    time.sleep(120.0)

async def main():
    executor = CellExecutor(2, sys.argv[2], 0.01, 0.01, "owner")
    await asyncio.gather(
        *(executor.run(hang, [sys.argv[1]], attempts=1) for _ in range(2))
    )

if __name__ == "__main__":
    asyncio.run(main())
"""


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH"))
        if p
    )
    return env


def _running(pid: int) -> bool:
    """Whether a process exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture()
def resilience_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESILIENCE_DIR", str(tmp_path))
    return tmp_path


def invoked_cells(resilience_dir) -> set:
    cells = set()
    for marker in resilience_dir.glob("invoked-*"):
        _, graph_name, algorithm_name, _ = marker.name.split("-")
        cells.add((graph_name, algorithm_name))
    return cells


@pytest.fixture(scope="module")
def serial_matrix():
    return run_matrix(GRAPHS, ALGORITHMS, SYSTEMS, **KW)


def assert_matches_serial(matrix, serial_matrix):
    assert list(matrix.reports) == list(serial_matrix.reports)
    for key, report in matrix.reports.items():
        assert json.dumps(report.to_dict()) == json.dumps(
            serial_matrix.reports[key].to_dict()
        )


class TestRetryPolicyValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(cell_timeout=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff=-0.1)


class TestCrashIsolation:
    def test_dead_worker_requeues_not_aborts(
        self, resilience_dir, monkeypatch, serial_matrix
    ):
        """One SIGKILLed worker must cost a retry, not the sweep."""
        monkeypatch.setattr(parallel_mod, "_cell_worker", crash_once_worker)
        matrix = run_matrix_parallel(
            GRAPHS,
            ALGORITHMS,
            SYSTEMS,
            max_workers=2,
            policy=RetryPolicy(max_retries=2),
            **KW,
        )
        assert _flag("crash-armed").read_text() == "fired"
        assert_matches_serial(matrix, serial_matrix)

    def test_crash_error_carries_original_cause(
        self, resilience_dir, monkeypatch
    ):
        """The give-up error names *why* each cell failed (satellite:
        original exception context survives the pool rebuild)."""
        monkeypatch.setattr(parallel_mod, "_cell_worker", crash_always_worker)
        with pytest.raises(WorkerCrashError) as excinfo:
            run_matrix_parallel(
                GRAPHS,
                ALGORITHMS,
                SYSTEMS,
                max_workers=2,
                policy=RetryPolicy(max_retries=0, backoff=0.01),
                **KW,
            )
        err = excinfo.value
        poison_cells = [
            cell for cell in err.cells if (cell[0], cell[1]) == POISON
        ]
        assert poison_cells  # the poison cell is among the casualties
        cause = err.causes.get(poison_cells[0])
        assert isinstance(cause, BrokenProcessPool)
        # The first captured cause is chained, so the traceback shows
        # the pool breakage, not just the retry give-up.
        assert isinstance(err.__cause__, BrokenProcessPool)

    def test_timeout_tears_down_and_retries(
        self, resilience_dir, monkeypatch, serial_matrix
    ):
        """A cell exceeding its wall-clock budget is retried."""
        monkeypatch.setattr(parallel_mod, "_cell_worker", slow_once_worker)
        start = time.monotonic()
        matrix = run_matrix_parallel(
            GRAPHS,
            ALGORITHMS,
            SYSTEMS,
            max_workers=2,
            policy=RetryPolicy(cell_timeout=2.0, max_retries=2),
            **KW,
        )
        elapsed = time.monotonic() - start
        assert _flag("slow-armed").exists()  # the hang really happened
        assert elapsed < 50.0  # ...and was cut short, not waited out
        assert_matches_serial(matrix, serial_matrix)

    def test_one_cell_sweep_is_timed(self, monkeypatch):
        """A sweep of one cell runs in the pool like any other, so its
        cell timeout holds."""
        monkeypatch.setattr(parallel_mod, "execute_cell", hanging_execute_cell)
        start = time.monotonic()
        with pytest.raises(WorkerCrashError) as excinfo:
            run_matrix_parallel(
                [POISON[0]],
                [POISON[1]],
                SYSTEMS,
                max_workers=2,
                policy=RetryPolicy(cell_timeout=0.5, max_retries=0),
                **KW,
            )
        assert time.monotonic() - start < 15.0
        assert isinstance(excinfo.value.__cause__, TimeoutError)

    def test_timeout_is_final(self, tmp_path, monkeypatch):
        """A cell that blows its wall-clock budget on every attempt
        fails the sweep with a TimeoutError cause instead of running
        again, untimed, in the sweep's own process; every other cell
        is already cached."""
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setattr(parallel_mod, "execute_cell", hanging_execute_cell)
        start = time.monotonic()
        with pytest.raises(WorkerCrashError) as excinfo:
            run_matrix_parallel(
                GRAPHS,
                ALGORITHMS,
                SYSTEMS,
                max_workers=2,
                cache=cache,
                policy=RetryPolicy(
                    cell_timeout=1.0, max_retries=1, backoff=0.01
                ),
                **KW,
            )
        assert time.monotonic() - start < 15.0
        err = excinfo.value
        assert err.cells == [(*POISON, system) for system in SYSTEMS]
        for cell in err.cells:
            assert isinstance(err.causes[cell], TimeoutError)
        for algorithm_name in ("bfs", "pagerank", "cc"):
            assert cache.get(
                "PK", algorithm_name, SYSTEMS[0], **KW
            ) is not None


class TestModelError:
    @pytest.mark.parametrize(
        "error", [ValueError, FileNotFoundError, ImportError]
    )
    def test_model_error_reaches_caller_unchanged(
        self, error, resilience_dir, tmp_path, monkeypatch
    ):
        """An exception a cell raises (not a crash or timeout) is the
        caller's, whatever its type: not retried, not rerun serially, not
        wrapped — and the cells that finished before it are already
        cached."""
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setenv("REPRO_POISON_ERROR", error.__name__)
        monkeypatch.setenv("REPRO_POISON_CACHE", str(cache.root))
        monkeypatch.setattr(parallel_mod, "_cell_worker", model_error_worker)
        monkeypatch.setattr(
            parallel_mod, "execute_cell", recording_execute_cell
        )
        with pytest.raises(error, match="model error in the poison"):
            run_matrix_parallel(
                GRAPHS,
                ALGORITHMS,
                SYSTEMS,
                max_workers=2,
                cache=cache,
                policy=RetryPolicy(max_retries=2, backoff=0.01),
                **KW,
            )
        runs = sum(
            len(marker.read_text().splitlines())
            for marker in resilience_dir.glob(
                f"invoked-{POISON[0]}-{POISON[1]}-*"
            )
        )
        assert runs == 1  # one pooled attempt, no retry, no serial rerun
        for algorithm_name in ("bfs", "pagerank"):
            assert cache.get(
                "PK", algorithm_name, SYSTEMS[0], **KW
            ) is not None

    def test_cache_write_error_reaches_caller(
        self, resilience_dir, tmp_path, monkeypatch
    ):
        """A write-back that fails in the sweep's own process fails the
        sweep; no cell is recomputed there."""
        cache = ResultCache(tmp_path / "cache")
        real_put = ResultCache.put
        failed = []

        def put_failing_once(self, *args, **kwargs):
            if not failed:
                failed.append(True)
                raise OSError("disk full")
            return real_put(self, *args, **kwargs)

        monkeypatch.setattr(ResultCache, "put", put_failing_once)
        monkeypatch.setattr(
            parallel_mod, "execute_cell", recording_execute_cell
        )
        with pytest.raises(OSError, match="disk full"):
            run_matrix_parallel(
                GRAPHS, ALGORITHMS, SYSTEMS, max_workers=2, cache=cache, **KW
            )
        assert invoked_cells(resilience_dir)  # the cells ran in workers...
        assert not list(  # ...and none in the sweep's own process
            resilience_dir.glob(f"invoked-*-{os.getpid()}")
        )


class TestInterrupt:
    def test_ctrl_c_stops_sweep_and_leaves_no_worker(self, tmp_path):
        """SIGINT to the whole process group (a terminal's Ctrl-C)
        stops a pooled sweep, and its workers do not outlive it."""
        proc = subprocess.Popen(
            [sys.executable, "-c", _HANGING_SWEEP, str(tmp_path)],
            env=_subprocess_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while len(list(tmp_path.glob("worker-*"))) < 2:
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline, "workers never started"
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30.0)
        assert proc.returncode != 0
        assert b"sweep finished" not in out
        assert b"KeyboardInterrupt" in err
        deadline = time.monotonic() + 30.0
        for marker in tmp_path.glob("worker-*"):
            pid = int(marker.name.split("-")[1])
            while _running(pid):
                assert time.monotonic() < deadline, f"worker {pid} survived"
                time.sleep(0.05)


class TestOwnerDeath:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_exit_when_owner_is_killed(self, tmp_path, start_method):
        """A SIGKILLed owner terminates nothing; its pool workers must
        notice and exit on their own instead of blocking forever."""
        if not Path("/proc/self/stat").exists():
            pytest.skip("reads process state from /proc")
        script = tmp_path / "owner.py"
        script.write_text(_HANGING_OWNER)
        proc = subprocess.Popen(
            [sys.executable, str(script), str(tmp_path), start_method],
            env=_subprocess_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        pids = []
        try:
            deadline = time.monotonic() + 60.0
            while len(list(tmp_path.glob("worker-*"))) < 2:
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline, "workers never started"
                time.sleep(0.05)
            pids = [
                int(marker.name.split("-")[1])
                for marker in tmp_path.glob("worker-*")
            ]
            proc.kill()
            proc.communicate(timeout=30.0)
            deadline = time.monotonic() + 5.0
            while any(_running(pid) for pid in pids):
                assert time.monotonic() < deadline, (
                    f"workers {[p for p in pids if _running(p)]} outlived "
                    f"their SIGKILLed owner"
                )
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30.0)
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


def journal_cell(matrix, algorithm_name) -> dict:
    """A daemon ``cell`` record carrying one full report of the matrix."""
    report = matrix.reports[("PK", algorithm_name, SYSTEMS[0])]
    return {
        "kind": "cell",
        "request_id": "sweep",
        "graph": "PK",
        "algorithm": algorithm_name,
        "system": SYSTEMS[0],
        "report": report.to_dict(include_iterations=True),
    }


class TestCheckpointResume:
    """A sweep resumes through its result cache, the daemon through its
    journal: either way a crash loses at most the in-flight cells."""

    def test_resume_after_crash_loses_at_most_inflight(
        self, resilience_dir, tmp_path, monkeypatch, serial_matrix
    ):
        """Kill a worker mid-sweep with retries disabled; re-invoking
        with the same cache completes the matrix without recomputing
        any cell that finished before the crash."""
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setattr(parallel_mod, "_cell_worker", crash_always_worker)
        with pytest.raises(WorkerCrashError) as excinfo:
            run_matrix_parallel(
                GRAPHS,
                ALGORITHMS,
                SYSTEMS,
                max_workers=2,
                cache=cache,
                policy=RetryPolicy(max_retries=0, backoff=0.01),
                **KW,
            )
        lost = {(g, a) for g, a, _ in excinfo.value.cells}
        assert POISON in lost

        # With 2 workers and the poison cell last, the first two cells
        # finished (and were cached) before the pool broke: at most the
        # in-flight cells were lost.
        survivors = {
            (g, a)
            for g in GRAPHS
            for a in ALGORITHMS
            if (g, a) not in lost
        }
        assert len(survivors) >= 2

        # Second invocation: poison disarmed, same cache.
        _flag("crash-disarmed").write_text("ok")
        for marker in resilience_dir.glob("invoked-*"):
            marker.unlink()
        matrix = run_matrix_parallel(
            GRAPHS,
            ALGORITHMS,
            SYSTEMS,
            max_workers=2,
            cache=cache,
            policy=RetryPolicy(),
            **KW,
        )
        assert_matches_serial(matrix, serial_matrix)
        # Only the lost cells were recomputed; every finished cell was
        # resumed from the cache.
        assert invoked_cells(resilience_dir) == lost

    def test_incremental_cache_survives_dying_worker(
        self, resilience_dir, tmp_path, monkeypatch
    ):
        """Completed cells are cache.put() the moment they land, so a
        later crash cannot discard them (satellite: incremental
        write-back)."""
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setattr(parallel_mod, "_cell_worker", crash_always_worker)
        with pytest.raises(WorkerCrashError):
            run_matrix_parallel(
                GRAPHS,
                ALGORITHMS,
                SYSTEMS,
                max_workers=2,
                cache=cache,
                policy=RetryPolicy(max_retries=0, backoff=0.01),
                **KW,
            )
        stores_after_crash = cache.stats.stores
        assert stores_after_crash >= 2  # finished cells were persisted

        _flag("crash-disarmed").write_text("ok")
        matrix = run_matrix_parallel(
            GRAPHS,
            ALGORITHMS,
            SYSTEMS,
            max_workers=2,
            cache=cache,
            policy=RetryPolicy(),
            **KW,
        )
        assert len(matrix.reports) == len(ALGORITHMS)
        # Cached cells were not recomputed: only the missing ones stored.
        assert cache.stats.stores == len(ALGORITHMS)
        assert cache.stats.hits == stores_after_crash

    def test_checkpoint_truncated_at_every_byte_offset(
        self, tmp_path, serial_matrix
    ):
        """Chop the journal after every byte of its last record: replay
        never raises, never loses the first cell, and never loads a
        half-written second one."""
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.append(journal_cell(serial_matrix, "bfs"))
        first_end = path.stat().st_size
        journal.append(journal_cell(serial_matrix, "pagerank"))
        journal.close()
        raw = path.read_bytes()
        for cut in range(first_end, len(raw) + 1):
            path.write_bytes(raw[:cut])
            replay = replay_journal(path)
            loaded = [record["algorithm"] for record in replay.cells["sweep"]]
            if cut == len(raw):
                assert loaded == ["bfs", "pagerank"]
            else:
                assert loaded == ["bfs"]
                assert replay.valid_bytes == first_end

    def test_checkpoint_tolerates_torn_tail(self, tmp_path, serial_matrix):
        """A torn final line is dropped, and the record before it loads
        back as the same report."""
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.append(journal_cell(serial_matrix, "bfs"))
        journal.close()
        with path.open("a") as fh:
            fh.write('{"kind": "cell", "request_id": "sweep", "gra')
        [record] = replay_journal(path).cells["sweep"]
        report = SimulationReport.from_dict(record["report"])
        assert json.dumps(report.to_dict()) == json.dumps(
            serial_matrix.reports[("PK", "bfs", SYSTEMS[0])].to_dict()
        )

    def test_resumed_cells_survive_a_torn_tail(self, tmp_path, serial_matrix):
        """Journal a cell, tear a write, reopen at the valid prefix and
        journal a second cell: both replay.  The torn bytes are cut off
        before the first append, which would otherwise be glued to them
        and lost."""
        path = tmp_path / "journal.jsonl"
        first = journal_cell(serial_matrix, "bfs")
        second = journal_cell(serial_matrix, "pagerank")
        journal = Journal(path)
        journal.append(first)
        journal.close()
        with path.open("a") as fh:
            fh.write('{"kind": "cell", "gra')  # torn write
        replay = replay_journal(path)
        assert replay.cells["sweep"] == [first]
        resumed = Journal(path, valid_bytes=replay.valid_bytes)
        resumed.append(second)
        resumed.close()
        assert replay_journal(path).cells["sweep"] == [first, second]
