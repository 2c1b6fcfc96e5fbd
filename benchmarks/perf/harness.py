"""Shared pieces of the performance benchmark.

The workload modules (``cycle_bench``, ``sweep_bench``, ``serve_bench``)
measure the simulator from outside, by timing calls into its public
functions; this module holds what they share:

* :class:`Settings` — one run's knobs (seed, measuring time and least
  operation count, trace pass, smoke sizes, scratch root);
* :class:`Ledger` — operations attempted and failed, with the reason of
  every failure;
* :class:`Trace` — in-memory layer spans of the traced pass (name,
  start, end and the span that caused it);
* :class:`HostClock` — readings of the host's current speed, which
  scale end-to-end times to the reference host's speed;
* :class:`Outcome` — what a workload hands back to ``run.py``;
* percentile, peak-memory and process-group helpers.

Nothing here imports :mod:`repro`, so ``run.py`` can refuse to start
before the package is importable.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

#: Root of the checkout: ``benchmarks/perf/harness.py`` sits two levels down.
ROOT = Path(__file__).resolve().parents[2]

#: Scratch state of running benchmarks (ignored by ``.gitignore`` here);
#: each run makes its own directory inside and removes it.
SCRATCH = Path(__file__).resolve().parent / ".scratch"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Operations the measured pass of a cycle or sweep workload runs at
#: least, however long they take.  Two, not more: a PageRank simulation
#: takes 11-25 s, and every run of the benchmark must fit its time budget.
MIN_OPS = 2

#: Samples that must lie beyond the percentile reported as the tail.
TAIL_SAMPLES = 10

#: Calibration runs per :meth:`HostClock.read`.
CLOCK_SAMPLES = 12


def worker_count() -> int:
    """Worker processes a workload may use: at most 2, and never more
    than the host has cores."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Settings:
    """Knobs of one benchmark run.

    Attributes:
        seed: seeds the R-MAT graphs, the fault schedule and the request
            mix; the same seed gives the same inputs.
        seconds: how long the measured (untraced) pass runs at least;
            each workload finishes the operation in flight.
        min_ops: operations the measured pass runs at least (the serve
            workload counts requests instead, see ``serve_bench``).
        trace: also run the traced pass that yields the per-layer
            metrics.
        smoke: tiny inputs and one operation, for the harness self-test;
            the numbers mean nothing.
        tmp_root: directory inside the checkout for scratch state.
    """

    seed: int
    seconds: float
    min_ops: int
    trace: bool
    smoke: bool
    tmp_root: Path

    def measuring(self, ops: int, elapsed_s: float) -> bool:
        """Whether the measured pass goes on after ``ops`` operations."""
        return ops < self.min_ops or elapsed_s < self.seconds


class Ledger:
    """Operations attempted and failed by one workload run.

    An operation is one unit the workload checks: a simulation run, a
    sweep report, a served request, a set-up or a cross-check.  A failed
    check or an exception fails the operation and keeps its reason.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.record(False, what)


class Trace:
    """Layer spans of the traced pass, kept in memory.

    Spans nest: one opened inside another records it as its parent.
    Top-level spans are the layers whose times, plus ``unattributed_s``,
    add up to the traced pass's wall time.  Single-threaded: one span
    stack per pass.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[str] = []
        self._t0 = time.perf_counter()
        self.wall_s = 0.0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter()
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append(
                {
                    "name": name,
                    "parent": parent,
                    "start_s": start - self._t0,
                    "end_s": time.perf_counter() - self._t0,
                }
            )

    def finish(self) -> None:
        """Close the pass: its wall time runs from construction to now."""
        self.wall_s = time.perf_counter() - self._t0

    def total(self, name: str) -> float:
        return sum(
            s["end_s"] - s["start_s"] for s in self.spans if s["name"] == name
        )

    def layer_times(self, layers: Sequence[str]) -> Dict[str, float]:
        """Top-level time per layer metric (``<span>_s``), plus
        ``unattributed_s``, ``trace.wall_s`` and the check that every
        top-level span is one of ``layers``."""
        top = [s for s in self.spans if s["parent"] is None]
        unknown = {s["name"] for s in top} - set(layers)
        if unknown:
            raise ValueError(f"top-level spans outside the layer list: {unknown}")
        out = {f"{name}_s": 0.0 for name in layers}
        for s in top:
            out[f"{s['name']}_s"] += s["end_s"] - s["start_s"]
        out["unattributed_s"] = self.wall_s - sum(out.values())
        out["trace.wall_s"] = self.wall_s
        return out


_CLOCK_KEYS = np.arange(256, dtype=np.int64)


def _calibration_work() -> int:
    """Fixed work in the simulator's mix, ~10 ms: interpreted Python (a
    loop with dict updates), then many small NumPy calls."""
    total = 0
    table: Dict[int, int] = {}
    for i in range(50_000):
        total += i * i % 7
        table[i & 255] = total
    x = _CLOCK_KEYS
    for _ in range(1_250):
        x = np.where(x > 200, x - 200, x + 3)
    return total + len(table) + int(x.sum())


class HostClock:
    """How fast this host runs right now, read from fixed calibration work.

    A shared host's speed swings with its other tenants' load: for
    seconds to minutes at a time a core runs up to 2x slower, and every
    host time measured on it swings along.  A reading is the mean time
    of :data:`CLOCK_SAMPLES` runs of :func:`_calibration_work`, which
    runs no code of :mod:`repro`, so a change to the program cannot move
    it.  Workloads take a reading before and after each timed operation
    (one reading serves as the next operation's "before") and report
    the operation's time scaled by :meth:`scale`: the time it would have
    taken at the reference host's undisturbed speed.  The calibration
    runs on one core, so it does not track a workload that keeps both
    cores busy.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []

    def read(self) -> None:
        samples = []
        for _ in range(CLOCK_SAMPLES):
            start = time.perf_counter()
            _calibration_work()
            samples.append(time.perf_counter() - start)
        self.readings.append(statistics.fmean(samples))

    def scale(self, seconds: float) -> float:
        """``seconds`` of host time measured between the last two
        readings, at the reference host's undisturbed speed."""
        pace = (self.readings[-2] + self.readings[-1]) / 2.0
        return seconds * REFERENCE_CLOCK_S / pace


#: A :class:`HostClock` reading on the reference host (2-vCPU VM,
#: Python 3.11, NumPy 2.4) while undisturbed.
REFERENCE_CLOCK_S = 0.0105


#: Top-level spans a traced pass may open, in the order they are
#: summed.  Each is a per-layer metric named ``<span>_s``.
TOP_LAYERS = (
    "graph.build",
    "reference.run",
    "cycle.twin_check",
    "analytic.run",
    "baselines.run",
    "cycle.run",
    "service.loop",
    "store.probe",
    "journal.probe",
)


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    Attributes:
        end_to_end: every end-to-end metric, by name.
        per_layer: the per-layer metrics of the layers this workload
            exercises (traced runs only); ``run.py`` reports the others
            as 0.
        exact: the deterministic per-layer metrics (simulated counts and
            the model error), from the untraced pass too; ``compare.py``
            judges them exactly, seed by seed.
        layers: metric-name prefixes this workload exercises; a traced
            run must report every per-layer metric under them.
        samples: sample count behind each timing.
        info: workload-specific details for the ``--out`` document.
        spans: the traced pass's spans.
    """

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    exact: Dict[str, float] = field(default_factory=dict)
    layers: Sequence[str] = ()
    samples: Dict[str, int] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> float:
    """The highest percentile, up to the 95th, that has at least
    :data:`TAIL_SAMPLES` samples beyond it (nearest rank); the median
    when even that would not lie above the median (under 21 samples)."""
    ordered = sorted(values)
    rank = min(math.ceil(0.95 * len(ordered)), len(ordered) - TAIL_SAMPLES)
    if rank <= len(ordered) // 2:
        return median(ordered)
    return float(ordered[rank - 1])


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def own_peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest waited-for
    child, in MiB (``ru_maxrss`` is in KiB on Linux)."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def proc_status_mb(pid: int, field_name: str) -> float:
    """A ``VmHWM``/``VmRSS`` line of ``/proc/<pid>/status``, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field_name + ":"):
            return int(line.split()[1]) / 1024.0
    raise OSError(f"{field_name} missing from /proc/{pid}/status")


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we looked
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def stop_group(
    proc: "subprocess.Popen[bytes]", grace_s: float = 30.0
) -> Optional[int]:
    """SIGTERM a session leader, wait, then SIGKILL its whole group.

    Returns the leader's exit code from the graceful stop, or None when
    it had to be killed.  On return no process of the group is alive.
    """
    code: Optional[int] = None
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            code = None
    else:
        code = proc.returncode
    deadline = time.monotonic() + 10.0
    while True:
        members = group_members(proc.pid)
        if proc.poll() is None:
            members.append(proc.pid)
        if not members:
            break
        if time.monotonic() >= deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            code = None
            deadline = time.monotonic() + 10.0
        time.sleep(0.02)
    return code


def reap_children(timeout_s: float = 30.0) -> None:
    """Join every multiprocessing child this process started (a process
    pool's shutdown terminates its workers without waiting for them)."""
    import multiprocessing

    deadline = time.monotonic() + timeout_s
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join()


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------
def git_rev() -> Optional[str]:
    """The checkout's git revision, or None when it is not a git work
    tree (git is not asked, so it cannot find an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> Dict[str, Any]:
    import platform

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": git_rev(),
    }
