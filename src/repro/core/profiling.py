"""Lightweight named timers and counters for the simulation models.

The experiment sweeps need to know where wall-clock goes — reference
execution, the analytic Scatter/Apply models, the cycle simulator's
phases, NoC stepping — without perturbing the timing *results* (the
profilers measure host time, never simulated cycles).  A
:class:`Profiler` is handed to a model at construction time; the model
wraps its phases in :meth:`Profiler.timer` blocks and bumps named
counters, and the accumulated breakdown is surfaced on
``SimulationReport.to_dict()`` (the ``profile`` key, present only when a
profiler was attached, so unprofiled runs serialise unchanged) and on
the ``repro bench --json`` CLI output.

Profiling is strictly opt-in: models default to the shared
:data:`NULL_PROFILER`, whose methods are no-ops, so the hot paths pay
one attribute check when profiling is off.
"""

from __future__ import annotations

import time
from typing import Dict


class _BlockTimer:
    """Reusable context manager accumulating into one named timer.

    :meth:`Profiler.timer` returns one; it can be created once (outside
    a hot loop) and re-entered every iteration — the sanctioned way for
    model code to wall-clock an inner-loop block without a raw
    ``time.perf_counter()`` pair.
    """

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_BlockTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._profiler.add_time(
            self._name, time.perf_counter() - self._start
        )
        return False


class _NullBlockTimer(_BlockTimer):
    """Shared no-op block timer returned by :class:`NullProfiler`."""

    __slots__ = ()

    def __init__(self) -> None:  # no state to initialise
        pass

    def __enter__(self) -> "_BlockTimer":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_BLOCK_TIMER = _NullBlockTimer()


class Profiler:
    """Accumulates named wall-clock timers and integer counters.

    Timers record (call count, total seconds); counters are plain
    accumulators.  Not thread-safe — use one profiler per worker and
    :meth:`merge` the results.
    """

    __slots__ = ("_timers", "_counters")

    def __init__(self) -> None:
        # name -> [calls, total_seconds]
        self._timers: Dict[str, list] = {}
        self._counters: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def timer(self, name: str) -> _BlockTimer:
        """A reusable context manager timing each block it wraps under
        ``name`` (exceptions propagate, and their time still counts)."""
        return _BlockTimer(self, name)

    def add_time(self, name: str, seconds: float, calls: int = 1) -> None:
        """Accumulate ``seconds`` (from ``calls`` invocations) under
        ``name`` — the non-context-manager path for tight loops."""
        entry = self._timers.get(name)
        if entry is None:
            self._timers[name] = [calls, seconds]
        else:
            entry[0] += calls
            entry[1] += seconds

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def timer_seconds(self, name: str) -> float:
        entry = self._timers.get(name)
        return entry[1] if entry else 0.0

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def merge(self, other: "Profiler") -> None:
        """Fold another profiler's accumulations into this one."""
        for name, (calls, seconds) in other._timers.items():
            self.add_time(name, seconds, calls=calls)
        for name, value in other._counters.items():
            self.count(name, value)

    def to_dict(self) -> Dict:
        """JSON-serialisable breakdown: per-timer calls/seconds plus the
        counters."""
        return {
            "timers": {
                name: {"calls": calls, "total_seconds": seconds}
                for name, (calls, seconds) in sorted(self._timers.items())
            },
            "counters": dict(sorted(self._counters.items())),
        }


class NullProfiler(Profiler):
    """A no-op profiler: every method returns immediately.

    Models hold ``profiler or NULL_PROFILER`` so instrumentation sites
    need no ``if`` guards.
    """

    __slots__ = ()

    def timer(self, name: str) -> _BlockTimer:
        # The shared no-op timer: ``with NULL_PROFILER.timer(...)`` costs
        # one method call and allocates nothing.
        return _NULL_BLOCK_TIMER

    def add_time(self, name: str, seconds: float, calls: int = 1) -> None:
        pass

    def count(self, name: str, amount: float = 1) -> None:
        pass


#: Shared no-op instance used as the default by all instrumented models.
NULL_PROFILER = NullProfiler()
