"""SimSanitizer: opt-in runtime invariant checks for the cycle simulator.

The static half of the analysis story (:mod:`repro.analysis.simlint`)
cannot see dynamic accounting bugs — exactly the class PR 1 fixed by
hand (a ``pending_updates`` shadow counter drifting from the FIFOs it
shadowed, identity-valued updates silently dropped).  The sanitizer
checks those ledgers while the simulator runs:

* **update conservation** — per Scatter phase, every dispatched update
  either coalesces in an aggregation pipeline or retires as exactly one
  SPD Reduce: ``injected == delivered + coalesced + in_flight`` (with
  ``in_flight == 0`` at phase exit).
* **FIFO depth** — no router input queue ever exceeds the configured
  ``noc_buffer_depth`` (backpressure must be honoured, not absorbed).
* **cycle monotonicity** — the cycle counter of each simulation epoch
  advances strictly.
* **SPD accounting** — ``spd_reduces == updates - coalesced``.
* **aggregation ledger** — the pipeline's own counters stay consistent
  (``offered == coalesced + stored + rejected``) and its occupancy never
  exceeds capacity.

Enable it with ``REPRO_SANITIZE=1`` in the environment (guards a whole
test run) or by passing ``sanitize=True`` to
:class:`~repro.core.cycle_sim.CycleAccurateScalaGraph`.  Violations
raise a structured :class:`~repro.errors.SanitizerError` naming the
invariant and cycle.  Disabled, the hooks cost nothing: the wired
components hold ``sanitizer=None`` and skip every check.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Sequence

from repro.errors import SanitizerError

__all__ = [
    "REPRO_SANITIZE_ENV",
    "SanitizerError",
    "SimSanitizer",
    "maybe_sanitizer",
    "sanitizer_enabled",
]

#: Environment variable that arms the sanitizer globally.
REPRO_SANITIZE_ENV = "REPRO_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitizer_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` requests sanitized runs."""
    return os.environ.get(REPRO_SANITIZE_ENV, "").strip().lower() in _TRUTHY


def maybe_sanitizer(
    sanitize: Optional[bool] = None, context: str = "sim"
) -> Optional["SimSanitizer"]:
    """The standard opt-in gate: an explicit ``sanitize`` flag wins;
    ``None`` defers to the environment.  Returns None when disabled so
    call sites can use ``if sanitizer is not None`` as a zero-cost
    guard."""
    if sanitize is None:
        sanitize = sanitizer_enabled()
    return SimSanitizer(context=context) if sanitize else None


class SimSanitizer:
    """Assertion hooks the simulators call at well-defined points.

    One instance is shared by a simulator and the components it builds
    (mesh, routers, aggregation pipelines), so ``checks_run`` counts the
    total verification work of a run.  The monotonic-cycle check is
    scoped to an *epoch* (one Scatter phase / one mesh lifetime) via
    :meth:`begin_epoch`, because each phase legitimately restarts its
    cycle counter at zero.
    """

    def __init__(self, context: str = "sim") -> None:
        self.context = context
        self.checks_run = 0
        self.epoch = ""
        self._last_cycle: Optional[int] = None

    # -- plumbing ------------------------------------------------------
    def begin_epoch(self, label: str) -> None:
        """Start a new cycle-counting scope (e.g. one Scatter phase)."""
        self.epoch = label
        self._last_cycle = None

    def fail(
        self, invariant: str, message: str, cycle: Optional[int] = None
    ) -> None:
        where = f"{self.context}/{self.epoch}" if self.epoch else self.context
        raise SanitizerError(
            invariant, message, cycle=cycle, context=where
        )

    # -- invariants ----------------------------------------------------
    def check_cycle_monotonic(self, cycle: int) -> None:
        """The epoch's cycle counter must advance strictly."""
        self.checks_run += 1
        if self._last_cycle is not None and cycle <= self._last_cycle:
            self.fail(
                "cycle-monotonic",
                f"cycle counter moved {self._last_cycle} -> {cycle}; "
                "time must advance strictly",
                cycle=cycle,
            )
        self._last_cycle = cycle

    def check_fifo_depth(
        self,
        occupancy: int,
        depth: int,
        where: str,
        cycle: Optional[int] = None,
    ) -> None:
        """No FIFO may exceed its configured buffer depth."""
        self.checks_run += 1
        if occupancy > depth:
            self.fail(
                "fifo-depth",
                f"{where} holds {occupancy} entries, exceeding "
                f"buffer depth {depth}",
                cycle=cycle,
            )

    def check_fifo_depth_array(
        self,
        occupancies: Any,
        depth: int,
        *,
        where: str,
        cycle: Optional[int] = None,
        port_names: Optional[Sequence[str]] = None,
    ) -> None:
        """Array form of :meth:`check_fifo_depth` for struct-of-arrays
        engines: audits every ``(node, port)`` occupancy in one call.

        ``occupancies`` is a 2-D integer array (duck-typed to keep this
        module dependency-free — any object with ``size``/``shape``/
        ``max``/``min``/``argmax``/``argmin`` works, in practice a NumPy
        ``(nodes, ports)`` matrix).  ``port_names`` labels the second
        axis in failure messages.
        """
        self.checks_run += 1
        if not occupancies.size:
            return
        ports = occupancies.shape[1] if len(occupancies.shape) > 1 else 1

        def _label(flat: int) -> str:
            node, port = divmod(flat, ports)
            name = (
                port_names[port]
                if port_names is not None and port < len(port_names)
                else str(port)
            )
            return f"node {node} port {name}"

        worst = int(occupancies.max())
        if worst > depth:
            self.fail(
                "fifo-depth",
                f"{where} {_label(int(occupancies.argmax()))} holds "
                f"{worst} entries, exceeding buffer depth {depth}",
                cycle=cycle,
            )
        least = int(occupancies.min())
        if least < 0:
            self.fail(
                "fifo-depth",
                f"{where} {_label(int(occupancies.argmin()))} reports "
                f"negative occupancy {least}; the ledger is corrupt",
                cycle=cycle,
            )

    def check_conservation(
        self,
        *,
        injected: int,
        delivered: int,
        coalesced: int,
        in_flight: int,
        where: str,
        cycle: Optional[int] = None,
    ) -> None:
        """Updates are conserved: everything injected is delivered,
        coalesced, or still in flight — nothing dropped or duplicated."""
        self.checks_run += 1
        if injected != delivered + coalesced + in_flight:
            self.fail(
                "update-conservation",
                f"{where}: injected={injected} != delivered={delivered} "
                f"+ coalesced={coalesced} + in_flight={in_flight} "
                f"(delta {injected - delivered - coalesced - in_flight})",
                cycle=cycle,
            )

    def check_spd_accounting(
        self,
        *,
        spd_reduces: int,
        updates: int,
        coalesced: int,
        cycle: Optional[int] = None,
    ) -> None:
        """Every non-coalesced update retires as exactly one SPD
        Reduce: ``spd_reduces == updates - coalesced``."""
        self.checks_run += 1
        if spd_reduces != updates - coalesced:
            self.fail(
                "spd-accounting",
                f"spd_reduces={spd_reduces} != updates={updates} - "
                f"coalesced={coalesced}",
                cycle=cycle,
            )

    def check_aggregation_ledger_arrays(
        self, batch: Any, cycle: Optional[int] = None
    ) -> None:
        """Array form of :meth:`check_aggregation_ledger` for every PE's
        register array in the compiled scatter phase
        (:mod:`repro.core.fastsim`): audits every PE's ledger, occupancy
        counter, and the prefix-dense column invariant in one call
        (duck-typed — any object with per-PE ``offered``/``coalesced``/
        ``stored``/``rejected``/``occ`` arrays and ``(pe, column,
        stage)`` registers ``vid`` works).
        """
        self.checks_run += 1
        capacity = batch.vid[0].size
        balance = batch.coalesced + batch.stored + batch.rejected
        bad = batch.offered != balance
        if bad.any():
            pe = int(bad.argmax())
            self.fail(
                "aggregation-ledger",
                f"PE {pe}: offered={int(batch.offered[pe])} != "
                f"coalesced={int(batch.coalesced[pe])} "
                f"+ stored={int(batch.stored[pe])} "
                f"+ rejected={int(batch.rejected[pe])}",
                cycle=cycle,
            )
        live = (batch.vid != -1).sum(axis=(1, 2))
        drift = live != batch.occ
        if drift.any():
            pe = int(drift.argmax())
            self.fail(
                "aggregation-ledger",
                f"PE {pe}: occupancy counter {int(batch.occ[pe])} != "
                f"{int(live[pe])} live registers",
                cycle=cycle,
            )
        outside = (batch.occ < 0) | (batch.occ > capacity)
        if outside.any():
            pe = int(outside.argmax())
            self.fail(
                "aggregation-ledger",
                f"PE {pe}: occupancy {int(batch.occ[pe])} outside "
                f"[0, {capacity}]",
                cycle=cycle,
            )
        # Prefix density: a register below an empty stage of the same
        # column would make the systolic read path drop it.  ``vid`` is
        # (pe, column, stage) — stages on the last axis.
        occupied = batch.vid != -1
        dense = occupied[:, :, 1:] <= occupied[:, :, :-1]
        if not dense.all():
            pe = int((~dense).any(axis=(1, 2)).argmax())
            self.fail(
                "aggregation-ledger",
                f"PE {pe}: register column is not prefix-dense "
                "(occupied stage below an empty one)",
                cycle=cycle,
            )

    def check_aggregation_ledger(
        self, pipeline: Any, cycle: Optional[int] = None
    ) -> None:
        """The aggregation pipeline's counters must balance and its
        occupancy stay within capacity.

        ``pipeline`` is an
        :class:`~repro.noc.aggregation.AggregationPipeline` (typed
        loosely to keep this module dependency-free).
        """
        self.checks_run += 1
        stats = pipeline.stats
        balance = stats.coalesced + stats.stored + stats.rejected
        if stats.offered != balance:
            self.fail(
                "aggregation-ledger",
                f"offered={stats.offered} != coalesced={stats.coalesced} "
                f"+ stored={stats.stored} + rejected={stats.rejected}",
                cycle=cycle,
            )
        occupancy = pipeline.occupancy()
        if not 0 <= occupancy <= pipeline.capacity:
            self.fail(
                "aggregation-ledger",
                f"occupancy {occupancy} outside [0, {pipeline.capacity}]",
                cycle=cycle,
            )
