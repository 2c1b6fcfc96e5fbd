"""Exception hierarchy for the ScalaGraph reproduction library."""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphFormatError(ReproError):
    """An input graph is malformed (bad CSR arrays, negative IDs, ...)."""


class ConfigurationError(ReproError):
    """An accelerator/NoC configuration is invalid or unsupported."""


class SynthesisError(ReproError):
    """A hardware configuration fails to synthesise (route failure).

    Mirrors the paper's observation that crossbar-based designs beyond a
    PE-count limit cannot be placed and routed on the FPGA at all
    (Section II-B, Table IV: '-').
    """


class CapacityError(ReproError):
    """On-chip storage (SPD, replica store) cannot hold the working set."""


class SimulationError(ReproError):
    """A simulator reached an inconsistent state."""


class WorkerCrashError(ReproError):
    """A parallel sweep exhausted its retries on one or more cells.

    Raised by :func:`repro.experiments.parallel.run_matrix_parallel`
    when a cell's pooled attempts are spent (a crashed worker or a
    blown wall-clock budget on every attempt); completed cells are
    already in the result cache, so re-invoking the sweep with the
    same cache recomputes only the cells named here.

    Attributes:
        cells: the (graph, algorithm, system) triples left uncomputed.
        causes: per-cell original failure context — the exception that
            made the cell's *last* attempt fail (a ``BrokenProcessPool``
            for a SIGKILLed worker, a synthesized ``TimeoutError`` for a
            cell that blew its wall-clock budget).  Keys are the same
            triples as :attr:`cells`; cells whose cause was not
            captured are absent.  The first available cause is also
            chained as ``__cause__`` so tracebacks show what actually
            went wrong inside the pool, not just the give-up.
    """

    def __init__(
        self,
        cells: Iterable[Tuple[str, str, str]],
        causes: Optional[
            Mapping[Tuple[str, str, str], BaseException]
        ] = None,
    ) -> None:
        self.cells = list(cells)
        self.causes: Dict[Tuple[str, str, str], BaseException] = dict(
            causes or {}
        )
        labels = ", ".join("/".join(cell) for cell in self.cells)
        detail = ""
        if self.causes:
            shown = sorted(
                {
                    f"{type(exc).__name__}: {exc}"
                    if str(exc)
                    else type(exc).__name__
                    for exc in self.causes.values()
                }
            )
            detail = f" (causes: {'; '.join(shown)})"
        super().__init__(
            f"{len(self.cells)} cell(s) failed after exhausting retries: "
            f"{labels}{detail}"
        )


class ServiceError(ReproError):
    """Base class for sweep-service (``repro.service``) errors."""


class ProtocolError(ServiceError):
    """A service request/response payload is malformed or invalid.

    Maps to an HTTP 400: the submission itself is wrong (unknown
    dataset/algorithm/system, bad field types, chaos hooks without the
    chaos gate), as opposed to a well-formed request the service cannot
    currently take on (:class:`AdmissionError`).
    """


class AdmissionError(ServiceError):
    """The service refused to enqueue a well-formed request.

    Maps to an HTTP 429 (admission queue full, client table full) or
    503 (draining).  Load shedding is explicit by design: the caller
    learns immediately instead of queueing into an unbounded backlog.

    Attributes:
        reason: machine-readable refusal category (``queue-full``,
            ``client-table-full``, ``draining``).
        retry_after_s: suggested client backoff in seconds.
    """

    def __init__(self, reason: str, retry_after_s: float = 1.0) -> None:
        self.reason = reason
        self.retry_after_s = retry_after_s
        super().__init__(
            f"request not admitted ({reason}); retry after "
            f"{retry_after_s:g}s"
        )


class CircuitOpenError(ServiceError):
    """A config-family's circuit breaker is open; full-fidelity
    execution is being shed for that family.

    Attributes:
        family: the tripped config-family label.
    """

    def __init__(self, family: str) -> None:
        self.family = family
        super().__init__(
            f"circuit breaker open for config family {family!r}; "
            "serving degraded responses"
        )


class SanitizerError(SimulationError):
    """A runtime invariant checked by the SimSanitizer was violated.

    Structured so CI logs and tests can name the broken invariant
    without parsing prose.

    Attributes:
        invariant: machine-readable name of the violated invariant
            (e.g. ``update-conservation``, ``fifo-depth``).
        cycle: simulated cycle at which the violation was detected, or
            None for non-cycle checks.
        context: which simulator/component raised (e.g. ``cycle_sim``).
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        cycle: Optional[int] = None,
        context: str = "sim",
    ) -> None:
        self.invariant = invariant
        self.cycle = cycle
        self.context = context
        where = f" at cycle {cycle}" if cycle is not None else ""
        super().__init__(
            f"[{context}:{invariant}]{where}: {message}"
        )
