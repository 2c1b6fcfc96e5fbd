"""Wire protocol of the sweep service: requests, content keys, records.

A submission is a JSON object describing a (graphs x algorithms x
systems) sweep slice plus service metadata (client identity, SLO
budget, fidelity).  :class:`SweepRequest` is its validated, frozen
in-memory form; :func:`request_key` content-addresses it so identical
work submitted twice — by the same client or different ones — resolves
to the *same* request id and is executed at most once.  The ``tag``
field is the escape hatch: it participates in the key, so clients that
genuinely want a re-run (e.g. the chaos soak harness generating load)
uniquify with it instead of the service guessing intent.

Everything here is pure data + validation; no I/O, no asyncio.  The
HTTP layer (:mod:`repro.service.server`) and the scheduler both speak
in these terms.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.algorithms import ALGORITHMS
from repro.errors import ProtocolError
from repro.experiments.runner import SYSTEM_BUILDERS
from repro.experiments.store import CODE_MODEL_VERSION
from repro.graph.datasets import DATASETS

#: Bumped on any incompatible change to the request/response schema.
PROTOCOL_VERSION = "repro-service/1"

#: Execution fidelities a request may ask for.  ``analytic`` runs the
#: closed-form timing models through the shared result cache;
#: ``cycle`` runs the cycle-accurate simulator (ScalaGraph systems
#: only, never cached — it is also what the circuit breaker sheds back
#: to analytic when a config family keeps failing).
FIDELITIES = ("analytic", "cycle")

#: Chaos hooks a request may carry (honoured only when the daemon runs
#: with ``REPRO_SERVICE_CHAOS=1``; rejected with a 400 otherwise so a
#: production daemon cannot be tripped by a stray test payload).
#:
#: * ``worker-crash-once`` — the first worker to pick up one of this
#:   request's cells SIGKILLs itself (exactly once per request),
#:   exercising pool rebuild + retry.
#: * ``fail`` — every cell attempt raises a
#:   :class:`~repro.errors.SanitizerError`, exercising retry exhaustion
#:   and the circuit breaker.
CHAOS_HOOKS = ("worker-crash-once", "fail")

#: Hard caps keeping one request's fan-out bounded; a sweep larger than
#: this should be split client-side (the content-address de-dupe makes
#: resubmitting slices idempotent).
MAX_CELLS_PER_REQUEST = 64
MAX_CLIENT_ID_LEN = 64
MAX_TAG_LEN = 128

#: Reasons a response may be marked ``degraded: true``.
DEGRADED_BREAKER_OPEN = "breaker-open"
DEGRADED_RETRIES_EXHAUSTED = "retries-exhausted"
DEGRADED_DEADLINE = "deadline-exceeded"

#: Terminal request states the API reports.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
TERMINAL_STATES = (STATE_DONE,)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


@dataclass(frozen=True)
class SweepRequest:
    """One validated sweep submission.

    Instances are immutable and fully picklable; the scheduler fans
    them out into per-(graph, algorithm) cells, each of which runs all
    of :attr:`systems` in one worker call (mirroring
    :func:`~repro.experiments.runner.execute_cell`).

    Attributes:
        client_id: identity the admission queue's weighted round-robin
            fairness is keyed on; free-form token, not authentication.
        graphs: dataset keys to sweep (validated against the registry).
        algorithms: algorithm names to sweep.
        systems: system labels to run per cell.
        scale_shift: added to every dataset's stand-in scale.
        max_iterations: per-run iteration cap, or None for unbounded.
        fidelity: ``analytic`` or ``cycle`` (see :data:`FIDELITIES`).
        fault_seed: when set on a ``cycle`` request, each run arms a
            :class:`~repro.faults.FaultSchedule` drawn from this seed
            (the chaos soak's fault-injected workload); None runs
            fault-free.
        deadline_s: SLO budget in seconds from admission; None means no
            deadline.  Propagated into per-cell timeouts; on expiry the
            remaining cells degrade instead of running.
        tag: free-form uniquifier mixed into the content key (identical
            submissions with different tags are distinct requests).
        chaos: fault hooks from :data:`CHAOS_HOOKS` (gated by
            ``REPRO_SERVICE_CHAOS``).
    """

    client_id: str
    graphs: Tuple[str, ...]
    algorithms: Tuple[str, ...]
    systems: Tuple[str, ...]
    scale_shift: int = 0
    max_iterations: Optional[int] = None
    fidelity: str = "analytic"
    fault_seed: Optional[int] = None
    deadline_s: Optional[float] = None
    tag: str = ""
    chaos: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        _require(
            isinstance(self.client_id, str)
            and 0 < len(self.client_id) <= MAX_CLIENT_ID_LEN,
            "client_id must be a non-empty string of at most "
            f"{MAX_CLIENT_ID_LEN} characters",
        )
        _require(
            bool(self.graphs) and bool(self.algorithms) and bool(self.systems),
            "graphs, algorithms, and systems must each be non-empty",
        )
        for list_name, values in (
            ("graphs", [g.upper() for g in self.graphs]),
            ("algorithms", [a.lower() for a in self.algorithms]),
            ("systems", list(self.systems)),
        ):
            _require(
                len(values) == len(set(values)),
                f"{list_name} must not contain duplicates",
            )
        for name in self.graphs:
            _require(
                name.upper() in DATASETS,
                f"unknown dataset {name!r}; known: {sorted(DATASETS)}",
            )
        for name in self.algorithms:
            _require(
                name.lower() in ALGORITHMS,
                f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}",
            )
        for name in self.systems:
            _require(
                name in SYSTEM_BUILDERS,
                f"unknown system {name!r}; known: {sorted(SYSTEM_BUILDERS)}",
            )
        _require(
            self.fidelity in FIDELITIES,
            f"unknown fidelity {self.fidelity!r}; known: {FIDELITIES}",
        )
        if self.fidelity == "cycle":
            for name in self.systems:
                _require(
                    name.startswith("ScalaGraph"),
                    "cycle fidelity models ScalaGraph systems only; "
                    f"{name!r} has no cycle-accurate twin",
                )
        _require(
            self.fault_seed is None
            or (
                isinstance(self.fault_seed, int)
                and self.fidelity == "cycle"
            ),
            "fault_seed must be an integer and requires cycle fidelity",
        )
        _require(
            isinstance(self.scale_shift, int) and -10 <= self.scale_shift <= 4,
            "scale_shift must be an integer in [-10, 4]",
        )
        _require(
            self.max_iterations is None
            or (
                isinstance(self.max_iterations, int)
                and self.max_iterations > 0
            ),
            "max_iterations must be a positive integer or null",
        )
        _require(
            self.deadline_s is None
            or (
                isinstance(self.deadline_s, (int, float))
                and float(self.deadline_s) > 0.0
            ),
            "deadline_s must be a positive number or null",
        )
        _require(
            isinstance(self.tag, str) and len(self.tag) <= MAX_TAG_LEN,
            f"tag must be a string of at most {MAX_TAG_LEN} characters",
        )
        for hook in self.chaos:
            _require(
                hook in CHAOS_HOOKS,
                f"unknown chaos hook {hook!r}; known: {CHAOS_HOOKS}",
            )
        _require(
            len(self.cells()) <= MAX_CELLS_PER_REQUEST,
            f"request fans out to {len(self.cells())} cells; the cap is "
            f"{MAX_CELLS_PER_REQUEST} — split the sweep and resubmit "
            "(content addressing de-dupes overlapping slices)",
        )

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------
    def cells(self) -> List[Tuple[str, str]]:
        """The (graph, algorithm) cells this request fans out into."""
        return [
            (graph.upper(), algorithm.lower())
            for graph in self.graphs
            for algorithm in self.algorithms
        ]

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        """The JSON-serialisable form of this request."""
        return {
            "client_id": self.client_id,
            "graphs": list(self.graphs),
            "algorithms": list(self.algorithms),
            "systems": list(self.systems),
            "scale_shift": self.scale_shift,
            "max_iterations": self.max_iterations,
            "fidelity": self.fidelity,
            "fault_seed": self.fault_seed,
            "deadline_s": self.deadline_s,
            "tag": self.tag,
            "chaos": list(self.chaos),
        }

    @classmethod
    def from_wire(cls, payload: Any) -> "SweepRequest":
        """Parse + validate a submission payload.

        Raises :class:`~repro.errors.ProtocolError` (HTTP 400) on any
        malformed or unknown field — never a bare KeyError/TypeError,
        so the server can map failures to a structured error response.
        """
        _require(isinstance(payload, dict), "request body must be an object")
        known = {
            "client_id",
            "graphs",
            "algorithms",
            "systems",
            "scale_shift",
            "max_iterations",
            "fidelity",
            "fault_seed",
            "deadline_s",
            "tag",
            "chaos",
        }
        unknown = sorted(set(payload) - known)
        _require(not unknown, f"unknown request field(s): {unknown}")
        for list_field in ("graphs", "algorithms", "systems", "chaos"):
            value = payload.get(list_field, [] if list_field == "chaos" else None)
            if list_field == "chaos" and value == []:
                continue
            _require(
                isinstance(value, list)
                and all(isinstance(item, str) for item in value),
                f"{list_field} must be a list of strings",
            )
        try:
            return cls(
                client_id=payload.get("client_id", ""),
                graphs=tuple(payload.get("graphs", ())),
                algorithms=tuple(payload.get("algorithms", ())),
                systems=tuple(payload.get("systems", ())),
                scale_shift=payload.get("scale_shift", 0),
                max_iterations=payload.get("max_iterations"),
                fidelity=payload.get("fidelity", "analytic"),
                fault_seed=payload.get("fault_seed"),
                deadline_s=payload.get("deadline_s"),
                tag=payload.get("tag", ""),
                chaos=tuple(payload.get("chaos", ())),
            )
        except ProtocolError:
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            raise ProtocolError(f"malformed request: {exc}") from exc


def request_key(request: SweepRequest) -> str:
    """Content address of a request: sha256 over its canonical form.

    Only fields that determine the *work* participate — the client id
    and the SLO budget do not, so two clients asking for the same sweep
    share one execution.  The model version is mixed in for the same
    reason it keys the result cache: a timing-model change must not be
    served from a previous build's results.  The hex digest's first 16
    characters are the public ``request_id``.
    """
    material = {
        "protocol": PROTOCOL_VERSION,
        "graphs": [g.upper() for g in request.graphs],
        "algorithms": [a.lower() for a in request.algorithms],
        "systems": list(request.systems),
        "scale_shift": request.scale_shift,
        "max_iterations": request.max_iterations,
        "fidelity": request.fidelity,
        "fault_seed": request.fault_seed,
        "tag": request.tag,
        "chaos": list(request.chaos),
        "model_version": CODE_MODEL_VERSION,
    }
    digest = hashlib.sha256(
        json.dumps(material, sort_keys=True).encode()
    ).hexdigest()
    return digest[:16]


def cell_record(
    request_id: str,
    graph: str,
    algorithm: str,
    system: str,
    summary: Dict[str, Any],
    degraded: bool = False,
    degraded_reason: Optional[str] = None,
    attempts: int = 1,
) -> Dict[str, Any]:
    """One streamed result line: a finished (or degraded) cell-system.

    This is the unit of the chunked-JSONL stream *and* of the service
    journal, so a client tailing ``/stream`` and a recovery scan of the
    journal see the same records.
    """
    record: Dict[str, Any] = {
        "kind": "cell",
        "request_id": request_id,
        "graph": graph,
        "algorithm": algorithm,
        "system": system,
        "degraded": degraded,
        "attempts": attempts,
        "summary": summary,
    }
    if degraded_reason is not None:
        record["degraded_reason"] = degraded_reason
    return record


def error_body(error: str, message: str, **extra: Any) -> Dict[str, Any]:
    """The uniform JSON error envelope every non-2xx response carries."""
    body: Dict[str, Any] = {"error": error, "message": message}
    body.update(extra)
    return body
