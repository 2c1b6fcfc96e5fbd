"""The sweep service: a long-lived, degradation-aware experiment daemon.

PR 4 built the resilience substrate — seeded fault injection, per-cell
timeouts/retries with SIGKILL isolation, sweeps that resume through the
result cache — but it was only reachable through one-shot batch CLI
runs.
This package puts a *service control plane* in front of the same
machinery, the "sustained throughput under contention" framing
GraphScale/ScalaBFS apply to the accelerator applied to the harness
itself:

* :mod:`~repro.service.protocol` — content-addressed request/response
  wire format (requests de-dupe by content key, cells de-dupe against
  the shared :class:`~repro.experiments.store.ResultCache`).
* :mod:`~repro.service.queue` — bounded admission queue with weighted
  round-robin per-client fairness; a full queue sheds load with an
  explicit 429 instead of building an unbounded backlog.
* :mod:`~repro.service.breaker` — per-config-family circuit breakers:
  repeated worker crashes / sanitizer trips open the family and shed it
  to *degraded* responses (analytic model instead of cycle-accurate,
  marked ``degraded: true``) until a cooldown probe succeeds.
* :mod:`~repro.service.scheduler` — the async execution core: SLO
  deadline propagation into per-cell timeouts and degradation, over the
  batch sweep's own :class:`~repro.experiments.executor.CellExecutor`
  (worker pool with crash isolation and rebuild, jittered exponential
  retry backoff) and fsync'd journal, which makes admitted requests
  durable across restarts.
* :mod:`~repro.service.server` — the asyncio HTTP/JSON daemon:
  submit/status/stream endpoints (incremental chunked-JSONL result
  streaming), health/readiness with queue depth and breaker state, and
  graceful drain on SIGTERM (stop admitting, finish or journal
  in-flight, fsync, exit 0).
* :mod:`~repro.service.client` — the stdlib client the ``repro submit``
  CLI and the tests use.
* :mod:`~repro.service.chaos` — the soak harness: replays a
  fault-schedule-seeded workload plus worker SIGKILLs against a real
  daemon process and asserts zero lost or duplicated requests and
  monotone journal recovery.

Run it: ``repro serve`` / ``repro submit`` / ``repro soak``; see
``docs/SERVICE.md`` for the API schema, SLO semantics, the breaker
state machine, and the drain protocol.
"""

from repro.service.breaker import BreakerPolicy, CircuitBreakerBank
from repro.service.client import ServiceClient
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SweepRequest,
    request_key,
)
from repro.service.queue import AdmissionQueue
from repro.service.scheduler import ServicePolicy, SweepScheduler
from repro.service.server import ServiceSettings, serve

__all__ = [
    "AdmissionQueue",
    "BreakerPolicy",
    "CircuitBreakerBank",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "ServicePolicy",
    "ServiceSettings",
    "SweepRequest",
    "SweepScheduler",
    "request_key",
    "serve",
]
