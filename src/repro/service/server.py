"""The sweep daemon's HTTP/JSON face.

A deliberately small hand-rolled HTTP/1.1 server over
``asyncio.start_server`` (stdlib only — the repo bakes in no web
framework), speaking one request per connection:

===========================================  ==============================
Route                                        Meaning
===========================================  ==============================
``GET /healthz``                             liveness (always 200)
``GET /readyz``                              readiness: 200 while
                                             admitting, 503 once draining;
                                             body carries queue depth and
                                             open breaker families
``POST /api/v1/submit``                      submit a sweep (202 admitted,
                                             200 deduped, 400 protocol,
                                             429 shed, 503 draining)
``GET /api/v1/requests/<id>``                request status
``GET /api/v1/requests/<id>/results``        finished records so far
``GET /api/v1/requests/<id>/stream``         chunked JSONL live stream
``GET /api/v1/stats``                        full operational snapshot
===========================================  ==============================

The daemon publishes its bound endpoint (host, port, pid) atomically to
``<state_dir>/service.json`` so clients discover an ephemeral port
without racing the bind, and drains gracefully on SIGTERM/SIGINT:
readiness flips to 503, new submissions shed with ``draining``, the
in-flight request finishes and is journaled, the journal is fsync'd,
and :func:`serve` returns 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import AdmissionError, ProtocolError
from repro.service.protocol import error_body
from repro.service.scheduler import ServicePolicy, SweepScheduler

_MAX_BODY_BYTES = 1 << 20
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServiceSettings:
    """Where the daemon binds and keeps its durable state.

    Attributes:
        state_dir: directory holding the journal, the shared result
            cache, and the published ``service.json`` endpoint file;
            restarting against the same directory resumes unfinished
            requests.
        host: bind address (loopback by default — the service is a
            local control plane, not a network daemon).
        port: bind port; 0 picks an ephemeral one, published in the
            endpoint file.
    """

    state_dir: str
    host: str = "127.0.0.1"
    port: int = 0


def _response(
    status: int,
    body: Dict[str, Any],
    extra_headers: Tuple[str, ...] = (),
) -> bytes:
    data = json.dumps(body).encode()
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(data)}",
        "Connection: close",
        *extra_headers,
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + data


class _ServiceServer:
    """Connection handling + routing around one :class:`SweepScheduler`."""

    def __init__(self, scheduler: SweepScheduler) -> None:
        self.scheduler = scheduler

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle(reader, writer)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            asyncio.TimeoutError,
            TimeoutError,
            OSError,
        ):
            pass  # client went away or spoke garbage; nothing to save
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # already torn down

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=10.0
        )
        request_line, _, header_block = head.partition(b"\r\n")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            writer.write(
                _response(400, error_body("protocol", "malformed request line"))
            )
            await writer.drain()
            return
        method, target, _ = parts
        headers: Dict[str, str] = {}
        for raw in header_block.decode("latin-1").split("\r\n"):
            name, sep, value = raw.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            writer.write(
                _response(
                    400,
                    error_body(
                        "protocol", f"malformed Content-Length {declared!r}"
                    ),
                )
            )
            await writer.drain()
            return
        length = int(declared)
        if length > _MAX_BODY_BYTES:
            writer.write(
                _response(413, error_body("protocol", "request body too large"))
            )
            await writer.drain()
            return
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=10.0
            )
        await self._route(method, target, body, writer)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        if target == "/healthz":
            writer.write(_response(200, {"ok": True}))
        elif target == "/readyz":
            snapshot = self.scheduler.queue.snapshot()
            ready = not snapshot["draining"]
            writer.write(
                _response(
                    200 if ready else 503,
                    {
                        "ready": ready,
                        "queue_depth": snapshot["depth"],
                        "queue_capacity": snapshot["capacity"],
                        "open_breakers": self.scheduler.breakers.open_families(),
                    },
                )
            )
        elif target == "/api/v1/submit":
            if method != "POST":
                writer.write(
                    _response(405, error_body("protocol", "POST required"))
                )
            else:
                writer.write(self._submit(body))
        elif target == "/api/v1/stats":
            writer.write(_response(200, self.scheduler.stats()))
        elif target.startswith("/api/v1/requests/"):
            await self._request_route(target, writer)
        else:
            writer.write(
                _response(404, error_body("not-found", f"no route {target}"))
            )
        await writer.drain()

    def _submit(self, body: bytes) -> bytes:
        try:
            payload = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return _response(
                400, error_body("protocol", f"body is not JSON: {exc}")
            )
        try:
            status = self.scheduler.submit(payload)
        except ProtocolError as exc:
            return _response(400, error_body("protocol", str(exc)))
        except AdmissionError as exc:
            http = 503 if exc.reason == "draining" else 429
            return _response(
                http,
                error_body(
                    "admission",
                    str(exc),
                    reason=exc.reason,
                    retry_after_s=exc.retry_after_s,
                ),
                extra_headers=(
                    f"Retry-After: {max(1, int(exc.retry_after_s))}",
                ),
            )
        return _response(200 if status["deduped"] else 202, status)

    async def _request_route(
        self, target: str, writer: asyncio.StreamWriter
    ) -> None:
        rest = target[len("/api/v1/requests/") :]
        if rest.endswith("/stream"):
            await self._stream(rest[: -len("/stream")], writer)
            return
        if rest.endswith("/results"):
            request_id = rest[: -len("/results")]
            records = self.scheduler.results(request_id)
            if records is None:
                writer.write(
                    _response(
                        404, error_body("not-found", "unknown request id")
                    )
                )
            else:
                writer.write(
                    _response(
                        200, {"request_id": request_id, "records": records}
                    )
                )
            return
        status = self.scheduler.status(rest)
        if status is None:
            writer.write(
                _response(404, error_body("not-found", "unknown request id"))
            )
        else:
            writer.write(_response(200, status))

    async def _stream(
        self, request_id: str, writer: asyncio.StreamWriter
    ) -> None:
        """Chunked-JSONL live stream of one request's records."""
        if self.scheduler.status(request_id) is None:
            writer.write(
                _response(404, error_body("not-found", "unknown request id"))
            )
            return
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
        )
        await writer.drain()
        async for record in self.scheduler.stream(request_id):
            line = json.dumps(record, sort_keys=True).encode() + b"\n"
            writer.write(f"{len(line):X}\r\n".encode() + line + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()


def _publish_endpoint(state_dir: Path, host: str, port: int) -> Path:
    """Atomically write the endpoint discovery file."""
    endpoint = state_dir / "service.json"
    payload = json.dumps(
        {"host": host, "port": port, "pid": os.getpid()}
    ).encode()
    fd, tmp_name = tempfile.mkstemp(dir=state_dir, prefix=".svc-", suffix=".tmp")
    with os.fdopen(fd, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_name, endpoint)
    return endpoint


async def serve(
    settings: ServiceSettings,
    policy: Optional[ServicePolicy] = None,
    notify: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit code.

    Drain protocol, in order: readiness flips to 503 and new
    submissions shed with ``draining``; the in-flight request's cells
    finish (or degrade) and are journaled; the journal is fsync'd and
    closed; the endpoint file is removed; 0 is returned.  Chaos hooks
    are honoured only when ``REPRO_SERVICE_CHAOS=1`` is set in the
    daemon's environment.
    """
    state_dir = Path(settings.state_dir)
    chaos_enabled = os.environ.get("REPRO_SERVICE_CHAOS") == "1"
    scheduler = SweepScheduler(
        state_dir, policy=policy, chaos_enabled=chaos_enabled
    )
    await scheduler.start()
    service = _ServiceServer(scheduler)
    server = await asyncio.start_server(
        service.handle, settings.host, settings.port
    )
    bound_port = int(server.sockets[0].getsockname()[1])
    endpoint = _publish_endpoint(state_dir, settings.host, bound_port)
    if notify is not None:
        notify({"host": settings.host, "port": bound_port, "pid": os.getpid()})
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: List[signal.Signals] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (ValueError, NotImplementedError, RuntimeError):
            continue  # non-main thread or exotic platform; rely on stop()
    try:
        await stop.wait()
        scheduler.queue.draining = True  # shed before the loop winds down
        await scheduler.drain()
    finally:
        server.close()
        try:
            await asyncio.wait_for(server.wait_closed(), timeout=2.0)
        except (asyncio.TimeoutError, TimeoutError):
            pass  # a lingering stream client must not block drain
        for signum in installed:
            loop.remove_signal_handler(signum)
        try:
            endpoint.unlink(missing_ok=True)
        except OSError:
            pass  # state_dir may already be gone in teardown
    return 0
