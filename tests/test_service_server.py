"""In-process end-to-end tests of the sweep scheduler and HTTP server.

Each test spins up the real :class:`SweepScheduler` (and, for the HTTP
tests, the real request handler on an ephemeral port) inside one
``asyncio.run`` — no subprocesses, no signals.  The daemon-level chaos
(worker SIGKILLs, daemon SIGKILL + restart) lives in the soak harness;
here the focus is deterministic protocol behaviour: admission codes,
dedupe, degradation reasons, journal recovery, stream framing.
"""

import asyncio
import dataclasses
import json

import pytest

from repro.errors import AdmissionError, ProtocolError
from repro.experiments.store import ResultCache
from repro.service.protocol import (
    DEGRADED_BREAKER_OPEN,
    DEGRADED_DEADLINE,
    DEGRADED_RETRIES_EXHAUSTED,
    STATE_DONE,
)
from repro.service.scheduler import (
    ServicePolicy,
    SweepScheduler,
    _analytic_cell,
    replay_journal,
)
from repro.service.server import _ServiceServer

FAST = ServicePolicy(
    workers=2,
    cell_timeout_s=60.0,
    max_attempts=2,
    backoff_base_s=0.01,
    backoff_cap_s=0.05,
    breaker_threshold=2,
    breaker_cooldown_s=60.0,
    queue_capacity=8,
)


def payload(**overrides):
    body = dict(
        client_id="alice",
        graphs=["PK"],
        algorithms=["bfs"],
        systems=["Gunrock"],
        scale_shift=-9,
    )
    body.update(overrides)
    return body


async def wait_done(scheduler, request_id, timeout_s=120.0):
    """Consume the stream until the terminal done record."""
    records = []
    async def consume():
        async for record in scheduler.stream(request_id):
            records.append(record)
    await asyncio.wait_for(consume(), timeout=timeout_s)
    return records


class TestSchedulerLifecycle:
    def test_submit_execute_dedupe_drain(self, tmp_path):
        async def body():
            scheduler = SweepScheduler(tmp_path, policy=FAST)
            await scheduler.start()
            status = scheduler.submit(payload())
            assert status["state"] == "queued"
            assert status["deduped"] is False
            request_id = status["request_id"]

            records = await wait_done(scheduler, request_id)
            cells = [r for r in records if r["kind"] == "cell"]
            assert len(cells) == 1
            assert cells[0]["summary"]["gteps"] > 0
            assert not cells[0]["degraded"]
            assert records[-1]["kind"] == "done"

            # Content-identical resubmission: no new work, no queue slot.
            again = scheduler.submit(payload())
            assert again["deduped"] is True
            assert again["request_id"] == request_id
            assert again["state"] == STATE_DONE

            await scheduler.drain()
            replay = replay_journal(scheduler.journal_path)
            assert set(replay.requests) == {request_id}
            assert len(replay.cells[request_id]) == 1
            assert request_id in replay.done
        asyncio.run(body())

    def test_queue_full_is_deterministic_under_burst(self, tmp_path):
        async def body():
            scheduler = SweepScheduler(
                tmp_path,
                policy=ServicePolicy(queue_capacity=1, workers=1),
            )
            await scheduler.start()
            # No await between the submits, so the run loop cannot
            # drain the queue in between: the second offer must shed.
            scheduler.submit(payload(tag="one"))
            with pytest.raises(AdmissionError) as excinfo:
                scheduler.submit(payload(tag="two"))
            assert excinfo.value.reason == "queue-full"
            await scheduler.drain()
        asyncio.run(body())

    def test_chaos_requires_flag(self, tmp_path):
        async def body():
            scheduler = SweepScheduler(tmp_path, policy=FAST)
            await scheduler.start()
            with pytest.raises(ProtocolError):
                scheduler.submit(payload(chaos=["fail"]))
            await scheduler.drain()
        asyncio.run(body())


class TestAnalyticCellCache:
    def test_empty_cache_is_written_then_read(self, tmp_path):
        """An empty cache directory is still a cache: the first call
        computes the cell and stores it, the second serves it back."""
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        cell = ("PK", "bfs", ("Gunrock",), -9, None, str(cache_dir))
        [(system, first, cached)] = _analytic_cell(*cell)
        assert (system, cached) == ("Gunrock", False)
        assert len(ResultCache(cache_dir)) == 1
        [(system, second, cached)] = _analytic_cell(*cell)
        assert (system, cached) == ("Gunrock", True)
        assert second == first


class TestDegradation:
    def test_deadline_exceeded_degrades_not_drops(self, tmp_path):
        async def body():
            scheduler = SweepScheduler(tmp_path, policy=FAST)
            await scheduler.start()
            status = scheduler.submit(payload(deadline_s=0.0001))
            records = await wait_done(scheduler, status["request_id"])
            cells = [r for r in records if r["kind"] == "cell"]
            assert len(cells) == 1  # the cell is answered, not lost
            assert cells[0]["degraded"] is True
            assert cells[0]["degraded_reason"] == DEGRADED_DEADLINE
            assert "gteps" in cells[0]["summary"]  # analytic stand-in
            await scheduler.drain()
        asyncio.run(body())

    def test_retries_exhausted_then_breaker_opens(self, tmp_path):
        async def body():
            scheduler = SweepScheduler(
                tmp_path, policy=FAST, chaos_enabled=True
            )
            await scheduler.start()
            first = scheduler.submit(
                payload(client_id="bob", chaos=["fail"], tag="f1")
            )
            records = await wait_done(scheduler, first["request_id"])
            cells = [r for r in records if r["kind"] == "cell"]
            assert cells[0]["degraded_reason"] == DEGRADED_RETRIES_EXHAUSTED
            assert cells[0]["attempts"] == FAST.max_attempts

            # max_attempts=2 failures tripped the threshold-2 breaker:
            # the same family now sheds *without* touching the pool.
            assert scheduler.breakers.state("bfs:analytic") == "open"
            second = scheduler.submit(
                payload(client_id="bob", chaos=["fail"], tag="f2")
            )
            records = await wait_done(scheduler, second["request_id"])
            cells = [r for r in records if r["kind"] == "cell"]
            assert cells[0]["degraded_reason"] == DEGRADED_BREAKER_OPEN
            await scheduler.drain()
        asyncio.run(body())


class TestBackoff:
    def test_retry_delays_never_exceed_the_cap(self, tmp_path, monkeypatch):
        """backoff_cap_s bounds every retry delay, jitter included."""
        cap = 0.05
        policy = dataclasses.replace(
            FAST, max_attempts=9, backoff_base_s=cap, backoff_cap_s=cap
        )
        delays = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            delays.append(delay)
            await real_sleep(0)

        monkeypatch.setattr(asyncio, "sleep", recording_sleep)

        async def body():
            scheduler = SweepScheduler(
                tmp_path, policy=policy, chaos_enabled=True
            )
            await scheduler.start()
            status = scheduler.submit(payload(chaos=["fail"]))
            records = await wait_done(scheduler, status["request_id"])
            cells = [r for r in records if r["kind"] == "cell"]
            assert cells[0]["degraded_reason"] == DEGRADED_RETRIES_EXHAUSTED
            assert cells[0]["attempts"] == policy.max_attempts
            await scheduler.drain()
        asyncio.run(body())
        assert len(delays) >= 8
        assert max(delays) <= cap


class TestJournalRecovery:
    def test_unfinished_request_is_resumed(self, tmp_path):
        async def body():
            # First incarnation journals the request but is drained
            # before the loop picks it up (drain before any await that
            # would let the run loop execute the cell).
            first = SweepScheduler(tmp_path, policy=FAST)
            await first.start()
            status = first.submit(payload(tag="resume-me"))
            request_id = status["request_id"]
            await first.drain()
            replay = replay_journal(first.journal_path)
            assert request_id in replay.requests
            assert request_id not in replay.done

            # Second incarnation replays the journal and finishes it.
            second = SweepScheduler(tmp_path, policy=FAST)
            await second.start()
            assert second.status(request_id) is not None
            records = await wait_done(second, request_id)
            assert records[-1]["kind"] == "done"
            await second.drain()
            replay = replay_journal(second.journal_path)
            assert request_id in replay.done
        asyncio.run(body())

    def test_torn_tail_is_truncated_on_recovery(self, tmp_path):
        async def body():
            first = SweepScheduler(tmp_path, policy=FAST)
            await first.start()
            status = first.submit(payload(tag="torn"))
            request_id = status["request_id"]
            await wait_done(first, request_id)
            await first.drain()

            intact = replay_journal(first.journal_path)
            with open(first.journal_path, "ab") as fh:
                fh.write(b'{"kind": "cell", "request_id": "torn-mid')
            torn = replay_journal(first.journal_path)
            assert torn.valid_bytes == intact.valid_bytes
            assert torn.cells == intact.cells

            # Recovery truncates the torn bytes so future appends start
            # on a clean line.
            second = SweepScheduler(tmp_path, policy=FAST)
            await second.start()
            await second.drain()
            size = first.journal_path.stat().st_size
            assert size == intact.valid_bytes
        asyncio.run(body())

    def test_foreign_schema_is_not_replayed(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            json.dumps({"schema": "somebody-else/9"}) + "\n"
            + json.dumps({"kind": "request", "request_id": "x"}) + "\n"
        )
        replay = replay_journal(journal)
        assert replay.requests == {}
        assert replay.valid_bytes == 0


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


async def http(port, method, path, body=None):
    """One raw HTTP/1.1 exchange; returns (status, headers, payload).

    The server closes the connection after each response, so the body
    is everything until EOF — de-chunked when the response says so.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    blob = b"" if body is None else json.dumps(body).encode()
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
    if blob:
        head += (
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n"
        )
    writer.write(head.encode() + b"\r\n" + blob)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, rest = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        rest = _dechunk(rest)
    return status, headers, rest


def _dechunk(blob):
    out = b""
    offset = 0
    while offset < len(blob):
        end = blob.find(b"\r\n", offset)
        if end < 0:
            break
        size = int(blob[offset:end], 16)
        if size == 0:
            break
        out += blob[end + 2 : end + 2 + size]
        offset = end + 2 + size + 2  # skip the chunk's trailing CRLF
    return out


class TestHTTP:
    def test_full_request_cycle_over_http(self, tmp_path):
        async def body():
            scheduler = SweepScheduler(tmp_path, policy=FAST)
            await scheduler.start()
            handler = _ServiceServer(scheduler)
            server = await asyncio.start_server(
                handler.handle, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                status, _, raw = await http(port, "GET", "/healthz")
                assert status == 200

                status, _, raw = await http(port, "GET", "/readyz")
                assert status == 200
                ready = json.loads(raw)
                assert ready["queue_depth"] == 0

                status, _, raw = await http(
                    port, "POST", "/api/v1/submit", body=payload()
                )
                assert status == 202
                request_id = json.loads(raw)["request_id"]

                # The stream endpoint speaks chunked JSONL and ends
                # with the done record.
                status, headers, raw = await http(
                    port,
                    "GET",
                    f"/api/v1/requests/{request_id}/stream",
                )
                assert status == 200
                assert headers["transfer-encoding"] == "chunked"
                lines = [
                    json.loads(line)
                    for line in raw.decode().splitlines()
                    if line
                ]
                assert lines[-1]["kind"] == "done"
                assert any(r["kind"] == "cell" for r in lines)

                status, _, raw = await http(
                    port, "GET", f"/api/v1/requests/{request_id}"
                )
                assert status == 200
                assert json.loads(raw)["state"] == STATE_DONE

                status, _, raw = await http(
                    port, "GET", f"/api/v1/requests/{request_id}/results"
                )
                assert status == 200
                assert len(json.loads(raw)["records"]) == 1

                # Dedupe over the wire is a 200, not a 202.
                status, _, raw = await http(
                    port, "POST", "/api/v1/submit", body=payload()
                )
                assert status == 200
                assert json.loads(raw)["deduped"] is True

                status, _, _ = await http(
                    port, "GET", "/api/v1/requests/feedface/results"
                )
                assert status == 404
                status, _, _ = await http(port, "GET", "/nope")
                assert status == 404
                status, _, raw = await http(
                    port, "POST", "/api/v1/submit",
                    body=payload(graphs=["NOPE"]),
                )
                assert status == 400

                status, _, raw = await http(port, "GET", "/api/v1/stats")
                assert status == 200
                stats = json.loads(raw)
                assert stats["requests"] == {STATE_DONE: 1}
            finally:
                server.close()
                await server.wait_closed()
                await scheduler.drain()
        asyncio.run(body())

    @pytest.mark.parametrize("length", ["abc", "-3"])
    def test_malformed_content_length_is_400(self, tmp_path, length):
        """A Content-Length that is not a decimal count gets the
        protocol error envelope, and nothing reaches the event loop's
        exception handler."""
        async def body():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            scheduler = SweepScheduler(tmp_path, policy=FAST)
            await scheduler.start()
            handler = _ServiceServer(scheduler)
            server = await asyncio.start_server(
                handler.handle, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    b"POST /api/v1/submit HTTP/1.1\r\nHost: test\r\n"
                    + f"Content-Length: {length}\r\n\r\n".encode()
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                await scheduler.drain()
            assert raw.startswith(b"HTTP/1.1 400 ")
            assert json.loads(raw.partition(b"\r\n\r\n")[2]) == {
                "error": "protocol",
                "message": f"malformed Content-Length {length!r}",
            }
            assert loop_errors == []
        asyncio.run(body())

    def test_draining_returns_503(self, tmp_path):
        async def body():
            scheduler = SweepScheduler(tmp_path, policy=FAST)
            await scheduler.start()
            handler = _ServiceServer(scheduler)
            server = await asyncio.start_server(
                handler.handle, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                await scheduler.drain()
                status, headers, raw = await http(
                    port, "POST", "/api/v1/submit", body=payload()
                )
                assert status == 503
                assert json.loads(raw)["reason"] == "draining"
                status, _, _ = await http(port, "GET", "/readyz")
                assert status == 503
            finally:
                server.close()
                await server.wait_closed()
        asyncio.run(body())
