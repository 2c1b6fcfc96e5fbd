"""Stdlib HTTP client for the sweep daemon.

Used by ``repro submit``, the chaos soak harness, and the tests — a
thin `urllib` wrapper that discovers the daemon through the endpoint
file it publishes, always sets socket timeouts, and returns
``(http_status, parsed_body)`` pairs instead of raising on 4xx/5xx:
shed (429) and draining (503) responses are *expected* outcomes the
callers count, not exceptions.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import ServiceError


class ServiceClient:
    """One daemon endpoint, with JSON helpers and socket timeouts."""

    def __init__(
        self, host: str, port: int, timeout_s: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    @classmethod
    def from_state_dir(
        cls, state_dir: Any, timeout_s: float = 30.0
    ) -> "ServiceClient":
        """Discover the daemon through its published endpoint file."""
        endpoint = Path(state_dir) / "service.json"
        try:
            payload = json.loads(endpoint.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ServiceError(
                f"no daemon endpoint at {endpoint} (is `repro serve` "
                f"running against this state dir?): {exc}"
            ) from exc
        return cls(payload["host"], int(payload["port"]), timeout_s)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _url(self, path: str) -> str:
        return f"http://{self.host}:{self.port}{path}"

    def _call(
        self, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            self._url(path),
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                return resp.status, json.loads(resp.read().decode() or "{}")
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode() if exc.fp else ""
            try:
                parsed = json.loads(raw or "{}")
            except json.JSONDecodeError:
                parsed = {"error": "protocol", "message": raw}
            return exc.code, parsed

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        return self._call("/healthz")

    def stats(self) -> Tuple[int, Dict[str, Any]]:
        return self._call("/api/v1/stats")

    def submit(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Submit a sweep; 202 admitted, 200 deduped, 429/503 shed."""
        return self._call("/api/v1/submit", body=payload)

    def status(self, request_id: str) -> Tuple[int, Dict[str, Any]]:
        return self._call(f"/api/v1/requests/{request_id}")

    def results(self, request_id: str) -> Tuple[int, Dict[str, Any]]:
        return self._call(f"/api/v1/requests/{request_id}/results")

    def stream(self, request_id: str) -> Iterator[Dict[str, Any]]:
        """Iterate a request's chunked-JSONL live stream.

        Yields each record as it lands (``urllib`` de-chunks
        transparently); the final yielded record has ``kind == "done"``.
        Raises :class:`~repro.errors.ServiceError` on a non-200.
        """
        req = urllib.request.Request(
            self._url(f"/api/v1/requests/{request_id}/stream")
        )
        try:
            resp = urllib.request.urlopen(req, timeout=self.timeout_s)
        except urllib.error.HTTPError as exc:
            raise ServiceError(
                f"stream for {request_id} failed: HTTP {exc.code}"
            ) from exc
        with resp:
            for raw_line in resp:
                line = raw_line.strip()
                if line:
                    yield json.loads(line)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def wait_ready(self, timeout_s: float = 10.0) -> bool:
        """Poll ``/healthz`` until the daemon answers or time runs out."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                status, _ = self.healthz()
            except (urllib.error.URLError, ConnectionError, OSError):
                time.sleep(0.05)
                continue
            if status == 200:
                return True
            time.sleep(0.05)
        return False

    def wait_done(
        self, request_id: str, timeout_s: float = 120.0
    ) -> Dict[str, Any]:
        """Poll a request's status until it reaches ``done``."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            status, body = self.status(request_id)
            if status == 200 and body.get("state") == "done":
                return body
            time.sleep(0.1)
        raise ServiceError(
            f"request {request_id} did not finish within {timeout_s:g}s"
        )
