"""A small stdlib client for the compile-and-simulate service.

:class:`ServeClient` wraps ``http.client`` with the service's JSON
conventions (``schema_version`` stamping, ``X-Request-Id`` propagation,
error objects raised as :class:`ServeError` carrying the HTTP status and
decoded payload).  It is what the test suite, the CI smoke script and
``benchmarks/bench_serve.py`` use — one shared implementation so the
wire contract is exercised the same way everywhere.

The client keeps one persistent keep-alive connection and transparently
reconnects once if the server closed it between requests (idle timeout,
post-413 close).
"""

from __future__ import annotations

import http.client
import json
import time

from repro.serve.server import SERVE_SCHEMA
from repro.sim.modes import DEFAULT_MODE


class ServeError(Exception):
    """A non-2xx response; carries ``status`` and the decoded ``payload``."""

    def __init__(self, status: int, payload: dict, *, headers=None):
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        message = error.get("message") or f"HTTP {status}"
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload
        self.headers = dict(headers or {})


class ServeClient:
    """JSON client for one server address."""

    def __init__(self, host: str, port: int, *, timeout: float = 120.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # -- plumbing ---------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def raw_request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict, dict]:
        """One request with an arbitrary (possibly malformed) body.

        Returns ``(status, payload, headers)`` without raising on error
        statuses — the error-path tests assert on these directly.
        """
        send_headers = dict(headers or {})
        if body is not None:
            send_headers.setdefault("Content-Type", "application/json")
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=send_headers)
                response = conn.getresponse()
                break
            except (ConnectionError, http.client.HTTPException, OSError):
                # stale keep-alive connection: reconnect once
                self.close()
                if attempt:
                    raise
        data = response.read()
        if response.will_close:
            self.close()
        try:
            payload = json.loads(data) if data else {}
        except ValueError:
            payload = {"raw": data.decode("latin-1")}
        return response.status, payload, dict(response.getheaders())

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        request_id: str | None = None,
    ) -> dict:
        """One JSON request; raises :class:`ServeError` on non-2xx."""
        headers = {}
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        encoded = None
        if body is not None:
            body = {"schema_version": SERVE_SCHEMA, **body}
            encoded = json.dumps(body).encode()
        status, payload, resp_headers = self.raw_request(
            method, path, encoded, headers
        )
        if status >= 400:
            raise ServeError(status, payload, headers=resp_headers)
        return payload

    # -- endpoints --------------------------------------------------------

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def stats(self) -> dict:
        return self.request("GET", "/v1/stats")

    def compile(self, machine: str, *, kernel: str | None = None,
                source: str | None = None, **kwargs) -> dict:
        body = {"machine": machine, **kwargs}
        if kernel is not None:
            body["kernel"] = kernel
        if source is not None:
            body["source"] = source
        return self.request("POST", "/v1/compile", body)

    def run(self, machine: str, *, kernel: str | None = None,
            source: str | None = None, mode: str = DEFAULT_MODE, **kwargs) -> dict:
        body = {"machine": machine, "mode": mode, **kwargs}
        if kernel is not None:
            body["kernel"] = kernel
        if source is not None:
            body["source"] = source
        return self.request("POST", "/v1/run", body)

    def sweep(self, *, machines=None, kernels=None, mode: str = DEFAULT_MODE,
              **kwargs) -> dict:
        body = {"mode": mode, **kwargs}
        if machines is not None:
            body["machines"] = machines
        if kernels is not None:
            body["kernels"] = kernels
        return self.request("POST", "/v1/sweep", body)

    def job(self, job_id: str) -> dict:
        return self.request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self.request("DELETE", f"/v1/jobs/{job_id}")

    def wait_job(self, job_id: str, *, timeout: float = 120.0,
                 poll_s: float = 0.05) -> dict:
        """Poll ``GET /v1/jobs/<id>`` until the job reaches a terminal
        state; raises :class:`ServeError` for failed/timed-out/cancelled
        jobs (mirroring a ``wait=true`` submit) and ``TimeoutError`` if
        the client-side budget runs out first."""
        deadline = time.monotonic() + timeout
        while True:
            status, payload, headers = self.raw_request(
                "GET", f"/v1/jobs/{job_id}"
            )
            if status == 202:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"job {job_id} still {payload.get('state')!r} "
                        f"after {timeout:g}s"
                    )
                time.sleep(poll_s)
                continue
            if status >= 400:
                raise ServeError(status, payload, headers=headers)
            return payload
