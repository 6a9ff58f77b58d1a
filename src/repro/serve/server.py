"""The compile-and-simulate service: asyncio HTTP front end.

:class:`ReproServer` binds an ``asyncio.start_server`` listener and
exposes the pipeline over six JSON endpoints:

========================  ====================================================
``GET  /healthz``         liveness (also reports draining state)
``GET  /v1/stats``        queue depth, in-flight, dedup counters, latency
                          percentiles, artifact-store hit/miss
``POST /v1/compile``      compile a kernel for a machine (program summary)
``POST /v1/run``          compile + simulate; ``mode`` checked/fast/turbo/
                          native, optional ``max_cycles`` and ``timeout_s``
``POST /v1/sweep``        a full (machines × kernels) sweep; async by default
``GET  /v1/jobs/<id>``    poll a job; ``DELETE`` cancels it
========================  ====================================================

Request/response contract:

* bodies and responses are JSON; responses carry
  ``schema_version = SERVE_SCHEMA`` and echo (or mint) an
  ``X-Request-Id`` header that is also threaded into the worker's
  :mod:`repro.obs` spans;
* ``wait`` (default true for compile/run, false for sweep) controls
  whether the response blocks for the result or returns ``202`` with a
  ``job_id`` to poll;
* a body field the endpoint does not read is a ``400`` naming it
  (:data:`~repro.serve.jobs.JOB_FIELDS`), never silently dropped;
* a full queue answers ``429`` with ``Retry-After`` **without executing
  anything**; a draining server answers ``503``;
* job failures map to status codes by fault domain: bad request
  parameters and uncompilable programs are ``400``, worker crashes are
  ``500``, per-job timeouts are ``504``, cancellations are ``409``.

The server owns one :class:`~repro.serve.jobs.JobManager`; all handler
code runs on the event loop, so manager state needs no locks.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import time

from repro import obs
from repro.pipeline.store import ArtifactStore
from repro.serve.http import (
    STREAM_LIMIT,
    HttpError,
    Request,
    encode_response,
    read_request,
)
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    TIMEOUT,
    BadJob,
    Draining,
    JobManager,
    QueueFull,
    normalize_params,
)
from repro.serve.stats import ServeMetrics

#: bump when the request/response JSON layout changes
SERVE_SCHEMA = 1

#: how long an idle keep-alive connection may sit between requests (s)
IDLE_TIMEOUT = 120.0

#: default cap on request body size (1 MiB)
DEFAULT_MAX_BODY = 1 << 20


def _status_for(job) -> int:
    """Map a terminal job state to its HTTP status."""
    if job.state == DONE:
        return 200
    if job.state == TIMEOUT:
        return 504
    if job.state == CANCELLED:
        return 409
    if job.state == FAILED:
        return 400 if (job.error or {}).get("client_error") else 500
    return 202  # queued / running


class ReproServer:
    """One service instance: listener + job manager + metrics."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        jobs: int = 2,
        queue_limit: int = 64,
        job_timeout: float = 300.0,
        max_body: int = DEFAULT_MAX_BODY,
        drain_grace: float = 30.0,
        store: ArtifactStore | None | str = "default",
    ):
        self.host = host
        self.port = port
        self.max_body = max_body
        self.drain_grace = drain_grace
        if store == "default":
            from repro.pipeline.store import default_store

            store = default_store()
        self.store = store
        self.metrics = ServeMetrics()
        self.manager = JobManager(
            shards=jobs,
            queue_limit=queue_limit,
            job_timeout=job_timeout,
            store=store,
            metrics=self.metrics,
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._request_ids = itertools.count(1)
        self._draining = False

    # -- lifecycle --------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — useful after binding port 0."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "ReproServer":
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=STREAM_LIMIT
        )
        self.port = self.address[1]
        return self

    async def drain(self) -> dict:
        """Graceful shutdown: stop accepting connections, let queued and
        running jobs finish (up to ``drain_grace``), terminate
        stragglers, close lingering connections."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        summary = await self.manager.drain(timeout=self.drain_grace)
        if self._connections:
            await asyncio.wait(tuple(self._connections), timeout=5.0)
            for task in tuple(self._connections):
                task.cancel()
        return summary

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader, max_body=self.max_body),
                        timeout=IDLE_TIMEOUT,
                    )
                except asyncio.TimeoutError:
                    break
                except HttpError as exc:
                    writer.write(self._error_bytes(exc, self._next_request_id()))
                    await writer.drain()
                    if not exc.keep_alive:
                        break
                    continue
                if request is None:
                    break  # clean EOF
                keep_alive = await self._serve_one(request, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _next_request_id(self) -> str:
        return f"r{next(self._request_ids):06d}-{os.getpid():d}"

    def _error_bytes(self, exc: HttpError, request_id: str) -> bytes:
        return encode_response(
            exc.status,
            {
                "schema_version": SERVE_SCHEMA,
                "error": {"type": "HttpError", "message": exc.message},
            },
            request_id=request_id,
            keep_alive=exc.keep_alive,
        )

    async def _serve_one(self, request: Request, writer) -> bool:
        request_id = request.headers.get("x-request-id") or self._next_request_id()
        started = time.perf_counter()
        route = self._route_label(request)
        with obs.span("serve.request", route=route, request_id=request_id):
            status, payload, extra = await self._dispatch(request, request_id)
        keep_alive = request.keep_alive
        writer.write(
            encode_response(
                status,
                payload,
                request_id=request_id,
                keep_alive=keep_alive,
                extra_headers=extra,
            )
        )
        await writer.drain()
        self.metrics.record_request(route, status, time.perf_counter() - started)
        return keep_alive

    @staticmethod
    def _route_label(request: Request) -> str:
        path = request.path
        if path.startswith("/v1/jobs/"):
            path = "/v1/jobs"
        return f"{request.method} {path}"

    # -- routing ----------------------------------------------------------

    async def _dispatch(
        self, request: Request, request_id: str
    ) -> tuple[int, dict, dict]:
        """Returns ``(status, payload, extra_headers)``."""
        method, path = request.method, request.path
        try:
            if path == "/healthz":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return 200, self._wrap({
                    "status": "draining" if self._draining else "ok",
                }), {}
            if path == "/v1/stats":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return 200, self._wrap(self.stats_snapshot()), {}
            if path in ("/v1/compile", "/v1/run", "/v1/sweep"):
                if method != "POST":
                    return self._method_not_allowed("POST")
                kind = path.rsplit("/", 1)[1]
                return await self._submit(kind, request, request_id)
            if path.startswith("/v1/jobs/"):
                job_id = path[len("/v1/jobs/"):]
                if method == "GET":
                    return self._job_status(job_id)
                if method == "DELETE":
                    return self._job_cancel(job_id)
                return self._method_not_allowed("GET, DELETE")
            return 404, self._error("NotFound", f"no route for {path!r}"), {}
        except HttpError as exc:
            return exc.status, self._error("HttpError", exc.message), {}
        except BadJob as exc:
            return 400, self._error("BadJob", str(exc)), {}

    def _method_not_allowed(self, allow: str) -> tuple[int, dict, dict]:
        return (
            405,
            self._error("MethodNotAllowed", f"allowed: {allow}"),
            {"Allow": allow},
        )

    def _wrap(self, payload: dict) -> dict:
        return {"schema_version": SERVE_SCHEMA, **payload}

    def _error(self, err_type: str, message: str) -> dict:
        return self._wrap({"error": {"type": err_type, "message": message}})

    # -- job endpoints ----------------------------------------------------

    async def _submit(
        self, kind: str, request: Request, request_id: str
    ) -> tuple[int, dict, dict]:
        body = self._parse_body(request)
        declared = body.pop("schema_version", SERVE_SCHEMA)
        # `True == 1` and `1.0 == 1`: only the integer itself is version 1
        if not isinstance(declared, int) or isinstance(declared, bool) \
                or declared != SERVE_SCHEMA:
            raise BadJob(
                f"schema_version {declared!r} not supported "
                f"(this server speaks {SERVE_SCHEMA})"
            )
        wait = body.pop("wait", kind != "sweep")
        if not isinstance(wait, bool):
            raise BadJob(f"'wait' must be a boolean, got {wait!r}")
        params = normalize_params(kind, body)
        try:
            job = self.manager.submit(kind, params, request_id)
        except QueueFull as exc:
            return (
                429,
                self._error("QueueFull", str(exc)),
                {"Retry-After": "1"},
            )
        except Draining as exc:
            return 503, self._error("Draining", str(exc)), {}
        if wait:
            await job.done_event.wait()
        if job.finished_state:
            return _status_for(job), self._wrap(job.describe()), {}
        return 202, self._wrap(job.describe()), {}

    def _parse_body(self, request: Request) -> dict:
        if not request.body:
            raise BadJob("request body required")
        try:
            body = json.loads(request.body)
        except ValueError as exc:
            raise HttpError(400, f"malformed JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise BadJob("request body must be a JSON object")
        return body

    def _job_status(self, job_id: str) -> tuple[int, dict, dict]:
        job = self.manager.get(job_id)
        if job is None:
            return 404, self._error("UnknownJob", f"no job {job_id!r}"), {}
        return _status_for(job), self._wrap(job.describe()), {}

    def _job_cancel(self, job_id: str) -> tuple[int, dict, dict]:
        job = self.manager.cancel(job_id)
        if job is None:
            return 404, self._error("UnknownJob", f"no job {job_id!r}"), {}
        return 200, self._wrap(job.describe()), {}

    # -- stats ------------------------------------------------------------

    def stats_snapshot(self) -> dict:
        snapshot = self.metrics.snapshot()
        snapshot["queue"] = {
            "depth": self.manager.queued,
            "limit": self.manager.queue_limit,
            "in_flight": self.manager.running,
            "shards": self.manager.shard_count,
            "workers_started": self.manager.workers_started,
            "draining": self._draining,
        }
        snapshot["jobs_by_state"] = self.manager.job_states()
        if self.store is not None:
            stats = self.store.stats
            snapshot["store"] = {
                "root": str(self.store.root),
                "hits": stats.hits,
                "misses": stats.misses,
                "writes": stats.writes,
                "corrupt_dropped": stats.corrupt_dropped,
                "entries": self.store.entry_count(),
            }
        else:
            snapshot["store"] = None
        return snapshot
