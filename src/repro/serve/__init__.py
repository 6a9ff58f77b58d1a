"""Compile-and-simulate service.

An asyncio HTTP/1.1 JSON server (standard library only) that exposes
the repro pipeline — compile, run (all engine modes), sweep — with
bounded queueing and backpressure, content-keyed request dedup against
the artifact store, and one long-lived worker process per shard with
per-job timeout and cancellation.

Start one with ``repro serve`` or in-process::

    from repro.serve import ReproServer
    server = await ReproServer(port=0, jobs=4).start()
    ...
    await server.drain()

and talk to it with :class:`~repro.serve.client.ServeClient`.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.http import HttpError, Request, encode_response, read_request
from repro.serve.jobs import (
    DEFAULT_MAX_CYCLES,
    BadJob,
    Draining,
    Job,
    JobManager,
    QueueFull,
    compute_job_key,
    execute_job,
    normalize_params,
)
from repro.serve.server import SERVE_SCHEMA, ReproServer
from repro.serve.stats import LatencyReservoir, ServeMetrics
from repro.serve.testing import BackgroundServer

__all__ = [
    "SERVE_SCHEMA",
    "DEFAULT_MAX_CYCLES",
    "BackgroundServer",
    "BadJob",
    "Draining",
    "HttpError",
    "Job",
    "JobManager",
    "LatencyReservoir",
    "QueueFull",
    "ReproServer",
    "Request",
    "ServeClient",
    "ServeError",
    "ServeMetrics",
    "compute_job_key",
    "encode_response",
    "execute_job",
    "normalize_params",
    "read_request",
]
