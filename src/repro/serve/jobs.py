"""Job model, dedup/coalescing, sharded execution for the service.

A **job** is one unit of pipeline work — a compile, a run (any engine
mode), or a sweep — identified by a content key from
:mod:`repro.pipeline.fingerprint`.  The manager gives the service its
three scaling properties:

* **bounded queueing with backpressure** — at most ``queue_limit`` jobs
  wait; a submit past that raises :class:`QueueFull`, which the HTTP
  layer turns into ``429 Retry-After`` *without executing anything*;
* **request dedup** — identical in-flight requests coalesce onto one
  job (same content key ⇒ same result), and finished results are served
  from the content-addressed :class:`~repro.pipeline.store.ArtifactStore`
  across requests *and across the sweep CLI* (a warm sweep cache answers
  ``/v1/run`` and vice versa, because plain run jobs use the exact
  ``task_fingerprint`` key contract);
* **sharded workers** — jobs hash onto ``shards`` asyncio workers by
  content key (key-affine: a hot key never occupies two shards), and
  each shard executes its jobs, one at a time, in **its own long-lived
  worker process**, so CPU-bound compile/simulate work never blocks the
  event loop.  The shard's coroutine writes a job to the worker's pipe
  from a thread (a large job would block the loop until the worker read
  it) and waits, on the loop itself, for the write and then the reply,
  racing a cancel and the job's deadline; a timeout or a cancellation
  is a ``kill()`` of that worker, with no orphaned state.  The shard's
  next job starts a new one, as it does after a worker dies mid-job
  (``WorkerDied``) or is found dead while idle (the job then simply runs
  in the new one).

Because a worker outlives its jobs, what a job leaves in process memory
serves the next one on that shard: the optimised-module memo
(``pipeline.executor._MODULES``, the 64 most recent modules) and the
``lru_cache`` memos (ABI register sets, machine digests).  Native
engine ``.so`` handles loaded by ``native`` runs also stay open for the
worker's lifetime.

Workers are started via the ``forkserver`` method when available
(``spawn`` otherwise); see :func:`_job_context`.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import signal
import time
import traceback

from repro import obs
from repro.pipeline.fingerprint import fingerprint, job_fingerprint
from repro.pipeline.store import ArtifactStore
from repro.pipeline.types import EvalResult
from repro.sim.modes import DEFAULT_MODE, MODES

# job states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TIMEOUT = "timeout"

TERMINAL_STATES = (DONE, FAILED, CANCELLED, TIMEOUT)

#: the body fields each job kind reads; the server takes ``wait`` and
#: ``schema_version`` off first, and any other field is a 400
JOB_FIELDS = {
    "compile": ("machine", "kernel", "source", "optimize", "trace"),
    "run": ("machine", "kernel", "source", "optimize", "trace", "mode",
            "max_cycles", "timeout_s"),
    "sweep": ("machines", "kernels", "mode", "optimize"),
}

#: default simulator cycle budget (mirrors ``run_compiled``)
DEFAULT_MAX_CYCLES = 500_000_000

#: finished jobs retained for ``GET /v1/jobs/<id>`` after completion
MAX_FINISHED_JOBS = 512

#: how long a worker sent the stop message, or seen to die, may take to
#: exit before it is killed (s)
_STOP_S = 5.0


class BadJob(ValueError):
    """Request parameter validation failure (HTTP 400)."""


class QueueFull(Exception):
    """The bounded job queue is at capacity (HTTP 429)."""

    def __init__(self, depth: int, limit: int):
        super().__init__(f"job queue full ({depth}/{limit})")
        self.depth = depth
        self.limit = limit


class Draining(Exception):
    """The server is shutting down and accepts no new work (HTTP 503)."""


# ---------------------------------------------------------------------------
# parameter validation (event-loop side, before anything is queued)
# ---------------------------------------------------------------------------


def normalize_params(kind: str, body: dict) -> dict:
    """Validate and canonicalise one request body into job params.

    Raises :class:`BadJob` with a user-facing message on any problem;
    the result is a plain, picklable dict (the kernel source text is
    resolved here so the content key can hash exactly what will be
    compiled, mirroring :class:`~repro.pipeline.types.SweepTask`).
    """
    if kind not in JOB_FIELDS:
        raise BadJob(f"unknown job kind {kind!r}")
    if not isinstance(body, dict):
        raise BadJob("request body must be a JSON object")
    unknown = [name for name in body if name not in JOB_FIELDS[kind]]
    if unknown:
        raise BadJob(
            f"unknown field{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(map(repr, unknown))} in a {kind} request; "
            f"accepted: {', '.join(JOB_FIELDS[kind])}"
        )
    if kind == "sweep":
        return _normalize_sweep(body)

    from repro.kernels import load
    from repro.machine import preset_names

    machine = body.get("machine")
    if not isinstance(machine, str) or machine not in preset_names():
        raise BadJob(
            f"unknown machine {machine!r}; known: {', '.join(preset_names())}"
        )
    kernel = body.get("kernel")
    source = body.get("source")
    if (kernel is None) == (source is None):
        raise BadJob("exactly one of 'kernel' (builtin or promoted name) or "
                     "'source' (MiniC text) is required")
    if kernel is not None:
        if not isinstance(kernel, str):
            raise BadJob(f"'kernel' must be a string, got {kernel!r}")
        try:
            source = load(kernel)
        except KeyError as exc:
            raise BadJob(str(exc.args[0]) if exc.args else str(exc)) from exc
    elif not isinstance(source, str) or not source.strip():
        raise BadJob("'source' must be non-empty MiniC text")

    params: dict = {
        "machine": machine,
        "kernel": kernel,
        "_source": source,
        "optimize": _bool(body, "optimize", True),
        "trace": _bool(body, "trace", False),
    }
    if kind == "compile":
        return params

    params["mode"] = _mode(body)

    max_cycles = body.get("max_cycles", DEFAULT_MAX_CYCLES)
    if not isinstance(max_cycles, int) or isinstance(max_cycles, bool) or max_cycles < 1:
        raise BadJob(f"'max_cycles' must be a positive integer, got {max_cycles!r}")
    params["max_cycles"] = max_cycles

    timeout_s = body.get("timeout_s")
    if timeout_s is not None:
        # json.loads accepts NaN and Infinity; a NaN deadline never passes
        if not isinstance(timeout_s, (int, float)) or isinstance(timeout_s, bool) \
                or not math.isfinite(timeout_s) or timeout_s <= 0:
            raise BadJob(f"'timeout_s' must be a positive finite number, "
                         f"got {timeout_s!r}")
    params["timeout_s"] = timeout_s
    return params


def _normalize_sweep(body: dict) -> dict:
    from repro.machine import preset_names
    from repro.pipeline import parse_subset
    from repro.pipeline.sweep import resolve_kernel_sources

    mode = _mode(body)
    for name in ("machines", "kernels"):
        if not isinstance(body.get(name, ""), (str, list)):
            raise BadJob(f"'{name}' must be a comma-separated string or a "
                         f"list of names, got {body[name]!r}")
    try:
        machines = parse_subset(body.get("machines"), preset_names(), "machine")
        # default: the paper's built-in matrix; explicit subsets may
        # name extra/promoted kernels (resolved again in the worker)
        kernels, _ = resolve_kernel_sources(body.get("kernels"))
    except ValueError as exc:
        raise BadJob(str(exc)) from exc
    return {
        "machines": list(machines),
        "kernels": list(kernels),
        "mode": mode,
        "optimize": _bool(body, "optimize", True),
        "trace": False,
    }


def _mode(body: dict) -> str:
    mode = body.get("mode", DEFAULT_MODE)
    if mode not in MODES:
        raise BadJob(f"unknown mode {mode!r}; known: {', '.join(MODES)}")
    return mode


def _bool(body: dict, name: str, default: bool) -> bool:
    value = body.get(name, default)
    if not isinstance(value, bool):
        raise BadJob(f"'{name}' must be a boolean, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# content keys
# ---------------------------------------------------------------------------


def plain_run(params: dict) -> bool:
    """Whether normalized run *params* are a bare (machine, source, mode,
    optimize) measurement: untraced, with the default cycle budget.

    A plain run keys, and stores a passing result, exactly like a sweep
    task, so the service and ``repro sweep`` share artifact-store
    entries in both directions.
    """
    return not params["trace"] and params["max_cycles"] == DEFAULT_MAX_CYCLES


def compute_job_key(kind: str, params: dict) -> str:
    """The content key for normalized *params*.

    A :func:`plain_run` keys as its sweep task (:func:`fingerprint`);
    every other run gets a :func:`job_fingerprint` under the same
    toolchain-digest + engine-version contract.  Traced requests key
    separately from untraced ones: a store/in-flight hit on an untraced
    twin could not carry the per-request span payload the caller asked
    for.
    """
    from repro.machine import build_machine

    trace = bool(params.get("trace"))
    if kind == "sweep":
        return job_fingerprint("sweep", {
            "machines": params["machines"],
            "kernels": params["kernels"],
            "mode": params["mode"],
            "optimize": params["optimize"],
        })
    machine = build_machine(params["machine"])
    if kind == "compile":
        fp = fingerprint(
            machine, params["_source"], mode="program",
            optimize=params["optimize"],
        )
        if trace:
            return job_fingerprint("compile", {"fingerprint": fp, "trace": True})
        return fp
    fp = fingerprint(
        machine, params["_source"], mode=params["mode"],
        optimize=params["optimize"],
    )
    if plain_run(params):
        return fp
    return job_fingerprint("run", {
        "fingerprint": fp,
        "max_cycles": params["max_cycles"],
        "trace": trace,
    })


# ---------------------------------------------------------------------------
# job execution (worker-process side; also callable in-process by tests)
# ---------------------------------------------------------------------------


def execute_job(
    kind: str,
    params: dict,
    *,
    store: ArtifactStore | None = None,
    key: str | None = None,
    request_id: str | None = None,
) -> dict:
    """Run one job to completion and return its response payload.

    With ``params['trace']`` the whole execution runs under a fresh
    tracer stamped with *request_id* and the span/counter payload rides
    back in ``payload['trace']`` — per-request tracing through the
    worker process boundary.
    """
    if not params.get("trace"):
        with obs.span(f"serve.job.{kind}", request_id=request_id or ""):
            return _execute(kind, params, store, key)
    ambient = obs.disable()
    tracer = obs.enable(obs.Tracer(process=f"serve-{kind}", request_id=request_id))
    try:
        with tracer.span(f"serve.job.{kind}", request_id=request_id or ""):
            payload = _execute(kind, params, store, key)
    finally:
        obs.disable()
        if ambient is not None:
            obs.enable(ambient)
    payload["trace"] = tracer.to_payload()
    return payload


def _execute(kind, params, store, key) -> dict:
    if kind == "compile":
        return _compile_job(params, store, key)
    if kind == "run":
        return _run_job(params, store, key)
    if kind == "sweep":
        return _sweep_job(params, store)
    raise BadJob(f"unknown job kind {kind!r}")


def _compiled_program(params, store):
    """The job's machine and compiled program, through the shared
    program cache."""
    from repro.machine import build_machine
    from repro.pipeline import compile_cached

    machine = build_machine(params["machine"])
    compiled = compile_cached(
        machine, params["_source"], params.get("kernel") or "request",
        optimize=params["optimize"], store=store, use_cache=store is not None,
    )
    return machine, compiled


def _compile_job(params, store, key) -> dict:
    from repro.machine import encode_machine

    machine, compiled = _compiled_program(params, store)
    encoding = encode_machine(machine)
    summary = {
        "machine": params["machine"],
        "kernel": params.get("kernel") or "adhoc",
        "instruction_count": compiled.instruction_count,
        "instruction_width": encoding.instruction_width,
        "program_bits": compiled.instruction_count * encoding.instruction_width,
        "fingerprint": key,
    }
    payload = {"result": summary}
    if store is not None and key is not None and not params.get("trace"):
        store.store_json(key, payload)
    return payload


def _run_job(params, store, key) -> dict:
    from repro.fpga import synthesize
    from repro.kernels import expected_exit
    from repro.machine import encode_machine
    from repro.pipeline.executor import result_extras
    from repro.sim import run_compiled

    machine, compiled = _compiled_program(params, store)
    result = run_compiled(
        compiled, max_cycles=params["max_cycles"], mode=params["mode"]
    )
    measured = EvalResult(
        machine=params["machine"],
        kernel=params.get("kernel") or "adhoc",
        exit_code=result.exit_code,
        cycles=result.cycles,
        instruction_count=compiled.instruction_count,
        instruction_width=encode_machine(machine).instruction_width,
        fmax_mhz=synthesize(machine).fmax_mhz,
        extras=result_extras(result),
    )
    if store is not None and key is not None and not params.get("trace"):
        kernel = params.get("kernel")
        if plain_run(params) and result.exit_code == (
                0 if kernel is None else expected_exit(kernel)):
            # the exact entry `repro sweep` writes for a run that passes
            # the kernel's self-check: warm either side, serve the other
            store.store_result(key, measured)
        else:
            store.store_json(key, {"result": measured.to_dict()})
    return _run_payload(params, measured)


def _run_payload(params, measured: EvalResult) -> dict:
    """The ``/v1/run`` response body for *measured*.

    The body names the engine the request asked for: fast, turbo and
    native share one stored entry, so the engine whose run filled it is
    neither stored nor reported.
    """
    return {"result": {
        "machine": params["machine"],
        "kernel": params.get("kernel") or "adhoc",
        "mode": params["mode"],
        "exit_code": measured.exit_code,
        "cycles": measured.cycles,
        "instruction_count": measured.instruction_count,
        "instruction_width": measured.instruction_width,
        "fmax_mhz": measured.fmax_mhz,
        "stats": dict(measured.extras),
    }}


def _sweep_job(params, store) -> dict:
    from repro.pipeline import sweep

    outcome = sweep(
        machines=params["machines"],
        kernels=params["kernels"],
        mode=params["mode"],
        optimize=params["optimize"],
        jobs=1,
        store=store,
        use_cache=store is not None,
    )
    return {"result": outcome.to_dict()}


def load_cached_payload(
    kind: str, params: dict, key: str, store: ArtifactStore | None
) -> dict | None:
    """Serve a finished job's payload straight from the artifact store."""
    if store is None or kind == "sweep" or params.get("trace"):
        return None
    if kind != "run":
        return store.load_json(key)
    if plain_run(params):
        res = store.load_result(key)
        if res is not None:
            return _run_payload(params, res)
    entry = store.load_json(key)
    if entry is None:
        return None
    return _run_payload(params, EvalResult.from_dict(entry["result"]))


# ---------------------------------------------------------------------------
# the shard worker process
# ---------------------------------------------------------------------------


def _error_payload(exc: BaseException) -> dict:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }


def _worker_main(conn, store) -> None:
    """One shard's job process: answer each ``(kind, params, key,
    request_id)`` message on *conn* with a ``(status, payload)`` verdict,
    until a ``None`` stop message or the server's end closes.

    *store* is the server's own handle, pickled across once at start: it
    reopens the same root without a second stale-tmp GC (see
    :class:`~repro.pipeline.store.ArtifactStore`).

    A job's exception becomes a structured verdict, so the server maps it
    to a 4xx/5xx JSON body; an exit or interrupt ends the worker, which
    the server reports as ``WorkerDied``.  ``SIGINT`` is ignored: a
    terminal's Ctrl-C reaches the whole process group, and the server,
    which drains on it, decides when a worker stops.
    """
    from repro.frontend import CompileError
    from repro.sim.errors import SimError

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        kind, params, key, request_id = message
        try:
            verdict = ("ok", execute_job(
                kind, params, store=store, key=key, request_id=request_id,
            ))
        except (CompileError, SimError, BadJob, ValueError) as exc:
            # the request's fault (bad program, bad parameters): 4xx
            verdict = ("client_error", _error_payload(exc))
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            verdict = ("error", _error_payload(exc))
        try:
            conn.send(verdict)
        except OSError:  # the server is gone
            return


def _job_context():
    """Start-method context for the shard workers.

    ``forkserver`` (preloading :mod:`repro.serve.forkserver`, so each
    worker starts with the toolchain imported and its digest computed)
    when the platform has it; ``spawn`` otherwise.  Plain ``fork`` is not
    safe where the loop runs off the main thread (``BackgroundServer``,
    embedders), and the fork server keeps a worker start at about 1 ms.
    A worker is started when its shard's first job arrives, not with the
    server, and again only after a timeout, a cancel or its death.
    """
    methods = multiprocessing.get_all_start_methods()
    if "forkserver" in methods:
        ctx = multiprocessing.get_context("forkserver")
        try:
            ctx.set_forkserver_preload(["repro.serve.forkserver"])
        except Exception:  # pragma: no cover - forkserver already running
            pass
        return ctx
    return multiprocessing.get_context("spawn")


# ---------------------------------------------------------------------------
# jobs and the manager
# ---------------------------------------------------------------------------


def live_key(key: str, params: dict) -> tuple:
    """The in-flight dedup key.  Fast, turbo and native share a store
    key, but a coalesced request must still report its own engine, so
    only requests for the same mode share a live job."""
    return key, params.get("mode")


class Job:
    """One queued/running/finished unit of work."""

    def __init__(self, job_id, kind, params, key, timeout_s, request_id):
        self.id = job_id
        self.kind = kind
        self.params = params
        self.key = key
        self.live_key = live_key(key, params)
        self.state = QUEUED
        self.cached = False
        self.result: dict | None = None
        self.error: dict | None = None
        self.request_ids = [request_id]
        self.timeout_s = timeout_s
        self.created = time.monotonic()
        self.started: float | None = None
        self.finished: float | None = None
        self.done_event = asyncio.Event()
        #: set by a cancel of the running job; its shard then kills the worker
        self.cancel_event = asyncio.Event()

    @property
    def finished_state(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def wall_s(self) -> float | None:
        if self.started is None or self.finished is None:
            return None
        return self.finished - self.started

    def describe(self) -> dict:
        """The public ``GET /v1/jobs/<id>`` body (sans schema wrapper)."""
        out: dict = {
            "job_id": self.id,
            "kind": self.kind,
            "state": self.state,
            "cached": self.cached,
            "coalesced_requests": len(self.request_ids) - 1,
            "request_ids": list(self.request_ids),
            "cancel_requested": self.cancel_event.is_set(),
        }
        if self.started is not None:
            out["queued_ms"] = round((self.started - self.created) * 1e3, 3)
        if self.wall_s is not None:
            out["run_ms"] = round(self.wall_s * 1e3, 3)
        if self.result is not None:
            out.update(self.result)
        if self.error is not None:
            out["error"] = self.error
        return out


class JobManager:
    """Bounded queue + dedup map + one worker process per shard.

    Everything but a worker's start and the pipe writes to it runs on
    the event-loop thread.  All public methods except
    :meth:`drain` are synchronous, so submit/cancel are atomic with
    respect to the shard coroutines (no awaits inside).
    """

    def __init__(
        self,
        *,
        shards: int = 2,
        queue_limit: int = 64,
        job_timeout: float = 300.0,
        store: ArtifactStore | None = None,
        metrics=None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if job_timeout <= 0:
            raise ValueError(f"job_timeout must be positive, got {job_timeout}")
        self.shard_count = shards
        self.queue_limit = queue_limit
        self.job_timeout = job_timeout
        self.store = store
        self.metrics = metrics
        self._queues: list[asyncio.Queue] = []
        self._workers: list[asyncio.Task] = []
        self._ctx = _job_context()
        #: each shard's worker as ``(process, connection)``, or ``None``
        #: until its next job starts one
        self._shard_procs: list[tuple | None] = [None] * shards
        #: worker processes started so far (``/v1/stats`` ``queue``)
        self.workers_started = 0
        self._jobs: dict[str, Job] = {}
        self._finished_order: list[str] = []
        self._inflight: dict[tuple, Job] = {}
        self._queued = 0
        self._running = 0
        self._next_id = 0
        self._draining = False

    # -- introspection ----------------------------------------------------

    @property
    def queued(self) -> int:
        return self._queued

    @property
    def running(self) -> int:
        return self._running

    @property
    def draining(self) -> bool:
        return self._draining

    def job_states(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def shard_of(self, key: str) -> int:
        """The shard, and so the worker process, that runs *key*'s jobs."""
        return int(key[:8], 16) % self.shard_count

    def active_process_count(self) -> int:
        return sum(1 for worker in self._shard_procs
                   if worker is not None and worker[0].is_alive())

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self._queues = [asyncio.Queue() for _ in range(self.shard_count)]
        self._workers = [
            asyncio.ensure_future(self._shard_worker(i))
            for i in range(self.shard_count)
        ]

    async def drain(self, timeout: float = 30.0) -> dict:
        """Stop accepting work, let queued+running jobs finish, reap
        stragglers.  Returns ``{"completed", "terminated"}`` counts for
        the drain window."""
        self._draining = True
        before_completed = (self.metrics.jobs_completed + self.metrics.jobs_failed
                            if self.metrics else 0)
        for queue in self._queues:
            queue.put_nowait(None)  # sentinel behind any queued jobs
        done, pending = await asyncio.wait(
            self._workers, timeout=timeout
        ) if self._workers else (set(), set())
        terminated = 0
        if pending:
            # past the grace window: cancel whatever is still running;
            # the shard coroutines kill those workers
            for job in tuple(self._inflight.values()):
                if job.state == RUNNING:
                    job.cancel_event.set()
                    terminated += 1
            await asyncio.wait(pending, timeout=10.0)
            for task in pending:
                task.cancel()
            await asyncio.wait(pending)
        for shard, worker in enumerate(self._shard_procs):
            if worker is not None:
                try:
                    worker[1].send(None)
                except OSError:  # already dead
                    pass
                self._reap(shard)
        completed = ((self.metrics.jobs_completed + self.metrics.jobs_failed
                      if self.metrics else 0) - before_completed)
        return {"completed": completed, "terminated": terminated}

    # -- submission (sync, event-loop thread) -----------------------------

    def submit(self, kind: str, params: dict, request_id: str) -> Job:
        """Dedup, cache-check, enqueue.  Raises :class:`QueueFull` /
        :class:`Draining`; returns the (possibly shared or already
        finished) job."""
        key = compute_job_key(kind, params)
        live = self._inflight.get(live_key(key, params))
        if live is not None:
            live.request_ids.append(request_id)
            if self.metrics:
                self.metrics.coalesced += 1
            obs.count("serve.coalesced")
            return live
        cached = load_cached_payload(kind, params, key, self.store)
        if cached is not None:
            job = self._new_job(kind, params, key, request_id)
            self._register(job)
            self._finish_cached(job, cached)
            return job
        if self._draining:
            raise Draining("server is draining")
        if self._queued >= self.queue_limit:
            raise QueueFull(self._queued, self.queue_limit)
        job = self._new_job(kind, params, key, request_id)
        self._register(job)
        self._inflight[job.live_key] = job
        self._queued += 1
        self._queues[self.shard_of(key)].put_nowait(job)
        obs.count("serve.submitted")
        return job

    def cancel(self, job_id: str) -> Job | None:
        """Cancel a queued job immediately; flag a running one (its shard
        kills the worker at once)."""
        job = self._jobs.get(job_id)
        if job is None:
            return None
        if job.state == QUEUED:
            self._queued -= 1
            self._inflight.pop(job.live_key, None)
            self._finish(job, CANCELLED, None, {"type": "Cancelled",
                                                "message": "cancelled while queued"})
        elif job.state == RUNNING:
            job.cancel_event.set()
        return job

    # -- internals --------------------------------------------------------

    def _new_job(self, kind, params, key, request_id) -> Job:
        self._next_id += 1
        timeout_s = params.get("timeout_s") or self.job_timeout
        timeout_s = min(timeout_s, self.job_timeout)
        return Job(f"j{self._next_id:06d}", kind, params, key, timeout_s,
                   request_id)

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        while len(self._finished_order) > MAX_FINISHED_JOBS:
            oldest = self._finished_order.pop(0)
            self._jobs.pop(oldest, None)

    def _retire(self, job: Job) -> None:
        self._finished_order.append(job.id)

    def _finish_cached(self, job: Job, payload: dict) -> None:
        """Finish *job* as a store hit, without running anything."""
        job.state = DONE
        job.cached = True
        job.result = payload
        job.started = job.finished = time.monotonic()
        job.done_event.set()
        self._retire(job)
        if self.metrics:
            self.metrics.cache_hits += 1
        obs.count("serve.cache_hits")

    def _finish(self, job: Job, state: str, result: dict | None,
                error: dict | None) -> None:
        job.state = state
        job.result = result
        job.error = error
        job.finished = time.monotonic()
        job.done_event.set()
        self._retire(job)
        if self.metrics:
            self.metrics.record_job(state, job.wall_s)
        obs.count(f"serve.jobs.{state}")

    async def _shard_worker(self, index: int) -> None:
        queue = self._queues[index]
        while True:
            job = await queue.get()
            if job is None:
                return  # drain sentinel
            if job.state != QUEUED:  # cancelled while waiting
                continue
            # a job queued behind another of the same result key (say, fast
            # then turbo) finds the result that one stored
            cached = load_cached_payload(job.kind, job.params, job.key, self.store)
            if cached is not None:
                self._queued -= 1
                self._inflight.pop(job.live_key, None)
                self._finish_cached(job, cached)
                continue
            job.state = RUNNING
            job.started = time.monotonic()
            self._queued -= 1
            self._running += 1
            if self.metrics:
                self.metrics.executed += 1
            obs.count("serve.executed")
            try:
                status, payload = await self._run_in_worker(index, job)
            except Exception as exc:  # noqa: BLE001 - the shard keeps serving
                if self._shard_procs[index] is not None:  # it may hold the job
                    self._reap(index, grace=0)
                status, payload = "error", _error_payload(exc)
            finally:
                self._running -= 1
            self._inflight.pop(job.live_key, None)
            if status == "ok":
                self._finish(job, DONE, payload, None)
            elif status in (CANCELLED, TIMEOUT):
                self._finish(job, status, None, payload)
            else:  # "error" / "client_error"
                payload = dict(payload)
                payload["client_error"] = status == "client_error"
                self._finish(job, FAILED, None, payload)

    async def _run_in_worker(self, shard: int, job: Job) -> tuple[str, dict]:
        """Run *job* in *shard*'s worker process and return its verdict.

        A cancel or a timeout kills the worker; the shard's next job starts
        a new one, as it does after a worker death.
        """
        loop = asyncio.get_running_loop()
        message = (job.kind, job.params, job.key, job.request_ids[0])
        deadline = loop.time() + job.timeout_s
        while True:
            stop = await self._send(shard, message, job.cancel_event, deadline)
            if stop is None:
                proc, conn = self._shard_procs[shard]
                stop = await _wait_reply(conn, job.cancel_event, deadline)
            if stop is not None:
                self._reap(shard, grace=0)
                if stop == CANCELLED:
                    return stop, {"type": "Cancelled",
                                  "message": "cancelled while running"}
                return stop, {"type": "JobTimeout", "message":
                              f"job exceeded its {job.timeout_s:g}s timeout"}
            try:
                return conn.recv()
            except ConnectionResetError:
                # the worker died with the job unread, so the job never
                # ran: hand it to a new worker, under the same deadline
                self._reap(shard)
            except (EOFError, OSError):
                self._reap(shard)
                return "error", {
                    "type": "WorkerDied",
                    "message": f"worker exited with code {proc.exitcode}",
                    "traceback": "",
                }

    async def _send(self, shard: int, message: tuple, cancel: asyncio.Event,
                    deadline: float) -> str | None:
        """Hand *message* to *shard*'s worker, starting one if the shard
        has none; ``None`` once sent, or the stop (see :func:`_send_to`)
        that came first.  An idle worker found dead never ran the job: it
        is replaced, and the job goes to the new one."""
        if self._shard_procs[shard] is not None:
            try:
                return await _send_to(self._shard_procs[shard], message,
                                      cancel, deadline)
            except OSError:  # died while idle
                self._reap(shard)
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn, self.store),
            name=f"serve-shard-{shard}", daemon=True,
        )
        # off the loop: the fork server's first start takes ~0.1-0.3 s
        await asyncio.to_thread(proc.start)
        child_conn.close()
        self._shard_procs[shard] = (proc, parent_conn)
        self.workers_started += 1
        obs.count("serve.workers_started")
        return await _send_to(self._shard_procs[shard], message, cancel, deadline)

    def _reap(self, shard: int, grace: float = _STOP_S) -> None:
        """Free *shard*'s slot, giving its worker *grace* seconds to exit
        before it is killed."""
        proc, conn = self._shard_procs[shard]
        self._shard_procs[shard] = None
        proc.join(grace)
        if proc.is_alive():
            proc.kill()
            proc.join(_STOP_S)
        conn.close()


async def _race(waiter, cancel: asyncio.Event, deadline: float) -> str | None:
    """Wait on the loop until the future *waiter* is done (``None``),
    *cancel* is set (:data:`CANCELLED`) or the loop clock passes
    *deadline* (:data:`TIMEOUT`)."""
    loop = asyncio.get_running_loop()
    cancelled = asyncio.ensure_future(cancel.wait())
    try:
        await asyncio.wait([waiter, cancelled], timeout=deadline - loop.time(),
                           return_when=asyncio.FIRST_COMPLETED)
    finally:
        cancelled.cancel()
    if waiter.done():
        return None
    return CANCELLED if cancel.is_set() else TIMEOUT


async def _send_to(worker: tuple, message: tuple, cancel: asyncio.Event,
                   deadline: float) -> str | None:
    """Write *message* to the ``(process, connection)`` *worker* from a
    thread, racing *cancel* and *deadline* (see :func:`_race`): a message
    larger than the pipe's buffer blocks its writer until the worker
    reads, and a stopped worker never does.  On a stop the worker is
    killed, which fails the blocked write, and the thread is joined
    before the stop is returned.  Raises ``OSError`` if the worker is
    dead."""
    proc, conn = worker
    sending = asyncio.ensure_future(asyncio.to_thread(conn.send, message))
    stop = await _race(sending, cancel, deadline)
    if stop is not None:
        proc.kill()
        await asyncio.wait([sending])
    exc = sending.exception()
    if exc is not None:
        # the failed write's frames hold the pickled message's buffer,
        # which a reference cycle through this frame would otherwise
        # keep until the collector frees it in an arbitrary order
        traceback.clear_frames(exc.__traceback__)
        if stop is None:
            raise exc
    return stop


async def _wait_reply(conn, cancel: asyncio.Event, deadline: float) -> str | None:
    """Wait on the loop until *conn* is readable (``None``), or the
    stop that came first (see :func:`_race`)."""
    loop = asyncio.get_running_loop()
    readable = asyncio.Event()
    fd = conn.fileno()
    loop.add_reader(fd, readable.set)
    waiter = asyncio.ensure_future(readable.wait())
    try:
        stop = await _race(waiter, cancel, deadline)
    finally:
        loop.remove_reader(fd)
        waiter.cancel()
    return None if readable.is_set() else stop
