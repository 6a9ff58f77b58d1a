"""Job model, dedup/coalescing, sharded execution for the service.

A **job** is one unit of pipeline work — a compile, a run (any engine
mode, optionally over several lanes of per-lane inputs), or a sweep —
identified by a content key from :mod:`repro.pipeline.fingerprint`.  The
manager gives the service its three scaling properties:

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
  each worker executes its job in a **dedicated child process** so
  CPU-bound compile/simulate work never blocks the event loop and both
  timeout and cancellation are a clean ``terminate()`` with no orphaned
  state.

Child processes are started via the ``forkserver`` method when
available (``spawn`` otherwise): the server's event loop runs threads,
and forking a multi-threaded process is unsound; the fork server gives
fork-cheap children without that hazard.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

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

JOB_KINDS = ("compile", "run", "sweep")

#: default simulator cycle budget (mirrors ``run_compiled``)
DEFAULT_MAX_CYCLES = 500_000_000

#: finished jobs retained for ``GET /v1/jobs/<id>`` after completion
MAX_FINISHED_JOBS = 512

#: child poll interval while waiting for completion/cancel/timeout (s)
_POLL_S = 0.05


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
    if kind not in JOB_KINDS:
        raise BadJob(f"unknown job kind {kind!r}")
    if not isinstance(body, dict):
        raise BadJob("request body must be a JSON object")
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

    mode = body.get("mode", DEFAULT_MODE)
    if mode not in MODES:
        raise BadJob(f"unknown mode {mode!r}; known: {', '.join(MODES)}")
    params["mode"] = mode

    max_cycles = body.get("max_cycles", DEFAULT_MAX_CYCLES)
    if not isinstance(max_cycles, int) or isinstance(max_cycles, bool) or max_cycles < 1:
        raise BadJob(f"'max_cycles' must be a positive integer, got {max_cycles!r}")
    params["max_cycles"] = max_cycles

    timeout_s = body.get("timeout_s")
    if timeout_s is not None:
        if not isinstance(timeout_s, (int, float)) or isinstance(timeout_s, bool) \
                or timeout_s <= 0:
            raise BadJob(f"'timeout_s' must be a positive number, got {timeout_s!r}")
    params["timeout_s"] = timeout_s

    lanes = body.get("lanes")
    inputs = body.get("inputs")
    if lanes is not None:
        if not isinstance(lanes, int) or isinstance(lanes, bool) or lanes < 1:
            raise BadJob(f"'lanes' must be a positive integer, got {lanes!r}")
    if inputs is not None:
        inputs = _normalize_inputs(inputs)
        if lanes is not None and lanes != len(inputs):
            raise BadJob(
                f"'lanes' ({lanes}) disagrees with len(inputs) ({len(inputs)})"
            )
    params["lanes"] = lanes
    params["inputs"] = inputs
    return params


def _normalize_sweep(body: dict) -> dict:
    from repro.machine import preset_names
    from repro.pipeline import parse_subset
    from repro.pipeline.sweep import resolve_kernel_sources

    mode = body.get("mode", DEFAULT_MODE)
    if mode not in MODES:
        raise BadJob(f"unknown mode {mode!r}; known: {', '.join(MODES)}")
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


def _bool(body: dict, name: str, default: bool) -> bool:
    value = body.get(name, default)
    if not isinstance(value, bool):
        raise BadJob(f"'{name}' must be a boolean, got {value!r}")
    return value


def _normalize_inputs(inputs) -> list:
    """Per-lane preloads as ``[[ [address, hex-data], ... ], ...]``."""
    if not isinstance(inputs, list) or not inputs:
        raise BadJob("'inputs' must be a non-empty list of lanes")
    normalized = []
    for lane_no, lane in enumerate(inputs):
        if not isinstance(lane, list):
            raise BadJob(f"lane {lane_no} must be a list of [address, hex] pairs")
        entries = []
        for entry in lane:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not isinstance(entry[0], int) or isinstance(entry[0], bool)
                    or entry[0] < 0 or not isinstance(entry[1], str)):
                raise BadJob(
                    f"lane {lane_no}: each preload must be [address>=0, hex-string]"
                )
            try:
                bytes.fromhex(entry[1])
            except ValueError as exc:
                raise BadJob(
                    f"lane {lane_no}: bad hex data {entry[1]!r}"
                ) from exc
            entries.append([entry[0], entry[1].lower()])
        normalized.append(entries)
    return normalized


# ---------------------------------------------------------------------------
# content keys
# ---------------------------------------------------------------------------


def compute_job_key(kind: str, params: dict) -> tuple[str, bool]:
    """``(key, plain)`` for normalized *params*.

    *plain* run jobs — a bare (machine, source, mode, optimize)
    measurement with default cycle budget and at most one pristine lane
    — key exactly like sweep tasks (:func:`fingerprint`), so the service
    and ``repro sweep`` share artifact-store entries in both directions.
    Everything else gets a :func:`job_fingerprint` under the same
    toolchain-digest + engine-version contract.

    Traced requests key separately from untraced ones (and are never
    *plain*): a store/in-flight hit on an untraced twin could not carry
    the per-request span payload the caller asked for.
    """
    from repro.machine import build_machine

    trace = bool(params.get("trace"))
    if kind == "sweep":
        return job_fingerprint("sweep", {
            "machines": params["machines"],
            "kernels": params["kernels"],
            "mode": params["mode"],
            "optimize": params["optimize"],
        }), False
    machine = build_machine(params["machine"])
    if kind == "compile":
        fp = fingerprint(
            machine, params["_source"], mode="program",
            optimize=params["optimize"],
        )
        if trace:
            return job_fingerprint("compile", {"fingerprint": fp,
                                               "trace": True}), False
        return fp, False
    fp = fingerprint(
        machine, params["_source"], mode=params["mode"],
        optimize=params["optimize"],
    )
    plain = (
        not trace
        and params["inputs"] is None
        and params["lanes"] in (None, 1)
        and params["max_cycles"] == DEFAULT_MAX_CYCLES
    )
    if plain:
        return fp, True
    return job_fingerprint("run", {
        "fingerprint": fp,
        "lanes": params["lanes"],
        "inputs": params["inputs"],
        "max_cycles": params["max_cycles"],
        "trace": trace,
    }), False


# ---------------------------------------------------------------------------
# job execution (child-process side; also callable in-process by tests)
# ---------------------------------------------------------------------------


def execute_job(
    kind: str,
    params: dict,
    *,
    store: ArtifactStore | None = None,
    key: str | None = None,
    plain: bool = False,
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
            return _execute(kind, params, store, key, plain, request_id)
    ambient = obs.disable()
    tracer = obs.enable(obs.Tracer(process=f"serve-{kind}", request_id=request_id))
    try:
        with tracer.span(f"serve.job.{kind}", request_id=request_id or ""):
            payload = _execute(kind, params, store, key, plain, request_id)
    finally:
        obs.disable()
        if ambient is not None:
            obs.enable(ambient)
    payload["trace"] = tracer.to_payload()
    return payload


def _execute(kind, params, store, key, plain, request_id) -> dict:
    if kind == "compile":
        return _compile_job(params, store, key)
    if kind == "run":
        return _run_job(params, store, key, plain)
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


def _run_job(params, store, key, plain) -> dict:
    from repro.fpga import synthesize
    from repro.kernels import expected_exit
    from repro.machine import encode_machine
    from repro.pipeline.executor import result_extras
    from repro.sim import run_batch

    machine, compiled = _compiled_program(params, store)
    inputs = params["inputs"]
    if inputs is not None:
        inputs = [
            [(address, bytes.fromhex(data)) for address, data in lane]
            for lane in inputs
        ]
    results = run_batch(
        compiled, lanes=params["lanes"], inputs=inputs, mode=params["mode"],
        max_cycles=params["max_cycles"],
    )
    first = results[0]
    measured = EvalResult(
        machine=params["machine"],
        kernel=params.get("kernel") or "adhoc",
        exit_code=first.exit_code,
        cycles=first.cycles,
        instruction_count=compiled.instruction_count,
        instruction_width=encode_machine(machine).instruction_width,
        fmax_mhz=synthesize(machine).fmax_mhz,
        extras=result_extras(first),
    )
    lanes = None
    if len(results) > 1:
        lanes = [
            {"exit_code": r.exit_code, "cycles": r.cycles, "stats": result_extras(r)}
            for r in results
        ]
    if store is not None and key is not None and not params.get("trace"):
        kernel = params.get("kernel")
        if plain and first.exit_code == (0 if kernel is None else expected_exit(kernel)):
            # the exact entry `repro sweep` writes for a run that passes
            # the kernel's self-check: warm either side, serve the other
            store.store_result(key, measured)
        else:
            store.store_json(key, {"result": measured.to_dict(), "results": lanes})
    return _run_payload(params, measured, lanes)


def _run_payload(params, measured: EvalResult, lanes: list | None) -> dict:
    """The ``/v1/run`` response body for *measured*, plus the per-lane
    stats of a several-lane run.

    The body names the engine the request asked for: fast, turbo and
    native share one stored entry, so the engine whose run filled it is
    neither stored nor reported.
    """
    payload = {"result": {
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
    if lanes is not None:
        payload["results"] = lanes
    return payload


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
    kind: str, params: dict, key: str, plain: bool, store: ArtifactStore | None
) -> dict | None:
    """Serve a finished job's payload straight from the artifact store."""
    if store is None or kind == "sweep" or params.get("trace"):
        return None
    if kind != "run":
        return store.load_json(key)
    if plain:
        res = store.load_result(key)
        if res is not None:
            return _run_payload(params, res, None)
    entry = store.load_json(key)
    if entry is None:
        return None
    return _run_payload(params, EvalResult.from_dict(entry["result"]), entry["results"])


# ---------------------------------------------------------------------------
# the child process entry point
# ---------------------------------------------------------------------------


def _error_payload(exc: BaseException) -> dict:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }


def _child_main(conn, kind, params, store, key, plain, request_id) -> None:
    """Execute one job and ship ``(status, payload)`` through *conn*.

    *store* is the server's own handle, pickled across: it reopens the
    same root without a second stale-tmp GC (see
    :class:`~repro.pipeline.store.ArtifactStore`).

    Never raises: every failure becomes a structured verdict so the
    parent can map it to a 4xx/5xx JSON body instead of hanging on a
    silent child death.
    """
    from repro.frontend import CompileError
    from repro.sim.errors import SimError

    status, payload = "error", {}
    try:
        payload = execute_job(
            kind, params, store=store, key=key, plain=plain,
            request_id=request_id,
        )
        status = "ok"
    except (CompileError, SimError, BadJob, ValueError) as exc:
        # the request's fault (bad program, bad parameters): 4xx
        status, payload = "client_error", _error_payload(exc)
    except BaseException as exc:  # noqa: BLE001 - isolation is the point
        status, payload = "error", _error_payload(exc)
    try:
        conn.send((status, payload))
    except Exception:  # parent gone (cancelled/timed out): nothing to do
        pass
    finally:
        conn.close()


def _job_context():
    """Start-method context for job children.

    ``forkserver`` (preloading :mod:`repro.serve.forkserver`, so children
    inherit a warm toolchain import and toolchain digest) when the
    platform has it; ``spawn`` otherwise.  Plain ``fork`` is not safe
    here: the server process runs an event loop plus worker threads.
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


class Job:
    """One queued/running/finished unit of work."""

    def __init__(self, job_id, kind, params, key, plain, timeout_s, request_id):
        self.id = job_id
        self.kind = kind
        self.params = params
        self.key = key
        self.plain = plain
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
        self.cancel_event = None  # threading.Event, set lazily at run time
        self.cancel_requested = False

    @property
    def live_key(self) -> tuple:
        """The in-flight dedup key.  Fast, turbo and native share a store
        key, but a coalesced request must still report its own engine,
        so only requests for the same mode share a live job."""
        return self.key, self.params.get("mode")

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
            "cancel_requested": self.cancel_requested,
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
    """Bounded queue + dedup map + sharded child-process execution.

    All public methods except :meth:`drain` are synchronous and must be
    called from the event-loop thread; submit/cancel are therefore
    atomic with respect to the shard workers (no awaits inside).
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
        self._threads = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="serve-job"
        )
        self._ctx = _job_context()
        self._jobs: dict[str, Job] = {}
        self._finished_order: list[str] = []
        self._inflight: dict[tuple, Job] = {}
        self._active_procs: set = set()
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

    def active_process_count(self) -> int:
        return sum(1 for proc in tuple(self._active_procs) if proc.is_alive())

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
            # past the grace window: request cancellation of whatever is
            # still running; the poll loops terminate the children
            for job in tuple(self._inflight.values()):
                if job.state == RUNNING:
                    self._request_cancel(job)
                    terminated += 1
            await asyncio.wait(pending, timeout=10.0)
            for task in pending:
                task.cancel()
        self._threads.shutdown(wait=True)
        for proc in tuple(self._active_procs):
            if proc.is_alive():  # pragma: no cover - belt and braces
                proc.kill()
                proc.join(timeout=5)
            self._active_procs.discard(proc)
        completed = ((self.metrics.jobs_completed + self.metrics.jobs_failed
                      if self.metrics else 0) - before_completed)
        return {"completed": completed, "terminated": terminated}

    # -- submission (sync, event-loop thread) -----------------------------

    def submit(self, kind: str, params: dict, request_id: str) -> Job:
        """Dedup, cache-check, enqueue.  Raises :class:`QueueFull` /
        :class:`Draining`; returns the (possibly shared or already
        finished) job."""
        key, plain = compute_job_key(kind, params)
        live = self._inflight.get((key, params.get("mode")))
        if live is not None:
            live.request_ids.append(request_id)
            if self.metrics:
                self.metrics.coalesced += 1
            obs.count("serve.coalesced")
            return live
        cached = load_cached_payload(kind, params, key, plain, self.store)
        if cached is not None:
            job = self._new_job(kind, params, key, plain, request_id)
            self._register(job)
            self._finish_cached(job, cached)
            return job
        if self._draining:
            raise Draining("server is draining")
        if self._queued >= self.queue_limit:
            raise QueueFull(self._queued, self.queue_limit)
        job = self._new_job(kind, params, key, plain, request_id)
        self._register(job)
        self._inflight[job.live_key] = job
        self._queued += 1
        shard = int(key[:8], 16) % self.shard_count
        self._queues[shard].put_nowait(job)
        obs.count("serve.submitted")
        return job

    def cancel(self, job_id: str) -> Job | None:
        """Cancel a queued job immediately; flag a running one (its poll
        loop terminates the child within ~``_POLL_S``)."""
        job = self._jobs.get(job_id)
        if job is None:
            return None
        if job.state == QUEUED:
            self._queued -= 1
            self._inflight.pop(job.live_key, None)
            self._finish(job, CANCELLED, None, {"type": "Cancelled",
                                                "message": "cancelled while queued"})
        elif job.state == RUNNING:
            self._request_cancel(job)
        return job

    # -- internals --------------------------------------------------------

    def _new_job(self, kind, params, key, plain, request_id) -> Job:
        self._next_id += 1
        timeout_s = params.get("timeout_s") or self.job_timeout
        timeout_s = min(timeout_s, self.job_timeout)
        return Job(f"j{self._next_id:06d}", kind, params, key, plain,
                   timeout_s, request_id)

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        while len(self._finished_order) > MAX_FINISHED_JOBS:
            oldest = self._finished_order.pop(0)
            self._jobs.pop(oldest, None)

    def _retire(self, job: Job) -> None:
        self._finished_order.append(job.id)

    def _request_cancel(self, job: Job) -> None:
        job.cancel_requested = True
        if job.cancel_event is not None:
            job.cancel_event.set()

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
        import threading

        loop = asyncio.get_running_loop()
        queue = self._queues[index]
        while True:
            job = await queue.get()
            if job is None:
                return  # drain sentinel
            if job.state != QUEUED:  # cancelled while waiting
                continue
            # a job queued behind another of the same result key (say, fast
            # then turbo) finds the result that one stored
            cached = load_cached_payload(job.kind, job.params, job.key, job.plain, self.store)
            if cached is not None:
                self._queued -= 1
                self._inflight.pop(job.live_key, None)
                self._finish_cached(job, cached)
                continue
            job.state = RUNNING
            job.started = time.monotonic()
            job.cancel_event = threading.Event()
            if job.cancel_requested:  # raced with cancel()
                job.cancel_event.set()
            self._queued -= 1
            self._running += 1
            if self.metrics:
                self.metrics.executed += 1
            obs.count("serve.executed")
            try:
                status, payload = await loop.run_in_executor(
                    self._threads, self._run_in_child, job
                )
            except Exception as exc:  # pragma: no cover - defensive
                status, payload = "error", _error_payload(exc)
            finally:
                self._running -= 1
            self._inflight.pop(job.live_key, None)
            if status == "ok":
                self._finish(job, DONE, payload, None)
            elif status == "cancelled":
                self._finish(job, CANCELLED, None,
                             {"type": "Cancelled",
                              "message": "cancelled while running"})
            elif status == "timeout":
                self._finish(job, TIMEOUT, None,
                             {"type": "JobTimeout",
                              "message": f"job exceeded its "
                                         f"{job.timeout_s:g}s timeout"})
            else:  # "error" / "client_error"
                payload = dict(payload)
                payload["client_error"] = status == "client_error"
                self._finish(job, FAILED, None, payload)

    def _run_in_child(self, job: Job) -> tuple[str, dict]:
        """Thread-side: run *job* in a dedicated child process, policing
        its timeout and cancellation by polling; the child is terminated
        (then killed) the moment either trips."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_child_main,
            args=(child_conn, job.kind, job.params, self.store, job.key,
                  job.plain, job.request_ids[0]),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._active_procs.add(proc)
        deadline = time.monotonic() + job.timeout_s
        verdict: tuple[str, dict] | None = None
        try:
            while verdict is None:
                if parent_conn.poll(_POLL_S):
                    try:
                        verdict = parent_conn.recv()
                    except EOFError:
                        verdict = ("error", {
                            "type": "WorkerDied",
                            "message": f"worker exited with code {proc.exitcode}",
                            "traceback": "",
                        })
                elif not proc.is_alive():
                    # one last poll: the child may have sent and exited
                    # between our poll() and is_alive() checks
                    if parent_conn.poll(0):
                        continue
                    verdict = ("error", {
                        "type": "WorkerDied",
                        "message": f"worker exited with code {proc.exitcode}",
                        "traceback": "",
                    })
                elif job.cancel_event.is_set():
                    verdict = ("cancelled", {})
                elif time.monotonic() > deadline:
                    verdict = ("timeout", {})
            if verdict[0] in ("cancelled", "timeout"):
                proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=5.0)
        finally:
            parent_conn.close()
            self._active_procs.discard(proc)
        return verdict
