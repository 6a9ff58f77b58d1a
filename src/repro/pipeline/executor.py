"""Task execution: the measurement worker and the (optionally parallel)
fan-out engine.

``execute_task`` is the single source of truth for how one (machine,
kernel) pair is measured — the serial path, the multiprocessing pool and
the legacy ``repro.eval.runner`` wrapper all go through it, which is
what makes "parallel results are byte-identical to serial results" a
structural property rather than a test-enforced one.

``run_tasks`` fans a task list out over a ``multiprocessing`` pool.  It
is *worker-generic*: any module-level callable taking one task and
returning a picklable outcome can ride the same machinery (the fuzzing
subsystem fans its differential cases out through it with
``worker=execute_fuzz_task``).  Tasks only need ``machine`` and
``kernel`` attributes for failure attribution.  The pool gives:

* **per-task failure isolation** — a raising pair becomes a
  :class:`~repro.pipeline.types.TaskError` carrying the full traceback;
  every other pair still completes;
* **bounded retries** — failed tasks are resubmitted up to *retries*
  times (guards against transient faults, e.g. an OOM-killed worker);
* **deterministic ordering** — completion order never leaks out; the
  caller receives outcomes in task-list order.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
import traceback
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro import obs
from repro.pipeline.types import EvalResult, SweepTask, TaskError
from repro.sim.counters import STAT_FIELDS

#: callback signature: (done_count, total, task, outcome)
ProgressFn = Callable[[int, int, SweepTask, "EvalResult | TaskError"], None]

#: worker signature: one task in, one picklable outcome out (raises on failure)
WorkerFn = Callable[[SweepTask], object]


@dataclass(frozen=True)
class TracedOutcome:
    """One task's result plus the tracer payload the worker recorded.

    ``run_tasks(..., trace=True)`` yields these instead of bare
    outcomes; the payload crosses the process boundary as a plain dict
    (JSON/pickle-safe) alongside the outcome it explains.  ``wall_ms``
    is the wall-clock time of the final attempt (queue/pool overhead
    excluded), so latency consumers — the service's ``/v1/stats``
    percentiles — need no side channel.
    """

    outcome: object
    trace: dict | None
    wall_ms: float | None = None


#: optimised modules built or loaded in this process, least recently
#: used first, keyed by (source, name, optimize)
_MODULES: OrderedDict[tuple[str, str, bool], object] = OrderedDict()
_MODULES_MAX = 64


def _front_half(source: str, name: str, optimize: bool):
    # looked up at call time, so a wrapper installed on
    # ``repro.frontend.compile_source`` sees every front-half run
    from repro.frontend import compile_source

    return compile_source(source, module_name=name, optimize=optimize)


def _stored_front_half(store, source: str, name: str, optimize: bool):
    """The module from *store*'s module entry, or built and written there."""
    from repro.pipeline.fingerprint import module_fingerprint

    key = module_fingerprint(source, name, optimize)
    module = store.load_module(key)
    if module is not None:
        obs.count("frontend.module_store_hit")
        return module
    obs.count("frontend.module_store_miss")
    module = _front_half(source, name, optimize)
    store.store_module(key, module)
    return module


def optimized_module(source: str, name: str, optimize: bool = True, *, store=None):
    """The IR module of *source*, parsed, lowered to IR and (if asked)
    optimised once per process per (source, name, optimize).

    None of that work depends on the machine, and ``compile_for_machine``
    never modifies its input, so the returned module is shared by every
    caller and must be treated as read-only.  A reuse is counted as
    ``frontend.module_reuse``; only the first compile of each key shows
    ``frontend.*`` and ``ir.optimize`` spans.

    With an :class:`~repro.pipeline.store.ArtifactStore` *store*, a key
    this process has not seen yet is loaded from the store's module
    entry (``frontend.module_store_hit``) or built and written there
    (``frontend.module_store_miss``), so another process compiling the
    same kernel -- a service job child on another preset -- skips the
    front half as well.
    """
    key = (source, name, bool(optimize))
    module = _MODULES.get(key)
    if module is not None:
        _MODULES.move_to_end(key)
        obs.count("frontend.module_reuse")
        return module
    if store is None:
        module = _front_half(source, name, optimize)
    else:
        module = _stored_front_half(store, source, name, optimize)
    _MODULES[key] = module
    if len(_MODULES) > _MODULES_MAX:
        _MODULES.popitem(last=False)
    return module


optimized_module.cache_clear = _MODULES.clear


def execute_task(task: SweepTask) -> EvalResult:
    """Measure one (machine, kernel) pair: compile, simulate, synthesise.

    Raises on any failure (compile error, simulator fault, kernel
    self-check failure); :func:`run_tasks` converts that into a
    :class:`TaskError`.
    """
    from repro.backend import compile_for_machine
    from repro.fpga import synthesize
    from repro.machine import encode_machine
    from repro.pipeline.fingerprint import resolve_task_machine
    from repro.sim import run_compiled

    machine = resolve_task_machine(task)
    module = optimized_module(task.source, task.kernel, task.optimize)
    compiled = compile_for_machine(module, machine)
    result = run_compiled(compiled, mode=task.mode)
    expected = getattr(task, "expected_exit", 0)
    if expected is not None and result.exit_code != expected:
        raise AssertionError(
            f"kernel {task.kernel} self-check failed on {task.machine}: "
            f"exit={result.exit_code} (expected {expected})"
        )
    encoding = encode_machine(machine)
    report = synthesize(machine)
    return EvalResult(
        machine=task.machine,
        kernel=task.kernel,
        exit_code=result.exit_code,
        cycles=result.cycles,
        instruction_count=compiled.instruction_count,
        instruction_width=encoding.instruction_width,
        fmax_mhz=report.fmax_mhz,
        extras=result_extras(result),
    )


def result_extras(result) -> dict[str, int]:
    """Style-specific simulator counters folded into ``EvalResult.extras``.

    Deterministic across engines and runs (the differential tests pin
    every statistic byte-identical between checked/fast/turbo), hence
    safe to cache.
    """
    return {
        name: getattr(result, name)
        for name in STAT_FIELDS
        if getattr(result, name, None) is not None
    }


def _attempt(
    worker: WorkerFn, trace: bool, indexed: tuple[int, SweepTask]
) -> tuple[int, object]:
    """Pool worker: never raises; failures come back as TaskError.

    Returns plain dataclasses (no Machine/Program objects) so the
    pickled payload crossing the process boundary stays tiny.  *worker*
    must be a module-level callable (the pool pickles it via
    ``functools.partial``).

    With ``trace=True`` the task runs under its own fresh tracer (any
    inherited/ambient tracer is parked for the duration, so serial and
    forked execution behave identically) and the return value is a
    :class:`TracedOutcome` carrying the span/counter payload.

    Either way the attempt's wall-clock time is surfaced: as
    ``TracedOutcome.wall_ms`` and, for :class:`EvalResult` outcomes, as
    the transient ``extras["_wall_ms"]`` entry.  Underscore-prefixed
    extras are process-local observability — they never reach
    ``EvalResult.to_dict`` and therefore neither the artifact store nor
    ``--json`` payloads, which stay byte-identical.
    """
    index, task = indexed
    if not trace:
        start = time.perf_counter()
        try:
            outcome: object = worker(task)
        except BaseException as exc:  # noqa: BLE001 - isolation is the point
            outcome = _task_error(task, exc)
        _attach_wall_ms(outcome, time.perf_counter() - start)
        return index, outcome
    ambient = obs.disable()
    tracer = obs.enable(
        obs.Tracer(process=f"worker pid={os.getpid()} {task.machine}/{task.kernel}")
    )
    start = time.perf_counter()
    try:
        with tracer.span("task.execute", machine=task.machine, kernel=task.kernel):
            outcome = worker(task)
    except BaseException as exc:  # noqa: BLE001 - isolation is the point
        outcome = _task_error(task, exc)
    finally:
        wall_ms = (time.perf_counter() - start) * 1e3
        obs.disable()
        if ambient is not None:
            obs.enable(ambient)
    _attach_wall_ms(outcome, wall_ms / 1e3)
    return index, TracedOutcome(outcome, tracer.to_payload(), round(wall_ms, 3))


def _attach_wall_ms(outcome: object, seconds: float) -> None:
    """Record the attempt's wall time on an ``extras``-bearing outcome."""
    extras = getattr(outcome, "extras", None)
    if isinstance(extras, dict):
        extras["_wall_ms"] = round(seconds * 1e3, 3)


def _task_error(task: SweepTask, exc: BaseException) -> TaskError:
    return TaskError(
        machine=task.machine,
        kernel=task.kernel,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback=traceback.format_exc(),
    )


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_tasks(
    tasks: Sequence[SweepTask],
    jobs: int = 1,
    retries: int = 1,
    progress: ProgressFn | None = None,
    worker: WorkerFn = execute_task,
    trace: bool = False,
) -> list[EvalResult | TaskError | TracedOutcome]:
    """Execute *tasks*, serially (``jobs<=1``) or over a process pool.

    Returns one outcome per task, **in task order**.  ``retries`` bounds
    how many times a failing task is re-attempted (its final
    :class:`TaskError` records the attempt count).  *worker* is the
    per-task measurement function; the default is the sweep pipeline's
    :func:`execute_task`, and it must be a module-level callable so the
    pool can pickle it.

    With ``trace=True`` every element of the returned list is a
    :class:`TracedOutcome` whose ``trace`` field carries the worker's
    span/counter payload (the payload of the *successful or final*
    attempt).  Progress callbacks always receive the bare outcome.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    outcomes: list[EvalResult | TaskError | None] = [None] * len(tasks)
    traces: list[dict | None] = [None] * len(tasks)
    walls: list[float | None] = [None] * len(tasks)
    attempts = [0] * len(tasks)
    pending = list(enumerate(tasks))
    done = 0
    while pending:
        next_pending: list[tuple[int, SweepTask]] = []
        for index, outcome in _iter_round(pending, jobs, worker, trace):
            if isinstance(outcome, TracedOutcome):
                traces[index] = outcome.trace
                walls[index] = outcome.wall_ms
                outcome = outcome.outcome
            attempts[index] += 1
            if isinstance(outcome, TaskError):
                if attempts[index] <= retries:
                    next_pending.append((index, tasks[index]))
                    continue
                outcome = TaskError(
                    machine=outcome.machine,
                    kernel=outcome.kernel,
                    error_type=outcome.error_type,
                    message=outcome.message,
                    traceback=outcome.traceback,
                    attempts=attempts[index],
                )
            outcomes[index] = outcome
            done += 1
            if progress:
                progress(done, len(tasks), tasks[index], outcome)
        pending = next_pending
    assert all(o is not None for o in outcomes)
    if trace:
        return [
            TracedOutcome(outcome, payload, wall_ms)
            for outcome, payload, wall_ms in zip(outcomes, traces, walls)
        ]
    return outcomes  # type: ignore[return-value]


def _iter_round(
    pending: list[tuple[int, SweepTask]],
    jobs: int,
    worker: WorkerFn,
    trace: bool = False,
):
    """Yield ``(index, outcome)`` as each pending task completes.

    Serially, a kernel's tasks run back to back (in order of each
    kernel's first task), so every compile of one module finds that
    module's shared backend half (see ``compile_for_machine``) still
    memoised; the caller restores task order from the index.
    """
    attempt = functools.partial(_attempt, worker, trace)
    if jobs <= 1 or len(pending) <= 1:
        first: dict[str, int] = {}
        for _index, task in pending:
            first.setdefault(task.kernel, len(first))
        for item in sorted(pending, key=lambda item: first[item[1].kernel]):
            yield attempt(item)
        return
    ctx = _pool_context()
    workers = min(jobs, len(pending))
    with ctx.Pool(processes=workers) as pool:
        # unordered: slow pairs (jpeg on mblaze) don't serialise the rest;
        # the index restores deterministic order afterwards.
        yield from pool.imap_unordered(attempt, pending)
