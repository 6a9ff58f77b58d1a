"""Sweep orchestration: cache lookup, fan-out, writeback, ordering.

:func:`sweep` is the one entry point for evaluating a (machine, kernel)
matrix.  Per pair it:

1. computes the content fingerprint (machine description + kernel
   source + toolchain digest + flags),
2. serves the pair from the :class:`~repro.pipeline.store.ArtifactStore`
   when allowed (``use_cache`` and not ``refresh``),
3. fans the remaining misses out over
   :func:`~repro.pipeline.executor.run_tasks` (serial or pool),
4. writes fresh successes back to the store atomically,
5. returns a :class:`~repro.pipeline.types.SweepOutcome` whose result
   and error dicts iterate in request order — independent of pool
   completion order, cache state and job count.

Failures never abort the sweep; they surface as
:class:`~repro.pipeline.types.TaskError` records in ``outcome.errors``.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import replace

from repro import obs
from repro.pipeline.executor import ProgressFn, TracedOutcome, run_tasks
from repro.pipeline.fingerprint import task_fingerprint
from repro.pipeline.store import ArtifactStore, default_store
from repro.pipeline.types import (
    EvalResult,
    SweepOutcome,
    SweepTask,
    TaskError,
)
from repro.sim.modes import DEFAULT_MODE


def parse_subset(
    spec: str | Iterable[str] | None,
    known: tuple[str, ...],
    what: str,
) -> tuple[str, ...]:
    """Validate a subset selection against *known* names.

    *spec* may be ``None`` (→ all of *known*, in order), a comma-
    separated string (CLI form), or an iterable of names.  Unknown names
    raise ``ValueError`` listing the valid choices; duplicates collapse;
    the result always follows *known*'s canonical order.
    """
    if spec is None:
        return tuple(known)
    if isinstance(spec, str):
        names = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        names = list(spec)
    if not names:
        raise ValueError(f"empty {what} subset")
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ValueError(
            f"unknown {what} {', '.join(repr(n) for n in unknown)}; "
            f"known: {', '.join(known)}"
        )
    requested = set(names)
    return tuple(n for n in known if n in requested)


def resolve_kernel_sources(
    kernels: Iterable[str] | str | None,
) -> tuple[tuple[str, ...], dict[str, str]]:
    """Kernel names + sources for a subset spec over the full catalog.

    ``None`` means the paper's built-in set (``KERNELS``) — the default
    matrix stays the published one.  An explicit subset may name any
    addressable kernel: built-ins, extras (``fft``), and promoted
    corpus kernels (see :mod:`repro.corpus`).  Raises ``ValueError``
    for unknown or ambiguous names.
    """
    from repro.kernels import KERNELS, catalog, load

    if kernels is None:
        names: tuple[str, ...] = tuple(KERNELS)
    else:
        names = parse_subset(kernels, catalog(), "kernel")
    try:
        return names, {name: load(name) for name in names}
    except KeyError as exc:
        raise ValueError(str(exc.args[0]) if exc.args else str(exc)) from exc


def build_tasks(
    machines: Iterable[str] | str | None = None,
    kernels: Iterable[str] | str | None = None,
    *,
    sources: dict[str, str] | None = None,
    mode: str = DEFAULT_MODE,
    optimize: bool = True,
) -> list[SweepTask]:
    """The (machine, kernel) matrix as an ordered task list.

    *machines* is a preset subset, taken in canonical preset order; the
    kernels and *sources* are resolved as in :func:`tasks_for_machines`.
    *sources* maps kernel names to MiniC text and defaults to the
    built-in CHStone-like workloads (explicit subsets may also name
    extra/promoted kernels); passing extra names sweeps ad-hoc
    workloads through the same cache/executor machinery.
    """
    from repro.machine import preset_names

    return tasks_for_machines(
        parse_subset(machines, preset_names(), "machine"), kernels,
        sources=sources, mode=mode, optimize=optimize,
    )


def tasks_for_machines(
    machines: Iterable,
    kernels: Iterable[str] | str | None = None,
    *,
    sources: dict[str, str] | None = None,
    mode: str = DEFAULT_MODE,
    optimize: bool = True,
) -> list[SweepTask]:
    """Tasks over explicit :class:`~repro.machine.Machine` objects.

    The generated-design-point entry into the pipeline: each machine is
    serialised into its task (``machine_desc``), so the executor and the
    fingerprint layer measure and cache it structurally -- no preset
    registry involvement.  Preset *names* in *machines* are accepted too
    and ride as plain named tasks.
    """
    from repro.kernels import expected_exit
    from repro.machine import preset_names
    from repro.machine.machine import Machine
    from repro.machine.serialize import machine_to_json

    if sources is None:
        kernel_names, sources = resolve_kernel_sources(kernels)
        exits = {k: expected_exit(k) for k in kernel_names}
    else:
        kernel_names = (
            tuple(sources) if kernels is None
            else parse_subset(kernels, tuple(sources), "kernel")
        )
        exits = {k: 0 for k in kernel_names}
    known = preset_names()
    tasks: list[SweepTask] = []
    for machine in machines:
        if isinstance(machine, Machine):
            name, desc = machine.name, machine_to_json(machine)
        else:
            name, desc = str(machine), None
            parse_subset((name,), known, "machine")
        tasks.extend(
            SweepTask(
                machine=name,
                kernel=k,
                source=sources[k],
                mode=mode,
                optimize=optimize,
                machine_desc=desc,
                expected_exit=exits[k],
            )
            for k in kernel_names
        )
    return tasks


def sweep(
    machines: Iterable[str] | str | None = None,
    kernels: Iterable[str] | str | None = None,
    *,
    sources: dict[str, str] | None = None,
    mode: str = DEFAULT_MODE,
    optimize: bool = True,
    jobs: int = 1,
    retries: int = 1,
    store: ArtifactStore | None = None,
    use_cache: bool = True,
    refresh: bool = False,
    progress: ProgressFn | None = None,
    trace: bool = False,
) -> SweepOutcome:
    """Evaluate the (machine, kernel) matrix; see the module docstring.

    ``store=None`` uses the process-default store (which honours
    ``$REPRO_CACHE_DIR`` / ``$REPRO_NO_CACHE``); ``use_cache=False``
    neither reads nor writes it; ``refresh=True`` recomputes every pair
    and overwrites its cache entry.

    ``trace=True`` runs every computed pair under its own worker tracer
    and collects the span/counter payloads into ``outcome.traces``
    (cache hits compute nothing, so they contribute no payload — pass
    ``refresh=True`` for a full timeline).  When a tracer is enabled in
    the *calling* process, the sweep's own phases (fingerprinting/cache
    lookup, fan-out, writeback) are spanned there as well.
    """
    with obs.span("sweep.plan"):
        tasks = build_tasks(
            machines, kernels, sources=sources, mode=mode, optimize=optimize
        )
    return sweep_tasks(
        tasks,
        jobs=jobs,
        retries=retries,
        store=store,
        use_cache=use_cache,
        refresh=refresh,
        progress=progress,
        trace=trace,
    )


def sweep_tasks(
    tasks: list[SweepTask],
    *,
    jobs: int = 1,
    retries: int = 1,
    store: ArtifactStore | None = None,
    use_cache: bool = True,
    refresh: bool = False,
    progress: ProgressFn | None = None,
    trace: bool = False,
) -> SweepOutcome:
    """Evaluate an explicit task list through cache + executor.

    The task-level half of :func:`sweep`: callers that *generate* their
    design points (the exploration engine, the service layer) build
    tasks themselves -- via :func:`tasks_for_machines` or directly --
    and share the exact cache/fan-out/ordering machinery of the preset
    matrix.

    Fresh results are written back to the store **as each task
    completes** (not at the end of the batch), so a campaign killed
    mid-flight resumes from everything already measured: on the rerun
    those pairs are cache hits, not re-executions.
    """
    started = time.perf_counter()
    outcome = SweepOutcome()
    outcome.stats.total = len(tasks)

    active_store = store if store is not None else default_store()
    if not use_cache:
        active_store = None

    keys: dict[tuple[str, str], str] = {}
    misses: list[SweepTask] = []
    cached: dict[tuple[str, str], EvalResult] = {}
    with obs.span("sweep.cache_lookup", pairs=len(tasks)):
        for task in tasks:
            key = task_fingerprint(task) if active_store is not None else ""
            keys[task.pair] = key
            if active_store is not None and not refresh:
                hit = active_store.load_result(key)
                if hit is not None:
                    cached[task.pair] = hit
                    continue
            misses.append(task)

    fresh: dict[tuple[str, str], EvalResult | TaskError] = {}
    if misses:
        # Progress over the *whole* matrix: cache hits count as already
        # done, so `done/total` is meaningful regardless of cache state.
        base_done = len(cached)

        def _progress(done: int, _total: int, task: SweepTask, result) -> None:
            # Write back *before* announcing completion: a caller that
            # aborts from its progress callback (or is killed right
            # after) never loses a finished measurement.
            if isinstance(result, EvalResult) and active_store is not None:
                with obs.span("sweep.writeback"):
                    active_store.store_result(keys[task.pair], result)
            if progress:
                progress(base_done + done, len(tasks), task, result)

        with obs.span("sweep.execute", pairs=len(misses), jobs=jobs):
            executed = run_tasks(
                misses, jobs=jobs, retries=retries, progress=_progress, trace=trace
            )
        for task, result in zip(misses, executed):
            if isinstance(result, TracedOutcome):
                if result.trace is not None:
                    outcome.traces.append(result.trace)
                result = result.outcome
            if isinstance(result, EvalResult):
                # drop transient executor extras (``_wall_ms``): sweep
                # results are the deterministic products, identical
                # whether computed here or served from the store
                result = replace(result, extras={
                    k: v for k, v in result.extras.items()
                    if not k.startswith("_")
                })
            fresh[task.pair] = result
    if progress and not misses:
        # fully warm sweep: still announce completion once per pair
        for i, task in enumerate(tasks, 1):
            progress(i, len(tasks), task, cached[task.pair])

    for task in tasks:  # deterministic request order
        pair = task.pair
        if pair in cached:
            outcome.results[pair] = cached[pair]
            outcome.stats.cache_hits += 1
        else:
            result = fresh[pair]
            if isinstance(result, TaskError):
                outcome.errors[pair] = result
                outcome.stats.failed += 1
                outcome.stats.retried += result.attempts - 1
            else:
                outcome.results[pair] = result
                outcome.stats.computed += 1
    outcome.stats.elapsed_s = time.perf_counter() - started
    if obs.enabled():
        obs.count("sweep.pairs", outcome.stats.total)
        obs.count("sweep.cache_hits", outcome.stats.cache_hits)
        obs.count("sweep.computed", outcome.stats.computed)
        obs.count("sweep.failed", outcome.stats.failed)
    return outcome


def compile_cached(machine, source: str, name: str, *,
                   optimize: bool = True,
                   store: ArtifactStore | None = None,
                   use_cache: bool = True):
    """Compile MiniC *source* (kernel *name*) for *machine* through the
    program cache.

    Returns a :class:`repro.backend.CompiledProgram`; a warm store skips
    the frontend/scheduler entirely (pickle round-trip).  A program miss
    still takes the kernel's optimised IR module from the store when
    any process compiled it before, for any machine (see
    :func:`~repro.pipeline.executor.optimized_module`), so only the
    backend runs.  *store* and *use_cache* follow :func:`sweep_tasks`:
    ``store=None`` is the process-default store, ``use_cache=False``
    neither reads nor writes one.  The service compiles through it, and
    benchmarks/tools re-run programs under different simulator settings
    without recompiling.
    """
    from repro.backend import compile_for_machine
    from repro.pipeline.executor import optimized_module
    from repro.pipeline.fingerprint import fingerprint

    active_store = store if store is not None else default_store()
    if not use_cache:
        active_store = None
    key = None
    if active_store is not None:
        key = fingerprint(machine, source, mode="program", optimize=optimize)
        hit = active_store.load_program(key)
        if hit is not None:
            return hit
    module = optimized_module(source, name, optimize, store=active_store)
    compiled = compile_for_machine(module, machine)
    if key is not None:
        active_store.store_program(key, compiled)
    return compiled
