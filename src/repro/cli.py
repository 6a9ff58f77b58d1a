"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``machines`` -- list the built-in design points with key facts.
* ``kernels`` -- list the CHStone-like workloads.
* ``run FILE.mc -m MACHINE`` -- compile a MiniC file and simulate it
  (``--trace out.json`` records a compile+sim timeline).
* ``asm FILE.mc -m MACHINE`` -- print the scheduled assembly listing.
* ``report [--kernels a,b,..] [--machines a,b,..]`` -- regenerate the
  paper's tables/figures (optionally on a subset).
* ``sweep`` -- run the (machine, kernel) evaluation matrix through the
  parallel, disk-cached pipeline (``--jobs``, ``--machines``,
  ``--kernels``, ``--no-cache``, ``--refresh``, ``--json``;
  ``--trace out.json`` merges every worker's span/counter payload into
  one Chrome-trace timeline and implies ``--refresh``).
* ``trace summary FILE.json`` -- aggregate statistics of a trace file
  written by ``--trace``.
* ``fuzz`` -- differential fuzzing: generate seeded random kernels and
  co-simulate them on every design point and engine mode against the
  reference-interpreter oracle; divergences are auto-minimized into
  ``fuzz/corpus/`` reproducers (``--seed``, ``--count``, ``--machines``,
  ``--modes``, ``--jobs``, ``--time-budget``, ``--smoke``, ``--json``).
* ``corpus`` -- stress-benchmark corpus: ``promote`` fuzz kernels into
  a pinned conformance suite (interestingness scoring + per-(machine,
  engine) golden stats), ``replay`` every golden across all engines
  (non-zero exit on any drift), ``stats``, and ``pin`` to deliberately
  re-pin after intentional toolchain changes.
* ``synth MACHINE`` -- print the analytic synthesis report.
* ``serve`` -- HTTP compile-and-simulate service with bounded queueing,
  store-backed request dedup and sharded worker processes (``--host``,
  ``--port``, ``--jobs``, ``--queue-limit``, ``--job-timeout``,
  ``--drain-grace``; SIGINT/SIGTERM drain gracefully).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import (
    build_machine,
    compile_for_machine,
    compile_source,
    encode_machine,
    preset_names,
    run_compiled,
    synthesize,
)
from repro.sim.modes import DEFAULT_MODE, MODES, PROFILE_MODES


def _cmd_machines(_args) -> int:
    print(f"{'name':10s} {'style':7s} {'issue':>5s} {'buses':>5s} {'regs':>5s} "
          f"{'width':>6s} {'fmax':>7s} {'LUTs':>6s}")
    for name in preset_names():
        machine = build_machine(name)
        encoding = encode_machine(machine)
        report = synthesize(machine)
        print(
            f"{name:10s} {machine.style.value:7s} {machine.issue_width:5d} "
            f"{len(machine.buses):5d} {machine.total_registers:5d} "
            f"{encoding.instruction_width:5d}b {report.fmax_mhz:4.0f}MHz "
            f"{report.resources.core_luts:6d}"
        )
    return 0


def _cmd_kernels(_args) -> int:
    from repro.kernels import EXTRA_KERNELS, KERNELS, kernel_source, promoted_sources

    for name in KERNELS:
        first_line = kernel_source(name).strip().splitlines()[1].strip(" *")
        print(f"{name:10s} {first_line}")
    for name in EXTRA_KERNELS:
        first_line = kernel_source(name).strip().splitlines()[1].strip(" *")
        print(f"{name:10s} {first_line} [extra; not in the paper's set]")
    promoted = promoted_sources()
    for name in sorted(promoted):
        print(f"{name:14s} [promoted fuzz kernel]")
    return 0


def _load_module(path: str):
    """Compile *path*, or ``None`` after an error message (exit code 2).

    Unreadable files and MiniC compile errors are user mistakes, not
    crashes: report them on stderr instead of dumping a traceback.
    """
    from repro.frontend import CompileError

    try:
        source = Path(path).read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
        return None
    try:
        return compile_source(source)
    except CompileError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _write_trace_file(path: str, payloads: list[dict]) -> int:
    """Merge *payloads* into one Chrome-trace document at *path*.

    Returns 0 on success, 2 (with a stderr message) when the destination
    is unwritable — a user mistake, not a crash.
    """
    from repro.obs import to_chrome_trace, write_trace

    doc = to_chrome_trace(payloads)
    try:
        out = write_trace(path, doc)
    except OSError as exc:
        print(
            f"error: cannot write trace to {path}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2
    print(
        f"trace: {len(payloads)} payload(s), {len(doc['traceEvents'])} "
        f"events -> {out}",
        file=sys.stderr,
    )
    return 0


def _cmd_run(args) -> int:
    # --verify *is* the checked reference engine with full move routing;
    # combining it with an explicitly requested fast/turbo engine is a
    # contradiction, so reject it instead of silently overriding.
    if args.verify and args.mode not in (None, "checked"):
        print(
            f"error: --verify runs the checked reference engine and cannot "
            f"be combined with --mode {args.mode}; drop --verify or use "
            f"--mode checked",
            file=sys.stderr,
        )
        return 2
    mode = "checked" if args.verify else (args.mode or DEFAULT_MODE)
    if args.profile and mode not in PROFILE_MODES:
        *others, last = PROFILE_MODES
        print(
            f"error: --profile needs the {', '.join(others)} or {last} "
            "engine (the checked reference keeps no hit vector); drop "
            "--verify or pick one of those with --mode",
            file=sys.stderr,
        )
        return 2
    if not args.trace:
        return _run_and_report(args, mode)
    from repro import obs

    with obs.tracing(
        obs.Tracer(process=f"repro run {args.machine} {Path(args.file).name}")
    ) as tracer:
        status = _run_and_report(args, mode)
    if status == 2:  # nothing was measured; don't write an empty timeline
        return status
    write_status = _write_trace_file(args.trace, [tracer.to_payload()])
    return write_status or status


def _run_and_report(args, mode: str) -> int:
    """The measured portion of ``repro run`` (traced when ``--trace``)."""
    from repro.machine.machine import MachineStyle

    module = _load_module(args.file)
    if module is None:
        return 2
    machine = build_machine(args.machine)
    compiled = compile_for_machine(module, machine)
    scalar = machine.style is MachineStyle.SCALAR
    if args.profile:
        if scalar:
            print(
                "error: --profile supports TTA and VLIW cores only "
                "(the scalar core has a single engine)",
                file=sys.stderr,
            )
            return 2
        from repro.sim import format_profile, run_compiled_profiled

        result, profile = run_compiled_profiled(compiled, mode=mode)
    else:
        profile = None
        result = run_compiled(compiled, check_connectivity=args.verify, mode=mode)
    encoding = encode_machine(machine)
    print(f"exit code : {result.exit_code}")
    print(f"cycles    : {result.cycles}")
    # the scalar (MicroBlaze-like) core has a single engine: --mode is
    # accepted for CLI symmetry but ignored there
    print(f"engine    : {'scalar (single engine; --mode ignored)' if scalar else mode}")
    print(f"image     : {compiled.instruction_count} instructions "
          f"({compiled.instruction_count * encoding.instruction_width / 1000:.1f} kbit)")
    if hasattr(result, "bypass_reads"):
        print(f"transport : {result.moves} moves, {result.triggers} triggers, "
              f"{result.bypass_reads} bypassed reads, {result.rf_writes} RF writes")
    report = synthesize(machine)
    print(f"runtime   : {result.cycles / report.fmax_mhz:.1f} us at {report.fmax_mhz:.0f} MHz")
    if profile is not None:
        print()
        print(format_profile(profile))
    return 0 if result.exit_code == 0 else 1


def _cmd_asm(args) -> int:
    from repro.backend.asmprint import format_program, program_statistics

    module = _load_module(args.file)
    if module is None:
        return 2
    compiled = compile_for_machine(module, build_machine(args.machine))
    print(format_program(compiled.program, start=args.start, count=args.count))
    print()
    for key, value in program_statistics(compiled.program).items():
        print(f"; {key} = {value}")
    return 0


def _parse_subsets(args, full_catalog: bool = False) -> tuple[tuple[str, ...], tuple[str, ...] | None]:
    """Shared ``--kernels``/``--machines`` parsing and validation.

    Returns ``(kernels, machines)`` with ``machines=None`` when no
    subset was requested; raises ``ValueError`` for unknown names (both
    ``report`` and ``sweep`` use this and turn it into exit code 2).
    With ``full_catalog`` an explicit kernel subset may also name extra
    (``fft``) and promoted corpus kernels; ``report`` stays on the
    paper's eight (its tables compare against published numbers).
    """
    from repro.kernels import KERNELS
    from repro.pipeline import parse_subset

    if full_catalog:
        from repro.pipeline import resolve_kernel_sources

        kernels, _ = resolve_kernel_sources(args.kernels)
    else:
        kernels = parse_subset(args.kernels, KERNELS, "kernel")
    # "" is an *empty* subset (an error parse_subset reports), not "all
    # machines" -- only an absent flag means the full set
    machines = (
        parse_subset(args.machines, preset_names(), "machine")
        if getattr(args, "machines", None) is not None
        else None
    )
    return kernels, machines


def _cmd_report(args) -> int:
    from repro.eval import render_all

    try:
        kernels, machines = _parse_subsets(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_all(kernels, machines))
    return 0


def _cmd_sweep(args) -> int:
    from repro.pipeline import ArtifactStore, default_store, sweep

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        kernels, machines = _parse_subsets(args, full_catalog=True)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    store = ArtifactStore(args.cache_dir) if args.cache_dir else default_store()
    if args.clear_cache:
        if store is None:
            print("no cache to clear (cache disabled)", file=sys.stderr)
        else:
            removed = store.clear()
            print(f"cleared {removed} cache entries from {store.root}", file=sys.stderr)

    def _progress(done: int, total: int, task, outcome) -> None:
        if args.quiet:
            return
        from repro.pipeline import EvalResult

        if isinstance(outcome, EvalResult):
            detail = f"{outcome.cycles} cycles"
        else:
            detail = f"FAILED: {outcome.error_type}: {outcome.message.splitlines()[0]}"
        print(
            f"[{done:3d}/{total}] {task.machine:10s} {task.kernel:10s} {detail}",
            file=sys.stderr,
        )

    tracer = None
    if args.trace:
        from repro import obs

        # --trace implies --refresh: cache hits compute nothing and thus
        # contribute no worker payload, so a warm-cache trace would be an
        # empty (misleading) timeline.
        tracer = obs.enable(obs.Tracer(process="sweep driver"))
    try:
        outcome = sweep(
            machines=machines,
            kernels=kernels,
            mode=args.mode,
            jobs=args.jobs,
            retries=args.retries,
            store=store,
            use_cache=not args.no_cache,
            refresh=args.refresh or tracer is not None,
            progress=_progress,
            trace=tracer is not None,
        )
    finally:
        if tracer is not None:
            from repro import obs

            obs.disable()
    if tracer is not None:
        write_status = _write_trace_file(
            args.trace, [tracer.to_payload(), *outcome.traces]
        )
        if write_status:
            return write_status
    stats = outcome.stats
    print(
        f"swept {stats.total} pairs in {stats.elapsed_s:.2f}s "
        f"({stats.cache_hits} cached, {stats.computed} computed, "
        f"{stats.failed} failed, jobs={args.jobs})",
        file=sys.stderr,
    )
    if args.json:
        print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"{'machine':10s} {'kernel':10s} {'cycles':>10s} {'instrs':>7s} "
              f"{'width':>6s} {'runtime':>10s}")
        for result in outcome.results.values():
            print(
                f"{result.machine:10s} {result.kernel:10s} {result.cycles:10d} "
                f"{result.instruction_count:7d} {result.instruction_width:5d}b "
                f"{result.runtime_us:8.1f}us"
            )
        for error in outcome.errors.values():
            print(
                f"{error.machine:10s} {error.kernel:10s} "
                f"ERROR {error.error_type} after {error.attempts} attempt(s): "
                f"{error.message.splitlines()[0] if error.message else ''}"
            )
    return 0 if outcome.ok else 1


def _cmd_explore(args) -> int:
    from repro.explore import (
        ExploreConfig,
        ExploreError,
        render_explore,
        run_explore,
    )
    from repro.pipeline import ArtifactStore, default_store, resolve_kernel_sources

    # --smoke: a bounded, seeded CI-sized campaign on the cheap turbo
    # engine; explicit flags given alongside it still win.
    generations = args.generations
    population = args.population
    kernels = args.kernels
    jobs = args.jobs
    mode = args.mode
    if args.smoke:
        generations = 2 if generations is None else generations
        population = 4 if population is None else population
        kernels = "mips,motion" if kernels is None else kernels
        jobs = 2 if jobs is None else jobs
        mode = "turbo" if mode is None else mode
    generations = 3 if generations is None else generations
    population = 8 if population is None else population
    jobs = 1 if jobs is None else jobs
    mode = "native" if mode is None else mode
    if jobs < 1:
        print(f"error: --jobs must be >= 1, got {jobs}", file=sys.stderr)
        return 2
    try:
        kernel_subset = (
            resolve_kernel_sources(kernels)[0] if kernels is not None else None
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    base = tuple(part.strip() for part in args.base.split(",") if part.strip())
    if not base:
        print("error: --base must name at least one TTA preset", file=sys.stderr)
        return 2
    store = ArtifactStore(args.cache_dir) if args.cache_dir else default_store()
    config = ExploreConfig(
        base=base,
        kernels=kernel_subset,
        generations=generations,
        population=population,
        seed=args.seed,
        mode=mode,
        jobs=jobs,
    )

    def _progress(done: int, total: int, task, outcome) -> None:
        if args.quiet:
            return
        from repro.pipeline import EvalResult

        if isinstance(outcome, EvalResult):
            detail = f"{outcome.cycles} cycles"
        else:
            detail = f"infeasible: {outcome.error_type}"
        print(
            f"[{done:3d}/{total}] {task.machine:16s} {task.kernel:10s} {detail}",
            file=sys.stderr,
        )

    tracer = None
    if args.trace:
        from repro import obs

        tracer = obs.enable(obs.Tracer(process="explore driver"))
    try:
        result = run_explore(
            config,
            store=store,
            use_cache=not args.no_cache,
            progress=_progress,
        )
    except (ExploreError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            from repro import obs

            obs.disable()
    if tracer is not None:
        write_status = _write_trace_file(args.trace, [tracer.to_payload()])
        if write_status:
            return write_status
    stats = result.stats
    print(
        f"explored {stats.evaluated + stats.infeasible} candidates in "
        f"{stats.elapsed_s:.2f}s ({stats.evaluated} feasible, "
        f"{stats.infeasible} infeasible, {stats.cache_hits} pairs cached, "
        f"{stats.computed} computed, frontier {len(result.frontier)})",
        file=sys.stderr,
    )
    payload = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        print(f"frontier JSON written to {args.out}", file=sys.stderr)
    if args.json:
        print(payload)
    else:
        print(render_explore(result))
    return 0


def _cmd_fuzz(args) -> int:
    from repro.fuzz import FuzzConfig, default_corpus_dir, run_fuzz
    from repro.pipeline import ArtifactStore, default_store, parse_subset

    # --smoke: a bounded, deterministic CI-sized campaign; explicit
    # --count/--time-budget still win when given alongside it.
    count = args.count
    time_budget = args.time_budget
    minimize_checks = 2000
    if args.smoke:
        if count is None:
            count = 5
        if time_budget is None:
            time_budget = 120.0
        # smoke campaigns stay bounded even when they do find a bug:
        # minimization gets a small predicate budget instead of the
        # full overnight one.
        minimize_checks = 200
    if count is None:
        count = 50
    if count < 0:
        print(f"error: --count must be >= 0, got {count}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if time_budget is not None and time_budget <= 0:
        print(
            f"error: --time-budget must be positive (seconds), got {time_budget}",
            file=sys.stderr,
        )
        return 2
    try:
        machines = (
            parse_subset(args.machines, preset_names(), "machine")
            if args.machines is not None
            else None
        )
        modes = (
            parse_subset(args.modes, MODES, "mode")
            if args.modes is not None
            else None
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    store = ArtifactStore(args.cache_dir) if args.cache_dir else default_store()

    def _progress(done: int, total: int, case, outcome) -> None:
        if args.quiet:
            return
        from repro.fuzz import FuzzCaseReport
        from repro.pipeline import TaskError

        if isinstance(outcome, FuzzCaseReport):
            detail = "ok" if outcome.ok else "DIVERGED: " + "; ".join(
                f"{d.mode}/{d.kind}" for d in outcome.divergences
            )
        elif isinstance(outcome, TaskError):
            detail = f"ERROR {outcome.error_type}"
        else:  # pragma: no cover - defensive
            detail = str(outcome)
        print(
            f"[{done:4d}/{total}] {case.machine:10s} {case.kernel:14s} {detail}",
            file=sys.stderr,
        )

    report = run_fuzz(
        FuzzConfig(
            seed=args.seed,
            count=count,
            machines=machines,
            modes=modes,
            jobs=args.jobs,
            time_budget=time_budget,
            minimize=not args.no_minimize,
            minimize_checks=minimize_checks,
            corpus_dir=args.corpus_dir or default_corpus_dir(),
            store=store,
            use_cache=not args.no_cache,
            progress=_progress,
        )
    )
    print(
        f"fuzzed {report.generated} kernels (seed {report.seed}) on "
        f"{len(report.machines)} machines x {'/'.join(report.modes)}: "
        f"{report.cases_ok}/{report.cases_total} cases ok "
        f"({report.cases_cached} cached), {report.cases_diverged} diverged, "
        f"{len(report.errors)} errors in {report.elapsed_s:.1f}s"
        + (" [time budget exhausted]" if report.budget_exhausted else ""),
        file=sys.stderr,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for div in report.divergences:
            print(f"DIVERGENCE: {div.summary()}")
        for rep in report.reproducers:
            print(
                f"reproducer : {rep.entry} ({rep.lines} lines)"
                + (f" -> {rep.path}" if rep.path else "")
            )
        for err in report.errors:
            print(
                f"ERROR      : {err.machine}/{err.kernel} {err.error_type}: "
                f"{err.message.splitlines()[0] if err.message else ''}"
            )
    return 0 if report.ok else 1


def _cmd_corpus_promote(args) -> int:
    from repro.corpus import PromoteConfig, promote
    from repro.corpus.goldens import GoldenError
    from repro.pipeline import parse_subset

    count = args.count
    target = args.target
    machines = args.machines
    jobs = args.jobs
    if args.smoke:
        count = 8 if count is None else count
        target = 3 if target is None else target
        machines = "m-tta-2,mblaze-3" if machines is None else machines
        jobs = 2 if jobs is None else jobs
    count = 40 if count is None else count
    target = 12 if target is None else target
    jobs = 1 if jobs is None else jobs
    if jobs < 1:
        print(f"error: --jobs must be >= 1, got {jobs}", file=sys.stderr)
        return 2
    if count < 1 or target < 1:
        print(
            f"error: --count and --target must be >= 1, got {count}/{target}",
            file=sys.stderr,
        )
        return 2
    try:
        machine_subset = (
            parse_subset(machines, preset_names(), "machine")
            if machines is not None
            else ()
        )
        modes = (
            parse_subset(args.modes, MODES, "mode")
            if args.modes is not None
            else MODES
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    def _log(msg: str) -> None:
        if not args.quiet:
            print(msg, file=sys.stderr)

    try:
        report = promote(
            PromoteConfig(
                seed=args.seed,
                count=count,
                target=target,
                machines=machine_subset,
                modes=modes,
                jobs=jobs,
                out_dir=args.out_dir,
            ),
            log=_log,
        )
    except GoldenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"{'name':18s} {'axis':10s} {'cycles':>9s} {'branch':>7s} "
              f"{'mem':>7s} {'opcodes':>7s}")
        for entry in report.selected:
            print(
                f"{entry['name']:18s} {entry['axis']:10s} {entry['cycles']:9d} "
                f"{entry['branch_ops']:7d} {entry['mem_ops']:7d} "
                f"{entry['distinct_opcodes']:7d}"
            )
    return 0


def _cmd_corpus_replay(args) -> int:
    from repro.corpus import discover_entries, replay_entries
    from repro.pipeline import parse_subset

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        machines = (
            parse_subset(args.machines, preset_names(), "machine")
            if args.machines is not None
            else None
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    entries = discover_entries(
        promoted_dir=args.promoted_dir,
        corpus_dir=args.corpus_dir,
        include_builtin=not args.no_builtin,
    )
    if not entries:
        print("error: no golden-bearing kernels found to replay", file=sys.stderr)
        return 2

    def _progress(done: int, total: int, case, outcome) -> None:
        if args.quiet:
            return
        print(f"[{done:3d}/{total}] {case.machine:10s} {case.kernel}", file=sys.stderr)

    report = replay_entries(entries, jobs=args.jobs, machines=machines,
                            progress=_progress)
    print(
        f"replayed {report.cases} pinned (kernel, machine) cases from "
        f"{report.entries} entries: "
        f"{len(report.drift)} drift(s), {len(report.broken)} broken golden(s)",
        file=sys.stderr,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in report.broken:
            print(f"BROKEN: {line}")
        for line in report.drift:
            print(f"DRIFT: {line}")
        if report.ok:
            print("corpus replay ok: no drift against pinned goldens")
    return 0 if report.ok else 1


def _cmd_corpus_stats(args) -> int:
    from repro.corpus.promote import corpus_stats

    stats = corpus_stats(promoted=args.promoted_dir)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"promoted corpus: {stats['dir']} ({stats['count']} kernels, "
          f"{len(stats['machines'])} machines pinned)")
    if stats["entries"]:
        print(f"{'name':18s} {'axis':10s} {'cycles':>9s} {'branch':>7s} "
              f"{'mem':>7s} {'opcodes':>7s} {'pinned':>6s}")
    for entry in stats["entries"]:
        if "golden_error" in entry:
            print(f"{entry['name']:18s} BROKEN: {entry['golden_error']}")
            continue
        print(
            f"{entry['name']:18s} {entry.get('axis', '?'):10s} "
            f"{entry.get('cycles', 0):9d} {entry.get('branch_ops', 0):7d} "
            f"{entry.get('mem_ops', 0):7d} {entry.get('distinct_opcodes', 0):7d} "
            f"{entry.get('machines_pinned', 0):6d}"
        )
    return 0


def _cmd_corpus_pin(args) -> int:
    """Deliberately (re-)pin goldens after an intentional change.

    Covers all three golden groups: built-in extras (``fft``) pin into
    ``src/repro/kernels/goldens/``, regression reproducers next to
    their ``.mc`` in the fuzz corpus (on their recorded machine only),
    and promoted kernels next to theirs.
    """
    from repro.corpus.goldens import GoldenError, save_golden
    from repro.corpus.replay import BUILTIN_GOLDEN_DIR, golden_path_for, pin_entry
    from repro.fuzz.corpus import default_corpus_dir, load_corpus
    from repro.kernels import ALL_KERNELS, kernel_source, promoted_dir
    from repro.pipeline import parse_subset

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        machines = (
            parse_subset(args.machines, preset_names(), "machine")
            if args.machines is not None
            else preset_names()
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    # name -> (source, mc_path_or_None, golden_path, machines, exit)
    targets: dict[str, tuple] = {}
    corpus_dir = Path(args.corpus_dir) if args.corpus_dir else default_corpus_dir()
    for entry in load_corpus(corpus_dir):
        # regression reproducers stay pinned on their recorded machine:
        # they reproduce a machine-specific bug, and the vault must not
        # inflate replay cost 13x
        machine = entry.machine
        pin_machines = (machine,) if machine else machines
        targets[entry.name] = (entry.source, entry.path, golden_path_for(entry.path),
                               pin_machines)
    pdir = Path(args.promoted_dir) if args.promoted_dir else promoted_dir()
    if pdir.is_dir():
        for mc_path in sorted(pdir.glob("*.mc")):
            targets[mc_path.stem] = (mc_path.read_text(), mc_path,
                                     golden_path_for(mc_path), machines)
    # built-in extras always pin; paper kernels only when explicitly
    # named (their conformance is already covered by tier-1 tests, and
    # pinning them would inflate every replay by 8 x 13 machines)
    from repro.kernels import EXTRA_KERNELS

    for name in ALL_KERNELS:
        if name in EXTRA_KERNELS or name in (args.names or ()):
            golden_path = BUILTIN_GOLDEN_DIR / f"{name}.golden.json"
            targets[name] = (kernel_source(name), None, golden_path, machines)

    names = args.names or sorted(targets)
    unknown = [n for n in names if n not in targets]
    if unknown:
        print(
            f"error: nothing to pin for {', '.join(map(repr, unknown))}; "
            f"pinnable: {', '.join(sorted(targets))}",
            file=sys.stderr,
        )
        return 2
    status = 0
    for name in names:
        source, _mc, golden_path, pin_machines = targets[name]
        try:
            payload = pin_entry(name, source, tuple(pin_machines), jobs=args.jobs)
            save_golden(golden_path, payload)
        except GoldenError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        if not args.quiet:
            print(
                f"pinned {name} on {len(payload['machines'])} machine(s) "
                f"-> {golden_path}",
                file=sys.stderr,
            )
    return status


def _cmd_trace_summary(args) -> int:
    """Aggregate statistics of a trace file written by ``--trace``.

    Unreadable paths and non-trace files are user mistakes (exit 2 with
    a stderr message), mirroring :func:`_load_module`.
    """
    from repro.obs import format_summary, load_trace, summarize

    try:
        doc = load_trace(args.file)
    except OSError as exc:
        print(
            f"error: cannot read {args.file}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2
    summary = summarize(doc)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_summary(summary, top=args.top))
    return 0


def _cmd_synth(args) -> int:
    machine = build_machine(args.machine)
    report = synthesize(machine)
    res = report.resources
    print(f"machine      : {machine.name} ({machine.description})")
    print(f"fmax         : {report.fmax_mhz:.0f} MHz")
    print(f"core LUTs    : {res.core_luts}")
    print(f"  RF LUTs    : {res.rf_luts} ({res.lutram} as RAM)")
    print(f"  IC LUTs    : {res.ic_luts}")
    print(f"FFs          : {res.ffs}")
    print(f"DSP blocks   : {res.dsps}")
    print(f"slices (est) : {res.slices}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.pipeline import ArtifactStore, default_store
    from repro.serve import ReproServer

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.queue_limit < 1:
        print(f"error: --queue-limit must be >= 1, got {args.queue_limit}",
              file=sys.stderr)
        return 2
    if args.job_timeout <= 0:
        print(f"error: --job-timeout must be positive, got {args.job_timeout}",
              file=sys.stderr)
        return 2
    if not 0 <= args.port <= 65535:
        print(f"error: --port must be in 0..65535, got {args.port}",
              file=sys.stderr)
        return 2
    if args.no_cache:
        store = None
    elif args.cache_dir:
        store = ArtifactStore(args.cache_dir)
    else:
        store = default_store()

    async def _serve_main() -> int:
        server = ReproServer(
            args.host,
            args.port,
            jobs=args.jobs,
            queue_limit=args.queue_limit,
            job_timeout=args.job_timeout,
            max_body=args.max_body,
            drain_grace=args.drain_grace,
            store=store,
        )
        await server.start()
        host, port = server.address
        print(f"serving on http://{host}:{port} "
              f"(jobs={args.jobs}, queue-limit={args.queue_limit}, "
              f"store={'disabled' if store is None else store.root})",
              file=sys.stderr, flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print("draining...", file=sys.stderr, flush=True)
        summary = await server.drain()
        print(f"drained: {summary['completed']} job(s) completed, "
              f"{summary['terminated']} terminated",
              file=sys.stderr, flush=True)
        return 0

    return asyncio.run(_serve_main())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Transport-Triggered Soft Cores toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list design points").set_defaults(fn=_cmd_machines)
    sub.add_parser("kernels", help="list workloads").set_defaults(fn=_cmd_kernels)

    p_run = sub.add_parser("run", help="compile and simulate a MiniC file")
    p_run.add_argument("file")
    p_run.add_argument("-m", "--machine", default="m-tta-2", choices=preset_names())
    p_run.add_argument(
        "--verify",
        action="store_true",
        help="run the per-cycle reference engine with full connectivity checks "
        "(same as --mode checked; rejected alongside --mode fast/turbo)",
    )
    p_run.add_argument(
        "--mode",
        choices=MODES,
        default=None,
        help="simulation engine (default fast): 'fast' verifies the schedule "
        "once at load time and runs pre-decoded code; 'turbo' additionally "
        "compiles basic blocks to specialized Python; 'native' compiles the "
        "same blocks to C via cffi/ctypes with the shared object cached in "
        "the artifact store (falls back to turbo without a C compiler); "
        "'checked' re-verifies every cycle; the scalar (MicroBlaze-like) "
        "core has a single engine and ignores --mode",
    )
    p_run.add_argument(
        "--profile",
        action="store_true",
        help="print per-block execution counts and the trigger histogram "
        "after the run (fast/turbo/native engines on TTA/VLIW cores)",
    )
    p_run.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record a compile+simulate timeline (spans + counters) as a "
        "Chrome-trace JSON file; inspect with 'repro trace summary FILE' "
        "or chrome://tracing",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_asm = sub.add_parser("asm", help="print scheduled assembly")
    p_asm.add_argument("file")
    p_asm.add_argument("-m", "--machine", default="m-tta-2", choices=preset_names())
    p_asm.add_argument("--start", type=int, default=0)
    p_asm.add_argument("--count", type=int, default=None)
    p_asm.set_defaults(fn=_cmd_asm)

    p_rep = sub.add_parser("report", help="regenerate the paper's tables/figures")
    p_rep.add_argument("--kernels", default=None, help="comma-separated kernel subset")
    p_rep.add_argument(
        "--machines",
        default=None,
        help="comma-separated design-point subset (group baselines are "
        "still measured so relative columns keep the paper's normalisation)",
    )
    p_rep.set_defaults(fn=_cmd_report)

    p_sweep = sub.add_parser(
        "sweep",
        help="evaluate the (machine, kernel) matrix through the "
        "parallel, disk-cached pipeline",
    )
    p_sweep.add_argument("--kernels", default=None, help="comma-separated kernel subset")
    p_sweep.add_argument("--machines", default=None, help="comma-separated machine subset")
    p_sweep.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (1 = serial, in-process)",
    )
    p_sweep.add_argument(
        "--mode", choices=MODES,
        default=DEFAULT_MODE,
        help="simulation engine for computed pairs ('native' runs "
        "generated C with store-cached shared objects)",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=1,
        help="re-attempts per failing pair before it is recorded as an error",
    )
    p_sweep.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk artifact store",
    )
    p_sweep.add_argument(
        "--refresh", action="store_true",
        help="recompute every pair and overwrite its cache entry",
    )
    p_sweep.add_argument(
        "--clear-cache", action="store_true",
        help="delete all store entries before sweeping",
    )
    p_sweep.add_argument(
        "--cache-dir", default=None,
        help="artifact store location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/artifacts)",
    )
    p_sweep.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="merge every worker's span/counter payload plus the driver's "
        "own phases into one Chrome-trace JSON timeline (implies "
        "--refresh: cache hits compute nothing and would leave an empty "
        "timeline)",
    )
    p_sweep.add_argument("--json", action="store_true", help="JSON results on stdout")
    p_sweep.add_argument("-q", "--quiet", action="store_true",
                         help="suppress per-pair progress on stderr")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_exp = sub.add_parser(
        "explore",
        help="automated design-space exploration: seeded mutations over "
        "TTA machines, evaluated through the cached pipeline, reported "
        "as a Pareto frontier over (cycles, area, fmax)",
    )
    p_exp.add_argument("--seed", type=int, default=0, help="campaign seed")
    p_exp.add_argument(
        "--generations", type=int, default=None,
        help="mutation rounds after the baseline evaluation (default 3)",
    )
    p_exp.add_argument(
        "--population", type=int, default=None,
        help="new candidates per generation (default 8)",
    )
    p_exp.add_argument(
        "--base", default="m-tta-2",
        help="comma-separated TTA preset(s) to explore outward from",
    )
    p_exp.add_argument("--kernels", default=None, help="comma-separated kernel subset")
    p_exp.add_argument(
        "--mode", choices=MODES,
        default=None,
        help="simulation engine for computed pairs (default 'native', "
        "which falls back to turbo without a C compiler)",
    )
    p_exp.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes (1 = serial, in-process)",
    )
    p_exp.add_argument(
        "--smoke", action="store_true",
        help="bounded CI-sized campaign: 2 generations x 4 candidates on "
        "mips+motion, turbo engine, 2 jobs (explicit flags still win)",
    )
    p_exp.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the frontier JSON payload to FILE",
    )
    p_exp.add_argument("--json", action="store_true",
                       help="frontier JSON on stdout instead of the report")
    p_exp.add_argument(
        "--cache-dir", default=None,
        help="artifact store location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/artifacts)",
    )
    p_exp.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk artifact store",
    )
    p_exp.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write the driver's explore.*/sweep.* span timeline as "
        "Chrome-trace JSON",
    )
    p_exp.add_argument("-q", "--quiet", action="store_true",
                       help="suppress per-pair progress on stderr")
    p_exp.set_defaults(fn=_cmd_explore)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random kernels co-simulated on every "
        "design point and engine against the reference interpreter",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; kernel i of seed s is fully deterministic",
    )
    p_fuzz.add_argument(
        "--count", type=int, default=None,
        help="how many kernels to generate (default 50; 5 with --smoke)",
    )
    p_fuzz.add_argument("--machines", default=None,
                        help="comma-separated design-point subset (default: all 13)")
    p_fuzz.add_argument(
        "--modes", default=None,
        help=f"comma-separated engine subset of {','.join(MODES)} "
        "(default: all; the scalar core always runs its single engine)",
    )
    p_fuzz.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (1 = serial, in-process)",
    )
    p_fuzz.add_argument(
        "--time-budget", type=float, default=None,
        help="stop scheduling new kernels after this many seconds",
    )
    p_fuzz.add_argument(
        "--smoke", action="store_true",
        help="bounded CI preset: 5 kernels, 120s budget (explicit "
        "--count/--time-budget still win)",
    )
    p_fuzz.add_argument(
        "--no-minimize", action="store_true",
        help="report divergences without delta-debugging reproducers",
    )
    p_fuzz.add_argument(
        "--corpus-dir", default=None,
        help="where minimized reproducers are written "
        "(default: $REPRO_FUZZ_CORPUS or fuzz/corpus at the repo root)",
    )
    p_fuzz.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write memoised passing verdicts",
    )
    p_fuzz.add_argument(
        "--cache-dir", default=None,
        help="artifact store location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/artifacts)",
    )
    p_fuzz.add_argument("--json", action="store_true",
                        help="JSON campaign report on stdout")
    p_fuzz.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-case progress on stderr")
    p_fuzz.set_defaults(fn=_cmd_fuzz)

    p_corpus = sub.add_parser(
        "corpus",
        help="stress-benchmark corpus: promote fuzz kernels with pinned "
        "golden stats, replay them across every engine, inspect them",
    )
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)

    p_cpro = corpus_sub.add_parser(
        "promote",
        help="run a seeded fuzz campaign, score candidates by "
        "interestingness (branchy/fu-diverse/memory extremes), select a "
        "diverse subset and persist it with pinned per-(machine, engine) "
        "golden stats",
    )
    p_cpro.add_argument("--seed", type=int, default=0, help="campaign seed")
    p_cpro.add_argument(
        "--count", type=int, default=None,
        help="candidates to generate and score (default 40; 8 with --smoke)",
    )
    p_cpro.add_argument(
        "--target", type=int, default=None,
        help="corpus size to select (default 12; 3 with --smoke)",
    )
    p_cpro.add_argument(
        "--machines", default=None,
        help="comma-separated presets to pin goldens on (default: all 13)",
    )
    p_cpro.add_argument(
        "--modes", default=None,
        help=f"comma-separated engine subset of {','.join(MODES)} to pin "
        "(default: all)",
    )
    p_cpro.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes for golden pinning (default 1)",
    )
    p_cpro.add_argument(
        "--out-dir", default=None,
        help="promoted-corpus directory (default: $REPRO_PROMOTED_CORPUS "
        "or fuzz/promoted at the repo root)",
    )
    p_cpro.add_argument(
        "--smoke", action="store_true",
        help="bounded CI preset: 8 candidates, 3 selected, 2 machines "
        "(explicit flags still win)",
    )
    p_cpro.add_argument("--json", action="store_true",
                        help="JSON promotion report on stdout")
    p_cpro.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress on stderr")
    p_cpro.set_defaults(fn=_cmd_corpus_promote)

    p_crep = corpus_sub.add_parser(
        "replay",
        help="re-run every golden-bearing kernel (promoted corpus, fuzz "
        "regression vault, built-in extras) across its pinned engines and "
        "machines; any stat drifting from its golden fails the replay",
    )
    p_crep.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (1 = serial, in-process)",
    )
    p_crep.add_argument(
        "--machines", default=None,
        help="comma-separated preset subset (pairs pinned on other "
        "machines are skipped; default: every pinned machine)",
    )
    p_crep.add_argument(
        "--promoted-dir", default=None,
        help="promoted-corpus directory (default: $REPRO_PROMOTED_CORPUS "
        "or fuzz/promoted)",
    )
    p_crep.add_argument(
        "--corpus-dir", default=None,
        help="fuzz regression vault (default: $REPRO_FUZZ_CORPUS or "
        "fuzz/corpus)",
    )
    p_crep.add_argument(
        "--no-builtin", action="store_true",
        help="skip the built-in extra kernels' goldens (fft)",
    )
    p_crep.add_argument("--json", action="store_true",
                        help="JSON replay report on stdout")
    p_crep.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-case progress on stderr")
    p_crep.set_defaults(fn=_cmd_corpus_replay)

    p_csta = corpus_sub.add_parser(
        "stats", help="summarize the promoted corpus (traits, axes, coverage)"
    )
    p_csta.add_argument("--promoted-dir", default=None,
                        help="promoted-corpus directory")
    p_csta.add_argument("--json", action="store_true",
                        help="machine-readable stats on stdout")
    p_csta.set_defaults(fn=_cmd_corpus_stats)

    p_cpin = corpus_sub.add_parser(
        "pin",
        help="(re-)pin golden stats after an intentional toolchain or "
        "scheduler change (goldens freeze cycles and every transport "
        "counter, so legitimate perf changes require an explicit re-pin)",
    )
    p_cpin.add_argument(
        "names", nargs="*",
        help="kernels to pin (default: fft + every corpus/promoted entry)",
    )
    p_cpin.add_argument(
        "--machines", default=None,
        help="comma-separated presets to pin on (default: all 13; "
        "regression reproducers always pin on their recorded machine)",
    )
    p_cpin.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (1 = serial, in-process)",
    )
    p_cpin.add_argument("--promoted-dir", default=None,
                        help="promoted-corpus directory")
    p_cpin.add_argument("--corpus-dir", default=None,
                        help="fuzz regression vault directory")
    p_cpin.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-kernel progress on stderr")
    p_cpin.set_defaults(fn=_cmd_corpus_pin)

    p_trace = sub.add_parser(
        "trace", help="inspect trace files written by --trace"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser(
        "summary",
        help="aggregate span timings, counters and gauges of a trace file",
    )
    p_tsum.add_argument("file", help="trace JSON written by run/sweep --trace")
    p_tsum.add_argument(
        "--top", type=int, default=20,
        help="how many span rows to show (by total time; default 20)",
    )
    p_tsum.add_argument("--json", action="store_true",
                        help="machine-readable summary on stdout")
    p_tsum.set_defaults(fn=_cmd_trace_summary)

    p_syn = sub.add_parser("synth", help="analytic synthesis report")
    p_syn.add_argument("machine", choices=preset_names())
    p_syn.set_defaults(fn=_cmd_synth)

    p_serve = sub.add_parser(
        "serve",
        help="HTTP compile-and-simulate service",
        description="Serve the pipeline over HTTP/JSON: POST /v1/compile, "
        f"/v1/run (mode={'/'.join(MODES)}), /v1/sweep; "
        "GET /healthz, "
        "/v1/stats, /v1/jobs/<id>. Identical in-flight requests coalesce "
        "and finished results are served from the artifact store; a full "
        "queue answers 429 with Retry-After. SIGINT/SIGTERM drain "
        "gracefully (queued and running jobs finish, up to --drain-grace).",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="bind port; 0 picks a free port (default 8321)")
    p_serve.add_argument("--jobs", type=int, default=2,
                         help="worker shards / max concurrent jobs (default 2)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="max queued jobs before 429 (default 64)")
    p_serve.add_argument("--job-timeout", type=float, default=300.0,
                         help="per-job wall-clock budget in seconds "
                         "(default 300)")
    p_serve.add_argument("--max-body", type=int, default=1 << 20,
                         help="max request body bytes before 413 "
                         "(default 1048576)")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         help="seconds to let in-flight jobs finish on "
                         "shutdown (default 30)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="artifact store root (default: "
                         "$REPRO_CACHE_DIR or the user cache dir)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="serve without the artifact store (no dedup "
                         "across requests)")
    p_serve.set_defaults(fn=_cmd_serve)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
