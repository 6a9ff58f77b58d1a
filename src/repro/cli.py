"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``machines`` -- list the built-in design points with key facts.
* ``kernels`` -- list the CHStone-like workloads.
* ``run FILE.mc -m MACHINE`` -- compile a MiniC file and simulate it.
* ``asm FILE.mc -m MACHINE`` -- print the scheduled assembly listing.
* ``report`` -- regenerate the paper's tables/figures (optionally on a
  ``--kernels``/``--machines`` subset).
* ``sweep`` -- run the (machine, kernel) evaluation matrix through the
  parallel, disk-cached pipeline.
* ``explore`` -- seeded design-space exploration over TTA machines,
  reported as a Pareto frontier.
* ``fuzz`` -- differential fuzzing: seeded random kernels co-simulated
  on every design point and engine against the reference-interpreter
  oracle; divergences are minimized into ``fuzz/corpus/`` reproducers.
* ``corpus`` -- stress-benchmark corpus: ``promote`` fuzz kernels with
  pinned goldens, ``replay`` every golden across all engines (non-zero
  exit on any drift), ``stats``, and ``pin`` to deliberately re-pin.
* ``trace summary FILE.json`` -- aggregate statistics of a trace file
  written by ``run``/``sweep``/``explore --trace``.
* ``synth MACHINE`` -- print the analytic synthesis report.
* ``serve`` -- HTTP compile-and-simulate service (SIGINT/SIGTERM drain
  gracefully).

This module only parses, checks and prints; the work lives in the
packages it calls.  :func:`build_parser` defines each flag that several
commands share once (``_SHARED``).  :func:`main` then fills ``--smoke``
presets and defaults, applies each command's range rules and runs the
command.  User mistakes (bad values, unknown names, unreadable files)
exit 2 with an ``error`` line on stderr instead of a traceback.
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


class _UsageError(Exception):
    """A user mistake found after parsing; :func:`main` prints it and
    exits 2."""


def _subset(spec, known, what: str, absent=None):
    """Validate a comma-separated ``--machines``/``--modes``/``--kernels``.

    *absent* when the flag was not given; ``""`` is an *empty* subset
    (an error), never "all".  ``known=None`` accepts any addressable
    kernel: built-in, extra (``fft``) or promoted.
    """
    from repro.pipeline import parse_subset, resolve_kernel_sources

    if spec is None:
        return absent
    try:
        if known is None:
            return resolve_kernel_sources(spec)[0]
        return parse_subset(spec, known, what)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _store(args):
    """The artifact store ``--cache-dir`` names, else the process default."""
    from repro.pipeline import ArtifactStore, default_store

    return ArtifactStore(args.cache_dir) if args.cache_dir else default_store()


def _progress(args, line):
    """A progress callback printing ``line(done, total, item, outcome)``
    on stderr, or ``None`` under ``--quiet``."""
    if args.quiet:
        return None
    return lambda *update: print(line(*update), file=sys.stderr)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _traced(path: str | None, process: str, body):
    """Call *body* under a fresh tracer when *path* is given.

    *body* returns ``(status, outcome, worker_payloads)``; this returns
    ``(status, outcome)``.  This process's payload and *worker_payloads*
    are merged into one Chrome-trace file at *path*, unless *status* is
    2 (nothing was measured).  An unwritable *path* makes the status 2.
    """
    if not path:
        status, outcome, _ = body()
        return status, outcome
    from repro import obs

    with obs.tracing(obs.Tracer(process=process)) as tracer:
        status, outcome, payloads = body()
    if status == 2:
        return status, outcome
    payloads = [tracer.to_payload(), *payloads]
    doc = obs.to_chrome_trace(payloads)
    try:
        out = obs.write_trace(path, doc)
    except OSError as exc:
        print(f"error: cannot write trace to {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2, outcome
    print(f"trace: {len(payloads)} payload(s), {len(doc['traceEvents'])} "
          f"events -> {out}", file=sys.stderr)
    return status, outcome


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


def _cmd_run(args) -> int:
    if args.profile and args.mode not in PROFILE_MODES:
        *others, last = PROFILE_MODES
        print(
            f"error: --profile needs the {', '.join(others)} or {last} "
            "engine (the checked reference keeps no hit vector); pick one "
            "of those with --mode",
            file=sys.stderr,
        )
        return 2
    status, _ = _traced(
        args.trace, f"repro run {args.machine} {Path(args.file).name}",
        lambda: (_run_and_report(args), None, ()),
    )
    return status


def _run_and_report(args) -> int:
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
                "(the scalar core keeps no hit vectors)",
                file=sys.stderr,
            )
            return 2
        from repro.sim import format_profile, run_compiled_profiled

        result, profile = run_compiled_profiled(compiled, mode=args.mode)
    else:
        profile = None
        result = run_compiled(compiled, mode=args.mode)
    encoding = encode_machine(machine)
    print(f"exit code : {result.exit_code}")
    print(f"cycles    : {result.cycles}")
    engine = args.mode
    if scalar and engine == "native":
        engine += " (Python blocks: the scalar core has no C engine)"
    print(f"engine    : {engine}")
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


def _cmd_report(args) -> int:
    from repro.eval import render_all
    from repro.kernels import KERNELS

    # the tables compare against published numbers: the paper's eight only
    kernels = _subset(args.kernels, KERNELS, "kernel")
    print(render_all(kernels, _subset(args.machines, preset_names(), "machine")))
    return 0


def _cmd_sweep(args) -> int:
    from repro.kernels import KERNELS
    from repro.pipeline import EvalResult, sweep

    # no --kernels is the paper's eight, still checked for promoted
    # kernels that shadow one of them
    kernels = _subset(KERNELS if args.kernels is None else args.kernels, None, "kernel")
    machines = _subset(args.machines, preset_names(), "machine")
    store = _store(args)
    if args.clear_cache:
        if store is None:
            print("no cache to clear (cache disabled)", file=sys.stderr)
        else:
            removed = store.clear()
            print(f"cleared {removed} cache entries from {store.root}", file=sys.stderr)

    def line(done, total, task, outcome) -> str:
        if isinstance(outcome, EvalResult):
            detail = f"{outcome.cycles} cycles"
        else:
            detail = f"FAILED: {outcome.error_type}: {outcome.message.splitlines()[0]}"
        return f"[{done:3d}/{total}] {task.machine:10s} {task.kernel:10s} {detail}"

    def run():
        # --trace implies --refresh: cache hits compute nothing and thus
        # contribute no worker payload, so a warm-cache trace would be an
        # empty (misleading) timeline.
        tracing = bool(args.trace)
        outcome = sweep(
            machines=machines,
            kernels=kernels,
            mode=args.mode,
            jobs=args.jobs,
            retries=args.retries,
            store=store,
            use_cache=not args.no_cache,
            refresh=args.refresh or tracing,
            progress=_progress(args, line),
            trace=tracing,
        )
        return 0, outcome, outcome.traces

    status, outcome = _traced(args.trace, "sweep driver", run)
    if status:
        return status
    stats = outcome.stats
    print(
        f"swept {stats.total} pairs in {stats.elapsed_s:.2f}s "
        f"({stats.cache_hits} cached, {stats.computed} computed, "
        f"{stats.failed} failed, jobs={args.jobs})",
        file=sys.stderr,
    )
    if args.json:
        _print_json(outcome.to_dict())
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
    from repro.explore import ExploreConfig, ExploreError, render_explore, run_explore
    from repro.pipeline import EvalResult

    kernels = _subset(args.kernels, None, "kernel")
    base = tuple(part.strip() for part in args.base.split(",") if part.strip())
    if not base:
        print("error: --base must name at least one TTA preset", file=sys.stderr)
        return 2
    store = _store(args)
    config = ExploreConfig(
        base=base,
        kernels=kernels,
        generations=args.generations,
        population=args.population,
        seed=args.seed,
        mode=args.mode,
        jobs=args.jobs,
    )

    def line(done, total, task, outcome) -> str:
        if isinstance(outcome, EvalResult):
            detail = f"{outcome.cycles} cycles"
        else:
            detail = f"infeasible: {outcome.error_type}"
        return f"[{done:3d}/{total}] {task.machine:16s} {task.kernel:10s} {detail}"

    def run():
        result = run_explore(config, store=store, use_cache=not args.no_cache,
                             progress=_progress(args, line))
        return 0, result, ()

    try:
        status, result = _traced(args.trace, "explore driver", run)
    except (ExploreError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if status:
        return status
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
    from repro.fuzz import FuzzCaseReport, FuzzConfig, default_corpus_dir, run_fuzz
    from repro.pipeline import TaskError

    def line(done, total, case, outcome) -> str:
        if isinstance(outcome, FuzzCaseReport):
            detail = "ok" if outcome.ok else "DIVERGED: " + "; ".join(
                f"{d.mode}/{d.kind}" for d in outcome.divergences
            )
        elif isinstance(outcome, TaskError):
            detail = f"ERROR {outcome.error_type}"
        else:  # pragma: no cover - defensive
            detail = str(outcome)
        return f"[{done:4d}/{total}] {case.machine:10s} {case.kernel:14s} {detail}"

    report = run_fuzz(
        FuzzConfig(
            seed=args.seed,
            count=args.count,
            machines=_subset(args.machines, preset_names(), "machine"),
            modes=_subset(args.modes, MODES, "mode"),
            jobs=args.jobs,
            time_budget=args.time_budget,
            minimize=not args.no_minimize,
            # smoke campaigns stay bounded even when they do find a bug:
            # minimization gets a small predicate budget instead of the
            # full overnight one.
            minimize_checks=200 if args.smoke else 2000,
            corpus_dir=args.corpus_dir or default_corpus_dir(),
            store=_store(args),
            use_cache=not args.no_cache,
            progress=_progress(args, line),
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
        _print_json(report.to_dict())
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

    config = PromoteConfig(
        seed=args.seed,
        count=args.count,
        target=args.target,
        machines=_subset(args.machines, preset_names(), "machine", absent=()),
        modes=_subset(args.modes, MODES, "mode", absent=MODES),
        jobs=args.jobs,
        out_dir=args.out_dir,
    )
    try:
        report = promote(config, log=_progress(args, str))
    except GoldenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _print_json(report.to_dict())
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

    machines = _subset(args.machines, preset_names(), "machine")
    entries = discover_entries(
        promoted_dir=args.promoted_dir,
        corpus_dir=args.corpus_dir,
        include_builtin=not args.no_builtin,
    )
    if not entries:
        print("error: no golden-bearing kernels found to replay", file=sys.stderr)
        return 2
    report = replay_entries(
        entries, jobs=args.jobs, machines=machines,
        progress=_progress(
            args, lambda done, total, case, _: f"[{done:3d}/{total}] "
            f"{case.machine:10s} {case.kernel}"
        ),
    )
    print(
        f"replayed {report.cases} pinned (kernel, machine) cases from "
        f"{report.entries} entries: "
        f"{len(report.drift)} drift(s), {len(report.broken)} broken golden(s)",
        file=sys.stderr,
    )
    if args.json:
        _print_json(report.to_dict())
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
        _print_json(stats)
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
    """Deliberately (re-)pin goldens after an intentional change; which
    kernels are pinnable, on which machines, is
    :func:`repro.corpus.replay.pin_targets`."""
    from repro.corpus.goldens import GoldenError, save_golden
    from repro.corpus.replay import pin_entry, pin_targets

    targets = pin_targets(
        _subset(args.machines, preset_names(), "machine", absent=preset_names()),
        names=args.names,
        promoted_dir=args.promoted_dir or None,
        corpus_dir=args.corpus_dir or None,
    )
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
        target = targets[name]
        try:
            payload = pin_entry(name, target.source, target.machines, jobs=args.jobs)
            save_golden(target.golden_path, payload)
        except GoldenError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        if not args.quiet:
            print(
                f"pinned {name} on {len(payload['machines'])} machine(s) "
                f"-> {target.golden_path}",
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
        _print_json(summary)
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

    from repro.serve import ReproServer

    store = None if args.no_cache else _store(args)

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


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------

#: flags several commands share, defined once: dest -> (option strings,
#: ``add_argument`` keywords); :func:`_add` takes per-command overrides
_SHARED = {
    "machine": (("-m", "--machine"), dict(default="m-tta-2", choices=preset_names())),
    "kernels": (("--kernels",), dict(default=None, help="comma-separated kernel subset")),
    "machines": (("--machines",), dict(default=None, help="comma-separated machine subset")),
    "modes": (("--modes",), dict(
        default=None,
        help=f"comma-separated engine subset of {','.join(MODES)} (default: all)",
    )),
    "mode": (("--mode",), dict(choices=MODES, default=DEFAULT_MODE)),
    "jobs": (("-j", "--jobs"), dict(
        type=int, default=1, help="worker processes (1 = serial, in-process)",
    )),
    "seed": (("--seed",), dict(
        type=int, default=0, help="campaign seed; a campaign is fully deterministic",
    )),
    "smoke": (("--smoke",), dict(action="store_true")),
    "cache_dir": (("--cache-dir",), dict(
        default=None,
        help="artifact store location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/artifacts)",
    )),
    "no_cache": (("--no-cache",), dict(
        action="store_true", help="neither read nor write the on-disk artifact store",
    )),
    "promoted_dir": (("--promoted-dir",), dict(
        default=None,
        help="promoted-corpus directory (default: $REPRO_PROMOTED_CORPUS or fuzz/promoted)",
    )),
    "corpus_dir": (("--corpus-dir",), dict(
        default=None,
        help="fuzz regression vault (default: $REPRO_FUZZ_CORPUS or fuzz/corpus)",
    )),
    "trace": (("--trace",), dict(metavar="FILE", default=None)),
    "json": (("--json",), dict(action="store_true", help="machine-readable JSON on stdout")),
    "quiet": (("-q", "--quiet"), dict(
        action="store_true", help="suppress progress lines on stderr",
    )),
}


def _add(parser, *dests: str, **overrides: dict) -> None:
    """Add the shared flags *dests* to *parser*; ``overrides[dest]``
    replaces keywords (``flags`` replaces the option strings)."""
    for dest in dests:
        flags, kwargs = _SHARED[dest]
        kwargs = {**kwargs, **overrides.get(dest, {})}
        parser.add_argument(*kwargs.pop("flags", flags), **kwargs)


def _at_least(flag: str, low: int):
    return (flag,), f">= {low}", lambda value: value >= low


def _positive(flag: str, must: str = "positive"):
    return (flag,), must, lambda value: value > 0


_JOBS = _at_least("--jobs", 1)


def _check_ranges(args) -> None:
    """Apply the command's ``ranges``: ``(flags, requirement, predicate)``
    rules over each given value.

    Checked after parsing rather than through ``type=``, so that a bad
    value is exit code 2 from :func:`main` instead of ``SystemExit``.
    """
    for flags, must, ok in getattr(args, "ranges", ()):
        values = [getattr(args, flag.lstrip("-").replace("-", "_")) for flag in flags]
        if not all(value is None or ok(value) for value in values):
            raise _UsageError(
                f"error: {' and '.join(flags)} must be {must}, "
                f"got {'/'.join(map(str, values))}"
            )


def _apply_presets(args) -> None:
    """Fill the flags a command leaves unset (parser default ``None``):
    from its ``--smoke`` preset when given, then from its plain defaults,
    so an explicitly given flag always wins."""
    smoke, plain = getattr(args, "presets", ({}, {}))
    for preset in (smoke, plain) if getattr(args, "smoke", False) else (plain,):
        for dest, value in preset.items():
            if getattr(args, dest) is None:
                setattr(args, dest, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Transport-Triggered Soft Cores toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list design points").set_defaults(fn=_cmd_machines)
    sub.add_parser("kernels", help="list workloads").set_defaults(fn=_cmd_kernels)

    p_run = sub.add_parser("run", help="compile and simulate a MiniC file")
    p_run.add_argument("file")
    p_run.add_argument(
        "--profile",
        action="store_true",
        help="print per-block execution counts and the trigger histogram "
        "after the run (fast/turbo/native engines on TTA/VLIW cores)",
    )
    _add(p_run, "machine", "mode", "trace", mode={
        "help": f"simulation engine (default {DEFAULT_MODE}): 'fast' verifies "
        "the schedule once at load time and runs pre-decoded code; 'turbo' "
        "additionally compiles basic blocks to specialized Python; 'native' "
        "compiles the same blocks to C via ctypes with the shared object "
        "cached in the artifact store (falls back to turbo without a C "
        "compiler); 'checked' re-verifies every cycle, bus routing "
        "included; on the scalar (MicroBlaze-like) core 'checked' is the "
        "interpreter and the other three run its Python block engine",
    }, trace={
        "help": "record a compile+simulate timeline (spans + counters) as a "
        "Chrome-trace JSON file; inspect with 'repro trace summary FILE' "
        "or chrome://tracing",
    })
    p_run.set_defaults(fn=_cmd_run)

    p_asm = sub.add_parser("asm", help="print scheduled assembly")
    p_asm.add_argument("file")
    _add(p_asm, "machine")
    p_asm.add_argument("--start", type=int, default=0)
    p_asm.add_argument("--count", type=int, default=None)
    p_asm.set_defaults(fn=_cmd_asm, ranges=(_at_least("--start", 0), _at_least("--count", 1)))

    p_rep = sub.add_parser("report", help="regenerate the paper's tables/figures")
    _add(p_rep, "kernels", "machines", machines={
        "help": "comma-separated design-point subset (group baselines are "
        "still measured so relative columns keep the paper's normalisation)",
    })
    p_rep.set_defaults(fn=_cmd_report)

    p_sweep = sub.add_parser(
        "sweep",
        help="evaluate the (machine, kernel) matrix through the "
        "parallel, disk-cached pipeline",
    )
    _add(p_sweep, "kernels", "machines", "jobs", "mode", mode={
        "help": f"simulation engine for computed pairs (default {DEFAULT_MODE}; "
        "'native' runs generated C with store-cached shared objects)",
    })
    p_sweep.add_argument(
        "--retries", type=int, default=1,
        help="re-attempts per failing pair before it is recorded as an error",
    )
    p_sweep.add_argument(
        "--refresh", action="store_true",
        help="recompute every pair and overwrite its cache entry",
    )
    p_sweep.add_argument(
        "--clear-cache", action="store_true",
        help="delete all store entries before sweeping",
    )
    _add(p_sweep, "no_cache", "cache_dir", "trace", "json", "quiet", trace={
        "help": "merge every worker's span/counter payload plus the driver's "
        "own phases into one Chrome-trace JSON timeline (implies "
        "--refresh: cache hits compute nothing and would leave an empty "
        "timeline)",
    })
    p_sweep.set_defaults(fn=_cmd_sweep, ranges=(_JOBS, _at_least("--retries", 0)))

    p_exp = sub.add_parser(
        "explore",
        help="automated design-space exploration: seeded mutations over "
        "TTA machines, evaluated through the cached pipeline, reported "
        "as a Pareto frontier over (cycles, area, fmax)",
    )
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
    p_exp.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the frontier JSON payload to FILE",
    )
    _add(p_exp, "seed", "kernels", "mode", "jobs", "smoke", "cache_dir", "no_cache",
         "trace", "json", "quiet", mode={
             "help": f"simulation engine for computed pairs (default {DEFAULT_MODE})",
         }, jobs={"default": None}, smoke={
             "help": "bounded CI-sized campaign: 2 generations x 4 candidates on "
             "mips+motion, 2 jobs (explicit flags still win)",
         }, trace={
             "help": "write the driver's explore.*/sweep.* span timeline as "
             "Chrome-trace JSON",
         })
    p_exp.set_defaults(fn=_cmd_explore, ranges=(_JOBS,), presets=(
        {"generations": 2, "population": 4, "kernels": "mips,motion", "jobs": 2},
        {"generations": 3, "population": 8, "jobs": 1},
    ))

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random kernels co-simulated on every "
        "design point and engine against the reference interpreter",
    )
    p_fuzz.add_argument(
        "--count", type=int, default=None,
        help="how many kernels to generate (default 50; 5 with --smoke)",
    )
    p_fuzz.add_argument(
        "--time-budget", type=float, default=None,
        help="stop scheduling new kernels after this many seconds",
    )
    p_fuzz.add_argument(
        "--no-minimize", action="store_true",
        help="report divergences without delta-debugging reproducers",
    )
    _add(p_fuzz, "seed", "machines", "modes", "jobs", "smoke", "corpus_dir", "no_cache",
         "cache_dir", "json", "quiet", machines={
             "help": "comma-separated design-point subset (default: all 13)",
         }, modes={
             "help": f"comma-separated engine subset of {','.join(MODES)} "
             "(default: all; the scalar core always runs its block engine "
             "against its checked interpreter)",
         }, smoke={
             "help": "bounded CI preset: 5 kernels, 120s budget (explicit "
             "--count/--time-budget still win)",
         }, corpus_dir={
             "help": "where minimized reproducers are written "
             "(default: $REPRO_FUZZ_CORPUS or fuzz/corpus at the repo root)",
         }, no_cache={"help": "neither read nor write memoised passing verdicts"})
    p_fuzz.set_defaults(fn=_cmd_fuzz, ranges=(
        _at_least("--count", 0), _JOBS, _positive("--time-budget", "positive (seconds)"),
    ), presets=({"count": 5, "time_budget": 120.0}, {"count": 50}))

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
    p_cpro.add_argument(
        "--count", type=int, default=None,
        help="candidates to generate and score (default 40; 8 with --smoke)",
    )
    p_cpro.add_argument(
        "--target", type=int, default=None,
        help="corpus size to select (default 12; 3 with --smoke)",
    )
    p_cpro.add_argument(
        "--out-dir", default=None,
        help="promoted-corpus directory (default: $REPRO_PROMOTED_CORPUS "
        "or fuzz/promoted at the repo root)",
    )
    _add(p_cpro, "seed", "machines", "modes", "jobs", "smoke", "json", "quiet", machines={
        "help": "comma-separated presets to pin goldens on (default: all 13)",
    }, jobs={
        "default": None, "help": "worker processes for golden pinning (default 1)",
    }, smoke={
        "help": "bounded CI preset: 8 candidates, 3 selected, 2 machines "
        "(explicit flags still win)",
    })
    p_cpro.set_defaults(fn=_cmd_corpus_promote, ranges=(
        _JOBS, (("--count", "--target"), ">= 1", lambda value: value >= 1),
    ), presets=(
        {"count": 8, "target": 3, "machines": "m-tta-2,mblaze-3", "jobs": 2},
        {"count": 40, "target": 12, "jobs": 1},
    ))

    p_crep = corpus_sub.add_parser(
        "replay",
        help="re-run every golden-bearing kernel (promoted corpus, fuzz "
        "regression vault, built-in extras) across its pinned engines and "
        "machines; any stat drifting from its golden fails the replay",
    )
    p_crep.add_argument(
        "--no-builtin", action="store_true",
        help="skip the built-in extra kernels' goldens (fft)",
    )
    _add(p_crep, "jobs", "machines", "promoted_dir", "corpus_dir", "json", "quiet",
         machines={
             "help": "comma-separated preset subset (pairs pinned on other "
             "machines are skipped; default: every pinned machine)",
         })
    p_crep.set_defaults(fn=_cmd_corpus_replay, ranges=(_JOBS,))

    p_csta = corpus_sub.add_parser(
        "stats", help="summarize the promoted corpus (traits, axes, coverage)"
    )
    _add(p_csta, "promoted_dir", "json")
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
    _add(p_cpin, "machines", "jobs", "promoted_dir", "corpus_dir", "quiet", machines={
        "help": "comma-separated presets to pin on (default: all 13; "
        "regression reproducers always pin on their recorded machine)",
    })
    p_cpin.set_defaults(fn=_cmd_corpus_pin, ranges=(_JOBS,))

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
    _add(p_tsum, "json")
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
    _add(p_serve, "jobs", "cache_dir", "no_cache", jobs={
        "flags": ("--jobs",), "default": 2,
        "help": "worker shards / max concurrent jobs (default 2)",
    }, no_cache={"help": "serve without the artifact store (no dedup across requests)"})
    p_serve.set_defaults(fn=_cmd_serve, ranges=(
        _JOBS,
        _at_least("--queue-limit", 1),
        _positive("--job-timeout"),
        (("--port",), "in 0..65535", lambda value: 0 <= value <= 65535),
        _at_least("--max-body", 1),
        _at_least("--drain-grace", 0),
    ))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_presets(args)
        _check_ranges(args)
        return args.fn(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
