"""Fuzz campaign orchestration.

:func:`run_fuzz` is the engine behind ``repro fuzz``:

1. generate ``count`` deterministic kernels for ``seed``
   (:mod:`repro.fuzz.gen`);
2. run each through the oracle (:mod:`repro.fuzz.oracle`) to get the
   expected exit code;
3. fan the (kernel x machine) differential cases out through the
   pipeline executor (:func:`repro.pipeline.executor.run_tasks` with
   ``worker=execute_fuzz_task``), serving already-proven cases from the
   artifact store (a passing verdict is memoised under a fingerprint of
   the machine description, kernel source, toolchain digest, engine
   modes and generator version -- so a warm re-run of the same campaign
   is near-instant, and any toolchain edit retires every verdict);
4. minimize each diverging kernel by delta-debugging
   (:mod:`repro.fuzz.minimize`) against a predicate that re-runs the
   oracle and the diverging design point and demands the *same*
   (machine, mode, kind) divergence;
5. persist the shrunk reproducers to the regression corpus
   (:mod:`repro.fuzz.corpus`).

A ``time_budget`` bounds the campaign: generation proceeds in chunks
and stops scheduling new work once the budget is spent (work already
dispatched still completes, so the budget is approximate by design).
Failing verdicts are never cached: a divergence is recomputed -- and
re-minimized -- until the underlying bug is fixed.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.fuzz.corpus import save_reproducer
from repro.fuzz.diff import (
    FUZZ_MAX_CYCLES,
    Divergence,
    FuzzCase,
    FuzzCaseReport,
    execute_fuzz_task,
    run_case,
)
from repro.fuzz.gen import (
    GENERATOR_VERSION,
    GeneratedKernel,
    generate_kernel,
    render_kernel,
)
from repro.fuzz.minimize import minimize_kernel
from repro.fuzz.oracle import GeneratorError, reference_run
from repro.pipeline import ArtifactStore, TaskError, default_store, run_tasks
from repro.pipeline.fingerprint import fingerprint
from repro.pipeline.sweep import parse_subset
from repro.sim.modes import MODES

#: progress callback: (done, planned_total, case, outcome)
ProgressFn = Callable[[int, int, FuzzCase, object], None]

#: oracle step budget for *minimization candidates*.  Generated kernels
#: are statically bounded to ~50k interpreter steps and shrinking never
#: adds work, so a candidate that needs more than this has lost its
#: termination guarantee (ddmin can delete a while-loop's increment) --
#: rejecting it cheaply here keeps minimization from stalling for the
#: full 20M-step campaign budget on every such candidate.
MINIMIZE_ORACLE_STEPS = 500_000

#: version of the ``repro fuzz --json`` payload (``FuzzReport.to_dict``).
#: Emitted as ``schema_version`` so consumers — the compile-and-simulate
#: service, future remote fuzz workers — can reject payloads from a
#: mismatched toolchain.  Bump on any key/meaning change.
FUZZ_JSON_SCHEMA = 1


@dataclass
class FuzzConfig:
    """Everything one campaign needs; mirrors the ``repro fuzz`` CLI."""

    seed: int = 0
    count: int = 20
    machines: Iterable[str] | str | None = None
    modes: Iterable[str] | str | None = None
    jobs: int = 1
    time_budget: float | None = None
    minimize: bool = True
    #: cap on how many distinct diverging kernels get the (expensive)
    #: minimization treatment per campaign
    max_minimized: int = 5
    #: predicate-evaluation budget per minimized kernel (each evaluation
    #: costs one oracle run + one compile + the failing engine runs);
    #: bounded campaigns (CI smoke) dial this down
    minimize_checks: int = 2000
    corpus_dir: Path | str | None = None
    store: ArtifactStore | None = None
    use_cache: bool = True
    max_cycles: int = FUZZ_MAX_CYCLES
    progress: ProgressFn | None = None


@dataclass(frozen=True)
class Reproducer:
    """One minimized, persisted failure."""

    entry: str
    kernel: str
    seed: int
    index: int
    machine: str
    mode: str
    kind: str
    lines: int
    source: str
    path: str | None

    def to_dict(self) -> dict:
        return {
            "entry": self.entry,
            "kernel": self.kernel,
            "seed": self.seed,
            "index": self.index,
            "machine": self.machine,
            "mode": self.mode,
            "kind": self.kind,
            "lines": self.lines,
            "source": self.source,
            "path": self.path,
        }


@dataclass
class FuzzReport:
    """Campaign outcome (deterministic for a given seed/count/subset)."""

    seed: int
    count: int
    machines: tuple[str, ...] = ()
    modes: tuple[str, ...] = ()
    generated: int = 0
    cases_total: int = 0
    cases_cached: int = 0
    cases_ok: int = 0
    cases_diverged: int = 0
    budget_exhausted: bool = False
    elapsed_s: float = 0.0
    divergences: list[Divergence] = field(default_factory=list)
    errors: list[TaskError] = field(default_factory=list)
    reproducers: list[Reproducer] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.errors

    def to_dict(self) -> dict:
        return {
            "schema_version": FUZZ_JSON_SCHEMA,
            "seed": self.seed,
            "count": self.count,
            "machines": list(self.machines),
            "modes": list(self.modes),
            "generated": self.generated,
            "cases_total": self.cases_total,
            "cases_cached": self.cases_cached,
            "cases_ok": self.cases_ok,
            "cases_diverged": self.cases_diverged,
            "budget_exhausted": self.budget_exhausted,
            "elapsed_s": self.elapsed_s,
            "ok": self.ok,
            "divergences": [d.to_dict() for d in self.divergences],
            "errors": [e.to_dict() for e in self.errors],
            "reproducers": [r.to_dict() for r in self.reproducers],
        }


def _verdict_key(machine_name: str, source: str, modes: tuple[str, ...],
                 max_cycles: int) -> str:
    """Fingerprint for one case's memoised verdict.

    Rides the sweep fingerprint (machine description + source +
    toolchain digest + engine version) with a fuzz-specific flags
    string, so any toolchain or generator change retires old verdicts.
    """
    from repro.machine import build_machine

    flags = f"fuzz:g{GENERATOR_VERSION}:{'+'.join(modes)}:c{max_cycles}"
    return fingerprint(build_machine(machine_name), source, mode=flags)


def _chunked(total: int, chunk: int):
    start = 0
    while start < total:
        yield range(start, min(start + chunk, total))
        start += chunk


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run one campaign; see the module docstring.

    Raises ``ValueError`` for invalid machine/mode subsets and
    :class:`~repro.fuzz.oracle.GeneratorError` when a generated kernel
    cannot even run on the oracle (a generator defect, never swallowed).
    """
    from repro.machine import preset_names

    started = time.perf_counter()
    machines = parse_subset(config.machines, preset_names(), "machine")
    modes = parse_subset(config.modes, MODES, "mode")
    if config.count < 0:
        raise ValueError(f"count must be >= 0, got {config.count}")

    store = config.store if config.store is not None else default_store()
    if not config.use_cache:
        store = None

    report = FuzzReport(seed=config.seed, count=config.count,
                        machines=machines, modes=modes)
    kernels: dict[str, GeneratedKernel] = {}
    diverged: dict[str, list[Divergence]] = {}  # kernel name -> divergences
    planned_total = config.count * len(machines)
    done = 0

    def out_of_budget() -> bool:
        return (
            config.time_budget is not None
            and time.perf_counter() - started >= config.time_budget
        )

    # enough kernels per chunk to keep every worker busy
    kernels_per_chunk = max(1, (2 * config.jobs + len(machines) - 1) // len(machines))
    for indices in _chunked(config.count, kernels_per_chunk):
        if out_of_budget():
            report.budget_exhausted = True
            break
        pending: list[FuzzCase] = []
        for index in indices:
            kernel = generate_kernel(config.seed, index)
            kernels[kernel.name] = kernel
            expected = reference_run(kernel.source)
            report.generated += 1
            for machine_name in machines:
                case = FuzzCase(
                    machine=machine_name,
                    kernel=kernel.name,
                    source=kernel.source,
                    expected_exit=expected,
                    modes=modes,
                    max_cycles=config.max_cycles,
                )
                report.cases_total += 1
                if store is not None:
                    hit = store.load_json(
                        _verdict_key(machine_name, kernel.source, modes,
                                     config.max_cycles)
                    )
                    if hit is not None:
                        cached = FuzzCaseReport.from_dict(hit)
                        if cached is not None and cached.ok:
                            report.cases_cached += 1
                            report.cases_ok += 1
                            done += 1
                            if config.progress:
                                config.progress(done, planned_total, case, cached)
                            continue
                pending.append(case)

        def _progress(chunk_done: int, _chunk_total: int, case, outcome) -> None:
            if config.progress:
                config.progress(done + chunk_done, planned_total, case, outcome)

        outcomes = run_tasks(
            pending,
            jobs=config.jobs,
            retries=0,
            worker=execute_fuzz_task,
            progress=_progress if config.progress else None,
        )
        done += len(pending)
        for case, outcome in zip(pending, outcomes):
            if isinstance(outcome, TaskError):
                report.errors.append(outcome)
                continue
            assert isinstance(outcome, FuzzCaseReport)
            if outcome.ok:
                report.cases_ok += 1
                if store is not None:
                    store.store_json(
                        _verdict_key(case.machine, case.source, modes,
                                     config.max_cycles),
                        outcome.to_dict(),
                    )
            else:
                report.cases_diverged += 1
                report.divergences.extend(outcome.divergences)
                diverged.setdefault(case.kernel, []).extend(outcome.divergences)

    if config.minimize and diverged:
        _minimize_failures(config, report, kernels, diverged, modes)

    report.elapsed_s = time.perf_counter() - started
    return report


def _minimize_failures(
    config: FuzzConfig,
    report: FuzzReport,
    kernels: dict[str, GeneratedKernel],
    diverged: dict[str, list[Divergence]],
    modes: tuple[str, ...],
) -> None:
    """Shrink (up to ``max_minimized``) diverging kernels and persist
    the reproducers."""
    for kernel_name in sorted(diverged)[: config.max_minimized]:
        kernel = kernels[kernel_name]
        first = diverged[kernel_name][0]
        if kernel.ast is None:  # pragma: no cover - fresh kernels carry ASTs
            continue

        def still_fails(
            source: str,
            machine: str = first.machine,
            mode: str = first.mode,
            kind: str = first.kind,
        ) -> bool:
            try:
                expected = reference_run(source, max_steps=MINIMIZE_ORACLE_STEPS)
            except GeneratorError:
                return False
            probe = run_case(
                FuzzCase(
                    machine=machine,
                    kernel="minimize-probe",
                    source=source,
                    expected_exit=expected,
                    modes=modes,
                    max_cycles=config.max_cycles,
                )
            )
            return any(
                d.mode == mode and d.kind == kind for d in probe.divergences
            )

        minimized = minimize_kernel(
            kernel.ast, still_fails, max_checks=config.minimize_checks
        )
        source = render_kernel(
            minimized,
            header=(
                f"minimized reproducer: seed={kernel.seed} index={kernel.index} "
                f"machine={first.machine} mode={first.mode} kind={first.kind} "
                f"(generator v{GENERATOR_VERSION})"
            ),
        )
        entry = f"{kernel.name}-{first.machine}-{first.mode}-{first.kind}"
        path: str | None = None
        if config.corpus_dir is not None:
            meta = {
                "seed": kernel.seed,
                "index": kernel.index,
                "machine": first.machine,
                "mode": first.mode,
                "kind": first.kind,
                "expected": first.expected,
                "observed": first.observed,
                "detail": first.detail.splitlines()[0] if first.detail else "",
                "modes": list(modes),
                "generator_version": GENERATOR_VERSION,
            }
            path = str(save_reproducer(config.corpus_dir, entry, source, meta))
        report.reproducers.append(
            Reproducer(
                entry=entry,
                kernel=kernel.name,
                seed=kernel.seed,
                index=kernel.index,
                machine=first.machine,
                mode=first.mode,
                kind=first.kind,
                lines=len(source.splitlines()),
                source=source,
                path=path,
            )
        )
