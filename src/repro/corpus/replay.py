"""Golden replay: re-run every pinned kernel and diff against goldens.

Discovery walks three groups of golden-bearing kernels:

* the **promoted corpus** (``fuzz/promoted/`` or
  ``$REPRO_PROMOTED_CORPUS``) — stress kernels from ``repro corpus
  promote``;
* the **regression vault** (``fuzz/corpus/`` or ``$REPRO_FUZZ_CORPUS``)
  — minimized fuzz reproducers, pinned on their recorded machine;
* the **built-in extras** (``src/repro/kernels/goldens/``) — goldens
  for hand-written non-paper kernels (``fft``).

:func:`pin_targets` walks the same groups to decide what
``repro corpus pin`` (re-)pins, on which machines, and where.

Replay fans (kernel, machine) pairs through the sweep executor's
process pool, runs every pinned engine via :func:`repro.fuzz.diff.run_case`
(which also performs the full cross-engine comparison), and diffs the
observed run records field-by-field against the pinned ones.  Any
drift, divergence, crash, source-hash mismatch, or unreadable golden is
a failure with a readable, attributable message.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.corpus.goldens import (
    GOLDEN_SUFFIX,
    GoldenError,
    diff_runs,
    golden_path_for,
    load_golden,
    make_golden,
    source_sha256,
)
from repro.fuzz.corpus import default_corpus_dir
from repro.fuzz.diff import FUZZ_MAX_CYCLES, FuzzCase, execute_fuzz_task
from repro.pipeline.types import TaskError
from repro.sim.modes import MODES

#: goldens for built-in extra kernels (fft), next to their sources
BUILTIN_GOLDEN_DIR = Path(__file__).resolve().parents[1] / "kernels" / "goldens"


@dataclasses.dataclass(frozen=True)
class GoldenEntry:
    """One golden-bearing kernel ready for replay (or a broken one)."""

    name: str
    group: str  # "promoted" | "regression" | "builtin"
    source: str | None
    golden: dict | None
    golden_path: Path
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _walk(promoted_dir, corpus_dir, builtin_names):
    """The walk over the three groups that discovery and pinning share.

    Yields ``(group, name, mc_path, golden_path)`` for every ``.mc`` in
    the promoted corpus, then in the regression vault, then for each
    built-in kernel in *builtin_names* (``mc_path`` is ``None``; its
    golden lives in :data:`BUILTIN_GOLDEN_DIR`).
    """
    from repro.kernels import promoted_dir as default_promoted

    pdir = Path(promoted_dir) if promoted_dir is not None else default_promoted()
    cdir = Path(corpus_dir) if corpus_dir is not None else default_corpus_dir()
    for group, directory in (("promoted", pdir), ("regression", cdir)):
        if directory.is_dir():
            for mc_path in sorted(directory.glob("*.mc")):
                yield group, mc_path.stem, mc_path, golden_path_for(mc_path)
    for name in builtin_names:
        yield "builtin", name, None, BUILTIN_GOLDEN_DIR / f"{name}{GOLDEN_SUFFIX}"


def _entry(group: str, name: str, mc_path: Path | None, golden_path: Path) -> GoldenEntry:
    """Load one walked kernel and its golden; any problem becomes ``error``."""
    from repro.kernels import kernel_source

    def entry(source, golden=None, error=None):
        return GoldenEntry(name, group, source, golden, golden_path, error)

    if mc_path is not None:
        source = mc_path.read_text()
        stale = (
            f"{mc_path.name} changed since its golden was pinned "
            f"(source hash mismatch); re-pin with `repro corpus pin`"
        )
    else:
        try:
            source = kernel_source(name)
        except KeyError:
            return entry(None, error=f"golden {golden_path.name} has no built-in kernel source")
        stale = (
            f"{name}.mc changed since its golden was pinned; "
            f"re-pin with `repro corpus pin {name}`"
        )
    if not golden_path.exists():
        return entry(
            source,
            error=f"missing golden {golden_path.name}; pin with `repro corpus pin`",
        )
    try:
        golden = load_golden(golden_path)
    except GoldenError as exc:
        return entry(source, error=str(exc))
    if golden["source_sha256"] != source_sha256(source):
        return entry(source, golden, error=stale)
    return entry(source, golden)


def discover_entries(
    promoted_dir: Path | str | None = None,
    corpus_dir: Path | str | None = None,
    include_builtin: bool = True,
) -> list[GoldenEntry]:
    """Every golden-bearing kernel across the three groups, sorted.

    Broken entries (missing/corrupt golden, hash mismatch) are returned
    with ``error`` set so replay can fail loudly instead of skipping.
    In the regression vault, ``.mc`` files *without* a golden are
    included as errors too — a reproducer must never silently drop out
    of replay.  The built-in group is every golden file in
    :data:`BUILTIN_GOLDEN_DIR`.
    """
    builtin: list[str] = []
    if include_builtin and BUILTIN_GOLDEN_DIR.is_dir():
        builtin = [
            golden_path.name[: -len(GOLDEN_SUFFIX)]
            for golden_path in sorted(BUILTIN_GOLDEN_DIR.glob(f"*{GOLDEN_SUFFIX}"))
        ]
    return [_entry(*walked) for walked in _walk(promoted_dir, corpus_dir, builtin)]


@dataclasses.dataclass(frozen=True)
class PinTarget:
    """One kernel ``repro corpus pin`` can (re-)pin, and where."""

    name: str
    source: str
    golden_path: Path
    machines: tuple[str, ...]


def pin_targets(
    machines: tuple[str, ...],
    names: tuple[str, ...] | list[str] = (),
    promoted_dir: Path | str | None = None,
    corpus_dir: Path | str | None = None,
) -> dict[str, PinTarget]:
    """Every pinnable kernel by name, over :func:`discover_entries`'
    groups and golden paths.

    Regression reproducers pin on their recorded machine (they
    reproduce a machine-specific bug, and the vault must not inflate
    replay cost 13x), or on *machines* when none is recorded.  Promoted
    kernels and the built-in extras (``fft``) pin on every one of
    *machines*.  Paper kernels pin only when named in *names*: tier-1
    tests already cover their conformance, and pinning them would
    inflate every replay by 8 x 13 machines.
    """
    from repro.fuzz.corpus import load_entry
    from repro.kernels import ALL_KERNELS, EXTRA_KERNELS, kernel_source

    machines = tuple(machines)
    builtin = [name for name in ALL_KERNELS if name in EXTRA_KERNELS or name in names]
    targets: dict[str, PinTarget] = {}
    for group, name, mc_path, golden_path in _walk(promoted_dir, corpus_dir, builtin):
        if mc_path is None:
            source, pin_on = kernel_source(name), machines
        else:
            loaded = load_entry(mc_path)
            recorded = loaded.machine if group == "regression" else None
            source, pin_on = loaded.source, (recorded,) if recorded else machines
        target = PinTarget(name, source, golden_path, pin_on)
        # on a name clash a promoted kernel wins over a reproducer and a
        # built-in kernel over both
        if group == "regression":
            targets.setdefault(name, target)
        else:
            targets[name] = target
    return targets


@dataclasses.dataclass
class ReplayReport:
    """Outcome of replaying a set of golden entries."""

    entries: int = 0
    cases: int = 0
    drift: list[str] = dataclasses.field(default_factory=list)
    broken: list[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.drift and not self.broken

    def to_dict(self) -> dict:
        return {
            "entries": self.entries,
            "cases": self.cases,
            "ok": self.ok,
            "drift": list(self.drift),
            "broken": list(self.broken),
        }


def _cases_for(entry: GoldenEntry, machines: tuple[str, ...] | None) -> list[tuple[FuzzCase, dict]]:
    golden = entry.golden
    assert golden is not None and entry.source is not None
    cases = []
    for machine in sorted(golden["machines"]):
        if machines is not None and machine not in machines:
            continue
        cases.append(
            (
                FuzzCase(
                    machine=machine,
                    kernel=entry.name,
                    source=entry.source,
                    expected_exit=int(golden["expected_exit"]),
                    modes=tuple(golden["modes"]),
                    max_cycles=int(golden["max_cycles"]),
                ),
                golden["machines"][machine],
            )
        )
    return cases


def replay_entries(
    entries: list[GoldenEntry],
    jobs: int = 1,
    machines: tuple[str, ...] | None = None,
    progress=None,
) -> ReplayReport:
    """Re-run every pinned (kernel, machine) pair and diff the records.

    *machines*, when given, restricts replay to those presets (pairs
    pinned on other presets are skipped, not failed) — the CI smoke
    path.  *progress* is forwarded to the executor.
    """
    report = ReplayReport(entries=len(entries))
    work: list[tuple[FuzzCase, dict]] = []
    for entry in entries:
        if not entry.ok:
            report.broken.append(f"{entry.group}/{entry.name}: {entry.error}")
            continue
        work.extend(_cases_for(entry, machines))

    if not work:
        return report

    from repro.pipeline.executor import run_tasks

    cases = [case for case, _ in work]
    outcomes = run_tasks(cases, jobs=jobs, worker=execute_fuzz_task, progress=progress)
    report.cases = len(cases)
    for (case, golden_runs), outcome in zip(work, outcomes):
        if isinstance(outcome, TaskError):
            report.drift.append(
                f"{case.kernel} on {case.machine}: replay crashed: "
                f"{outcome.error_type}: {outcome.message}"
            )
            continue
        for div in outcome.divergences:
            report.drift.append(f"{case.kernel} on {case.machine}: {div.summary()}")
        report.drift.extend(
            diff_runs(case.kernel, case.machine, golden_runs, outcome.runs)
        )
    return report


def pin_entry(
    name: str,
    source: str,
    machines: tuple[str, ...],
    modes: tuple[str, ...] = MODES,
    max_cycles: int = FUZZ_MAX_CYCLES,
    expected_exit: int | None = None,
    jobs: int = 1,
) -> dict:
    """Measure and build a golden payload for *source* on *machines*.

    When *expected_exit* is ``None`` the IR-interpreter oracle decides
    it (one unoptimized reference run).  Raises :class:`GoldenError` if
    any engine diverges during pinning — a golden must only ever freeze
    conformant behavior.
    """
    from repro.fuzz.oracle import reference_run
    from repro.pipeline.executor import run_tasks

    if expected_exit is None:
        expected_exit = reference_run(source)

    cases = [
        FuzzCase(
            machine=machine,
            kernel=name,
            source=source,
            expected_exit=expected_exit,
            modes=modes,
            max_cycles=max_cycles,
        )
        for machine in sorted(machines)
    ]
    outcomes = run_tasks(cases, jobs=jobs, worker=execute_fuzz_task)
    runs_by_machine: dict[str, dict] = {}
    problems: list[str] = []
    for case, outcome in zip(cases, outcomes):
        if isinstance(outcome, TaskError):
            problems.append(
                f"{name} on {case.machine}: {outcome.error_type}: {outcome.message}"
            )
            continue
        for div in outcome.divergences:
            problems.append(div.summary())
        runs_by_machine[case.machine] = outcome.runs
    if problems:
        raise GoldenError(
            f"cannot pin {name!r}: engines diverged during measurement:\n  "
            + "\n  ".join(problems)
        )
    return make_golden(name, source, expected_exit, runs_by_machine, modes, max_cycles)

