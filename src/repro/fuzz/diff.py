"""Differential execution of one generated kernel on one design point.

:func:`run_case` is the measurement worker of the fuzzing subsystem (the
role :func:`repro.pipeline.executor.execute_task` plays for the sweep
pipeline): compile the kernel once for the machine, run it through every
requested engine mode, and compare

* the **exit code** of every run against the oracle's expected value,
* the **full result record** (cycles and every statistics counter) of
  every engine against the first engine's -- the engines advertise
  bit- and cycle-exact equivalence, so any counter drifting between
  checked/fast/turbo/native is a divergence even when the exit codes
  agree.

Divergences never raise; they come back as structured
:class:`Divergence` records inside the :class:`FuzzCaseReport`, so a
campaign keeps running and reports everything at the end.  Only
infrastructure faults (e.g. an unpicklable result) escape, and the
pipeline executor turns those into ``TaskError`` records.

The scalar (MicroBlaze-like) core runs its block engine
(:data:`~repro.sim.modes.DEFAULT_MODE`) and its checked interpreter,
whatever modes the case names.  The block engine's run is recorded under
the pseudo-mode ``"scalar"`` and compared against the oracle; any
difference from the interpreter -- in a result field or in the error
raised -- is a ``"scalar"`` stats-mismatch.
"""

from __future__ import annotations

import dataclasses
import pickle
import traceback

from repro.fuzz.gen import GENERATOR_VERSION
from repro.sim.modes import DEFAULT_MODE, MODES

#: faults of the harness, not of the system under test: these must
#: propagate (the executor turns them into TaskError records / the
#: minimizer aborts) instead of being classified as a divergence or as
#: "candidate no longer reproduces"
INFRA_ERRORS = (OSError, MemoryError, RecursionError, pickle.PickleError)

#: cycle budget per simulation; generated kernels are statically bounded
#: far below this, so exceeding it (e.g. a miscompiled branch looping
#: forever) is itself reported as a divergence, not an infinite hang.
FUZZ_MAX_CYCLES = 5_000_000

#: schema of FuzzCaseReport.to_dict (bump on layout change; cached
#: verdicts with another schema are recomputed)
REPORT_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class FuzzCase:
    """One differential case: a generated kernel on one design point.

    Attributes mirror :class:`repro.pipeline.types.SweepTask` closely
    enough (``machine``, ``kernel``, ``pair``) that the pipeline
    executor can fan these out and attribute failures.
    """

    machine: str
    kernel: str
    source: str
    expected_exit: int
    modes: tuple[str, ...] = MODES
    max_cycles: int = FUZZ_MAX_CYCLES

    @property
    def pair(self) -> tuple[str, str]:
        return (self.machine, self.kernel)


@dataclasses.dataclass(frozen=True)
class Divergence:
    """One observed disagreement, attributable to a single layer."""

    kernel: str
    machine: str
    mode: str  # engine mode, "scalar", or "compile"
    kind: str  # "exit-mismatch" | "stats-mismatch" | "crash"
    detail: str
    expected: int | None = None
    observed: int | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Divergence":
        return cls(
            kernel=str(payload["kernel"]),
            machine=str(payload["machine"]),
            mode=str(payload["mode"]),
            kind=str(payload["kind"]),
            detail=str(payload["detail"]),
            expected=payload.get("expected"),
            observed=payload.get("observed"),
        )

    def summary(self) -> str:
        base = f"{self.kernel} on {self.machine}/{self.mode}: {self.kind}"
        if self.kind == "exit-mismatch":
            return f"{base} (expected {self.expected}, got {self.observed})"
        return f"{base}: {self.detail.splitlines()[0] if self.detail else ''}"


@dataclasses.dataclass(frozen=True)
class FuzzCaseReport:
    """Everything one case produced: per-mode run records + divergences."""

    machine: str
    kernel: str
    expected_exit: int
    #: mode -> full result record (``exit_code``, ``cycles``, and every
    #: style-specific statistics counter)
    runs: dict
    divergences: tuple[Divergence, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def pair(self) -> tuple[str, str]:
        return (self.machine, self.kernel)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "generator": GENERATOR_VERSION,
            "machine": self.machine,
            "kernel": self.kernel,
            "expected_exit": self.expected_exit,
            "runs": self.runs,
            "divergences": [d.to_dict() for d in self.divergences],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzCaseReport | None":
        if payload.get("schema") != REPORT_SCHEMA:
            return None
        return cls(
            machine=str(payload["machine"]),
            kernel=str(payload["kernel"]),
            expected_exit=int(payload["expected_exit"]),
            runs=dict(payload["runs"]),
            divergences=tuple(
                Divergence.from_dict(d) for d in payload.get("divergences", ())
            ),
        )


def _result_record(result) -> dict:
    """A result dataclass as a plain, JSON-able field dict."""
    return {k: v for k, v in dataclasses.asdict(result).items()}


def run_case(case: FuzzCase) -> FuzzCaseReport:
    """Compile once, run every requested engine, compare everything."""
    from repro.backend import compile_for_machine
    from repro.machine import build_machine
    from repro.machine.machine import MachineStyle
    from repro.pipeline.executor import optimized_module
    from repro.sim import run_compiled

    divergences: list[Divergence] = []
    runs: dict[str, dict] = {}

    def diverge(mode: str, kind: str, detail: str, observed: int | None = None) -> None:
        divergences.append(
            Divergence(
                kernel=case.kernel,
                machine=case.machine,
                mode=mode,
                kind=kind,
                detail=detail,
                expected=case.expected_exit,
                observed=observed,
            )
        )

    machine = build_machine(case.machine)
    try:
        module = optimized_module(case.source, case.kernel)
        compiled = compile_for_machine(module, machine)
    except INFRA_ERRORS:
        raise
    except Exception:
        # The oracle already compiled (unoptimized) and ran this source,
        # so a crash here is an optimizer/scheduler/regalloc bug.
        diverge("compile", "crash", traceback.format_exc())
        return FuzzCaseReport(
            machine=case.machine,
            kernel=case.kernel,
            expected_exit=case.expected_exit,
            runs=runs,
            divergences=tuple(divergences),
        )

    def outcome(mode: str):
        """``(record, None)`` of one run, or ``(None, (error line,
        traceback))`` when it raised."""
        try:
            result = run_compiled(compiled, max_cycles=case.max_cycles, mode=mode)
            return _result_record(result), None
        except INFRA_ERRORS:
            raise
        except Exception as exc:
            return None, (f"{type(exc).__name__}: {exc}", traceback.format_exc())

    scalar = machine.style is MachineStyle.SCALAR
    modes = ("scalar",) if scalar else tuple(case.modes)
    for mode in modes:
        record, error = outcome(DEFAULT_MODE if scalar else mode)
        if scalar:
            # the interpreter must agree on every field, or raise the same error
            checked, checked_error = outcome("checked")
            want = checked if checked_error is None else checked_error[0]
            got = record if error is None else error[0]
            if got != want:
                diverge(mode, "stats-mismatch", f"{DEFAULT_MODE}={got!r} != checked={want!r}")
        if error is not None:
            diverge(mode, "crash", error[1])
            continue
        runs[mode] = record
        if record["exit_code"] != case.expected_exit:
            diverge(
                mode,
                "exit-mismatch",
                f"exit_code {record['exit_code']} != oracle {case.expected_exit}",
                observed=record["exit_code"],
            )

    # Cross-engine comparison: every successful engine must agree with
    # the first successful engine on *every* field (cycles, moves,
    # triggers, rf/bypass counters, bundle/op counts, ...).
    succeeded = [m for m in modes if m in runs]
    if len(succeeded) > 1:
        baseline_mode = succeeded[0]
        baseline = runs[baseline_mode]
        for mode in succeeded[1:]:
            record = runs[mode]
            drift = {
                key: (baseline.get(key), record.get(key))
                for key in sorted(set(baseline) | set(record))
                if baseline.get(key) != record.get(key)
            }
            if drift:
                detail = ", ".join(
                    f"{key}: {mode}={got!r} != {baseline_mode}={want!r}"
                    for key, (want, got) in drift.items()
                )
                diverge(mode, "stats-mismatch", detail)

    return FuzzCaseReport(
        machine=case.machine,
        kernel=case.kernel,
        expected_exit=case.expected_exit,
        runs=runs,
        divergences=tuple(divergences),
    )


def execute_fuzz_task(case: FuzzCase) -> FuzzCaseReport:
    """Module-level worker for :func:`repro.pipeline.executor.run_tasks`."""
    return run_case(case)
