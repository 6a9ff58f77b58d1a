"""Data types shared across the sweep pipeline.

:class:`EvalResult` is the unit of measurement the whole evaluation
stack consumes (tables, figures, benchmarks).  It historically lived in
``repro.eval.runner``; it moved here so the pipeline has no dependency
on the evaluation layer (``repro.eval`` re-exports it unchanged).

:class:`SweepTask` describes one (machine, kernel) measurement request,
including the kernel *source text* (so callers can sweep ad-hoc
workloads, and so the content fingerprint can hash exactly what will be
compiled).  :class:`TaskError` is the structured failure record a
crashing pair produces instead of killing the sweep, and
:class:`SweepOutcome` bundles ordered results, errors and cache/timing
statistics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.sim.modes import DEFAULT_MODE, check_mode

#: bump when the on-disk ``EvalResult`` JSON layout changes
#: (2: added the ``extras`` counter dict — RF traffic, transport stats)
RESULT_SCHEMA = 2

#: version of the ``repro sweep --json`` payload (``SweepOutcome.to_dict``).
#: Emitted as ``schema_version`` so consumers — the compile-and-simulate
#: service, future remote workers — can reject payloads from a
#: mismatched toolchain instead of misparsing them.  Bump on any
#: key/meaning change of the JSON layout.
SWEEP_JSON_SCHEMA = 1


@dataclass(frozen=True)
class EvalResult:
    """One (machine, kernel) measurement.

    ``extras`` carries the style-specific architectural counters the
    simulator already computes (TTA: ``moves``/``triggers``/
    ``rf_reads``/``rf_writes``/``bypass_reads``; VLIW: ``bundles``/
    ``ops``; scalar: ``instructions``/``loads``/``stores``/...), so the
    evaluation layer can report RF-traffic-style statistics alongside
    cycle counts.  The counters are deterministic functions of the
    (machine, kernel, toolchain) content — identical across engines and
    cache states — so they are safe to persist in the artifact store.
    """

    machine: str
    kernel: str
    exit_code: int
    cycles: int
    instruction_count: int
    instruction_width: int
    fmax_mhz: float
    extras: dict = field(default_factory=dict)

    @property
    def program_bits(self) -> int:
        return self.instruction_count * self.instruction_width

    @property
    def runtime_us(self) -> float:
        return self.cycles / self.fmax_mhz

    def to_dict(self) -> dict:
        payload = asdict(self)
        # Underscore-prefixed extras are process-local observability
        # (e.g. the executor's ``_wall_ms`` attempt timing): real wall
        # clock is nondeterministic, so it must never reach the artifact
        # store or a --json payload — those stay byte-identical across
        # serial/parallel/cached runs.
        payload["extras"] = {
            k: v for k, v in payload["extras"].items() if not k.startswith("_")
        }
        payload["schema"] = RESULT_SCHEMA
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "EvalResult":
        if payload.get("schema") != RESULT_SCHEMA:
            raise ValueError(
                f"EvalResult schema mismatch: {payload.get('schema')!r} != {RESULT_SCHEMA}"
            )
        extras = payload.get("extras", {})
        if not isinstance(extras, dict):
            raise ValueError(f"EvalResult extras must be a dict, got {extras!r}")
        return cls(
            machine=str(payload["machine"]),
            kernel=str(payload["kernel"]),
            exit_code=int(payload["exit_code"]),
            cycles=int(payload["cycles"]),
            instruction_count=int(payload["instruction_count"]),
            instruction_width=int(payload["instruction_width"]),
            fmax_mhz=float(payload["fmax_mhz"]),
            extras={
                str(k): int(v)
                for k, v in extras.items()
                if not str(k).startswith("_")
            },
        )


@dataclass(frozen=True)
class SweepTask:
    """One measurement request: compile *source* for *machine*, run it.

    Attributes:
        machine: design-point name -- a preset name, or the display name
            of a generated machine when ``machine_desc`` is set.
        kernel: display name of the workload.
        source: MiniC source text (hashed into the fingerprint).
        mode: simulation engine, one of :data:`repro.sim.MODES`.
        optimize: run the IR optimisation pipeline before scheduling.
        machine_desc: canonical machine JSON
            (:func:`repro.machine.machine_to_json`) for design points
            that are not presets -- exploration mutants, ad-hoc
            machines.  ``None`` means *machine* names a preset.
        expected_exit: the exit code the workload's self-check must
            produce (0 for the hand-written kernels; promoted fuzz
            kernels checksum their state into a nonzero exit pinned at
            promotion time).  ``None`` skips the check entirely.
    """

    machine: str
    kernel: str
    source: str
    mode: str = DEFAULT_MODE
    optimize: bool = True
    machine_desc: str | None = None
    expected_exit: int | None = 0

    def __post_init__(self) -> None:
        check_mode(self.mode)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.machine, self.kernel)


@dataclass(frozen=True)
class TaskError:
    """Structured record of one failed (machine, kernel) pair.

    A failing pair never aborts the sweep; it yields one of these with
    the exception type/message and the full traceback text of the *last*
    attempt, plus how many attempts were made (1 + retries).
    """

    machine: str
    kernel: str
    error_type: str
    message: str
    traceback: str
    attempts: int = 1

    @property
    def pair(self) -> tuple[str, str]:
        return (self.machine, self.kernel)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepStats:
    """Cache and timing accounting for one sweep invocation."""

    total: int = 0
    cache_hits: int = 0
    computed: int = 0
    failed: int = 0
    retried: int = 0
    #: computed pairs that asked for the native engine and ran on fast
    #: (no C compiler, a failed engine build, or a program the encoder
    #: refused)
    degraded: int = 0
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepOutcome:
    """Everything a sweep produced, in deterministic (machine, kernel)
    request order regardless of completion order."""

    results: dict[tuple[str, str], EvalResult] = field(default_factory=dict)
    errors: dict[tuple[str, str], TaskError] = field(default_factory=dict)
    stats: SweepStats = field(default_factory=SweepStats)
    #: tracer payloads shipped back from the workers (one per computed
    #: pair) when the sweep ran with ``trace=True``; merge with
    #: :func:`repro.obs.to_chrome_trace`.  Deliberately excluded from
    #: :meth:`to_dict` — trace timelines go to their own file.
    traces: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_on_error(self) -> None:
        """Re-raise the sweep's failures as one exception (compat path
        for callers that want the pre-pipeline abort-on-failure
        semantics, e.g. ``repro.eval.runner.run_sweep``)."""
        if self.errors:
            first = next(iter(self.errors.values()))
            summary = ", ".join(f"{m}/{k}" for m, k in self.errors)
            raise SweepFailure(
                f"{len(self.errors)} sweep pair(s) failed ({summary}); "
                f"first: {first.error_type}: {first.message}",
                errors=tuple(self.errors.values()),
            )

    def to_dict(self) -> dict:
        return {
            "schema_version": SWEEP_JSON_SCHEMA,
            "results": [r.to_dict() for r in self.results.values()],
            "errors": [e.to_dict() for e in self.errors.values()],
            "stats": self.stats.to_dict(),
        }


class SweepFailure(AssertionError):
    """Raised by :meth:`SweepOutcome.raise_on_error`.

    Subclasses :class:`AssertionError` because the pre-pipeline sweep
    surfaced kernel self-check failures as ``AssertionError`` and tests
    or callers may be catching that.
    """

    def __init__(self, message: str, errors: tuple[TaskError, ...] = ()):
        super().__init__(message)
        self.errors = errors
