"""The compile+simulate sweep underlying every table and figure.

``run_sweep`` measures each kernel on each design point through the
:mod:`repro.pipeline` subsystem: results are served from the
content-addressed on-disk artifact store when warm (so a re-run of the
full paper reproduction is near-instant), computed through the shared
task executor when cold (optionally in parallel via ``jobs=``), and
memoised in-process so the five table/figure generators and the
benchmark harness share one sweep *object-identically*, exactly as the
old ``lru_cache`` layer did.

This module keeps the historical API surface — ``EvalResult``,
``run_sweep`` and ``sweep_cache_clear`` — so the evaluation layer and
its tests are untouched by the pipeline rewrite.
"""

from __future__ import annotations

from repro.pipeline.sweep import sweep_tasks as _sweep_tasks
from repro.pipeline.sweep import tasks_for_machines as _tasks_for_machines

# Re-exported for backwards compatibility: EvalResult historically lived
# here; it now belongs to the pipeline layer.
from repro.pipeline.types import EvalResult, SweepFailure  # noqa: F401

#: process-local memo so repeated ``run_sweep`` calls return the *same*
#: EvalResult objects (tests and generators rely on identity), keyed by
#: (machine name, kernel) for the default fast/optimised configuration.
#: Generated machines key by their display name; callers minting mutants
#: must give each structure a distinct name (``structural_name`` does).
_MEMO: dict[tuple[str, str], EvalResult] = {}
#: how many of the memoised pairs asked for native and ran on fast
_DEGRADED = 0


def run_sweep(
    machines: tuple | None = None,
    kernels: tuple[str, ...] | None = None,
    jobs: int = 1,
) -> dict[tuple[str, str], EvalResult]:
    """Measure every (machine, kernel) pair; cached across calls.

    *machines* entries may be preset names **or**
    :class:`~repro.machine.Machine` objects (generated design points) —
    mixed freely; results key by the machine's display name either way.

    Serves from (in order): the in-process memo, the on-disk artifact
    store, fresh computation (fanned out over *jobs* worker processes
    when ``jobs > 1``).  Any failing pair raises
    :class:`~repro.pipeline.types.SweepFailure` (an ``AssertionError``
    subclass, matching the historical abort-on-failure behaviour of the
    serial sweep).
    """
    global _DEGRADED
    from repro.kernels import KERNELS
    from repro.machine import preset_names
    from repro.machine.machine import Machine

    machines = machines or preset_names()
    kernels = kernels or KERNELS
    by_name = {
        (m.name if isinstance(m, Machine) else str(m)): m for m in machines
    }
    wanted = [(name, k) for name in by_name for k in kernels]
    missing = sorted({m for m, k in wanted if (m, k) not in _MEMO})
    missing_kernels = sorted({k for m, k in wanted if (m, k) not in _MEMO})
    if missing:
        tasks = _tasks_for_machines(
            [by_name[name] for name in missing], tuple(missing_kernels)
        )
        outcome = _sweep_tasks(tasks, jobs=jobs)
        outcome.raise_on_error()
        _DEGRADED += outcome.stats.degraded
        for pair, result in outcome.results.items():
            _MEMO.setdefault(pair, result)
    return {pair: _MEMO[pair] for pair in wanted}


def degraded_count() -> int:
    """How many pairs this process's sweeps computed on the fast engine
    although they asked for native; cleared with the memo."""
    return _DEGRADED


def sweep_cache_clear() -> None:
    """Drop the in-process memo (tests use this).

    The on-disk artifact store is *not* touched: it is content-addressed
    (machine description + kernel source + toolchain digest), so stale
    entries cannot be served — clearing it is a disk-space operation,
    available via ``repro sweep --clear-cache`` or
    ``ArtifactStore.clear()``.
    """
    global _DEGRADED
    _MEMO.clear()
    _DEGRADED = 0
