"""Output checks and exact-count comparison (pure functions, no ``repro``
import, so the tests can feed them tampered values directly)."""

from __future__ import annotations

import statistics

#: counts that must repeat exactly between two runs of one seed
EXACT_COUNTS = (
    "sim.cycles",
    "ir.instrs",
    "backend.instrs",
    "sim.native.c_kib",
    "sim.native.cc_calls",
    "pipeline.store_hits",
    "serve.executed",
)


#: per workload, per-layer metrics a traced pass must find nonzero.  A
#: layer whose calls bypass its wrapper (say, a new module-level
#: ``from ... import`` under ``src/``) reads 0 there, and its time would
#: silently move into ``pipeline.orchestration_s``; the run fails instead.
ACTIVE_LAYERS = {
    "sweep-cold": (
        "frontend.calls", "frontend.self_s", "ir.self_s", "ir.instrs",
        "backend.self_s", "backend.instrs", "sim.fast.self_s", "sim.scalar.self_s",
        "sim.cycles", "fpga.self_s", "pipeline.fingerprint_s",
        "pipeline.store_write_s",
    ),
    "explore-native": (
        "frontend.calls", "ir.instrs", "backend.instrs", "sim.native.self_s",
        "sim.native.cgen_s", "sim.native.c_kib", "sim.native.cc_calls",
        "fpga.self_s", "pipeline.fingerprint_s", "pipeline.store_write_s",
        "explore.mutate_s", "explore.candidates",
    ),
    "serve-mixed": (
        "serve.client_s", "serve.executed", "serve.cache_hits",
        "pipeline.fingerprint_s", "pipeline.store_read_s", "pipeline.store_hits",
    ),
}


def inactive_layers(workload: str, layers: dict) -> list[str]:
    """The :data:`ACTIVE_LAYERS` of *workload* that read 0 (or are missing)."""
    return [name for name in ACTIVE_LAYERS[workload] if not layers.get(name)]


def golden_entry(golden: dict, machine: str, style: str) -> dict | None:
    """The pinned fast-engine stats of *machine* in a corpus golden (the
    scalar cores have a single engine, pinned as ``scalar``)."""
    runs = golden.get("machines", {}).get(machine)
    if runs is None:
        return None
    return runs.get("scalar" if style == "scalar" else "fast")


def diff_result(observed: dict, expected: dict) -> list[str]:
    """Field-by-field differences between an observed result (``exit_code``,
    ``cycles`` and counter fields) and the expected one.  Every expected
    field must be present and equal."""
    problems = []
    for field in sorted(expected):
        if observed.get(field) != expected[field]:
            problems.append(
                f"{field}: expected {expected[field]!r}, got {observed.get(field)!r}"
            )
    return problems


def check_pair(result: dict, expected_exit: int, golden: dict | None) -> list[str]:
    """Problems with one evaluated pair: the exit code must match the
    kernel's expected exit, and a golden-bearing kernel must match its
    golden on cycles and every counter."""
    problems = []
    if result.get("exit_code") != expected_exit:
        problems.append(
            f"exit_code: expected {expected_exit!r}, got {result.get('exit_code')!r}"
        )
    if golden is not None:
        problems.extend(diff_result(result, golden))
    return problems


def compare_counts(first: dict, second: dict) -> list[str]:
    """Exact counts present in both dicts that differ."""
    return [
        f"{name}: {first[name]!r} != {second[name]!r}"
        for name in EXACT_COUNTS
        if name in first and name in second and first[name] != second[name]
    ]


def check_against_records(mine: dict, records: list[dict]) -> list[str]:
    """Exact counts of this run against earlier runs of the same code:
    runs of the same inputs (same seed, or another seed that drew the
    same set) must repeat them exactly, and runs of different inputs
    must differ in simulated cycles."""
    problems = []
    for other in records:
        pair = f"seed {mine['seed']} vs earlier seed {other['seed']}"
        if other["input_digest"] == mine["input_digest"]:
            problems.extend(f"{pair} (same inputs): {p}"
                            for p in compare_counts(other["counts"], mine["counts"]))
        elif other["counts"].get("sim.cycles") == mine["counts"].get("sim.cycles"):
            problems.append(f"{pair} ran different inputs but simulated the "
                            f"same number of cycles")
    return problems


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile (the median for ``pct=50``)."""
    if len(values) == 1:
        return values[0]
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
