"""Simulator throughput: checked vs fast vs native engines.

Reports simulated MIPS (million simulated cycles per wall second) for the
Table IV workloads on the three engines (``turbo`` is a name for fast,
so it is not timed apart), asserting bit-exact agreement on every
architectural statistic along the way (the differential tests in
``tests/test_predecode.py``, ``tests/test_native.py`` and
``tests/test_scalar_sim.py`` enforce the same property exhaustively).
The scalar rows (``mblaze-3``) time the scalar core's interpreter in the
checked column and its Python block engine in the other two (there is
no C engine for the scalar core, so it has no cold column either).

Two entry points:

* ``pytest benchmarks/bench_sim_throughput.py -s`` — the historical
  benchmark-as-test: prints the table and asserts the engine speedup
  floors (fast >= 3x over checked on at least one TTA or VLIW design
  point; native >= 9x over fast on at least one TTA and one VLIW design
  point; the scalar block engine >= 3x over the scalar interpreter).
  Every engine of a row is timed best-of-``REPEATS``, the engines
  interleaved, so the rows of two runs on a shared host are comparable.
  Native is timed with a warm engine — the warm-up run pays the
  process's one engine build (or pulls its shared object from the
  artifact store) and encodes the program's tables before the clock
  starts, matching the sweep/service steady state.  Next to it, the
  ``cold`` column is what a process's first native run pays from an
  empty store: the program's table encoding (``cgen_s``) plus the one
  C compile of the engine (``cc_s``), timed once and directly (no
  store, no process cache); the JSON also gives the compiler's own CPU
  time (``cc_cpu_s``) and the engine source's size (``c_kib``).  A
  later program of the same process pays only its encoding.  Without a C
  compiler on PATH the native column degrades to fast, the cold column
  is empty and the native floor is skipped.  Smoke mode for CI: ``REPRO_BENCH_SMOKE=1`` shrinks the matrix and
  skips the hard ratio asserts (shared runners have too much timing
  noise).

* ``python benchmarks/bench_sim_throughput.py [--smoke] [--json [PATH]]``
  — standalone runner; ``--json`` writes the machine-readable results
  (default ``BENCH_sim.json`` next to this file's repo root) so the
  measured ratios are versioned alongside the code that produced them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # standalone `python benchmarks/...` without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import build_machine, compile_for_machine, compile_source, obs
from repro.kernels import KERNELS, kernel_source
from repro.sim import MODES, run_compiled

#: Table IV design points exercised by the throughput comparison, one
#: per core style
MACHINES = ("m-tta-2", "m-vliw-2", "mblaze-3")

#: the engines timed, reference first
ENGINES = ("checked", "fast", "native")

#: minimum fast/checked speedup required on at least one TTA/VLIW workload
SPEEDUP_FLOOR = 3.0

#: minimum native/fast speedup required on at least one workload per
#: style, with a warm engine: the product of the two 3x floors it
#: replaces (a Python block engine over fast, native over that engine)
NATIVE_FLOOR = 9.0

#: minimum warm speedup of the scalar core's block engine (its fast mode)
#: over its checked interpreter, on at least one workload
SCALAR_FLOOR = 3.0

#: maximum tracing overhead on the fast engine (enabled-tracer wall time
#: over untraced wall time, best row): the observability layer never
#: reaches into a per-cycle loop, so tracing a run costs one span plus a
#: handful of post-run counter folds regardless of cycle count.
TRACE_OVERHEAD_CEILING = 1.02  # < 2%

#: timed runs of each engine per row; the row keeps the fastest
REPEATS = 5

#: kernels used when --smoke / REPRO_BENCH_SMOKE trims the matrix
SMOKE_KERNELS = ("mips",)


def _smoke_env() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _native_available() -> bool:
    from repro.sim import native

    return native.find_compiler() is not None


def _time_mode(compiled, mode: str):
    start = time.perf_counter()
    result = run_compiled(compiled, mode=mode)
    elapsed = time.perf_counter() - start
    return result, elapsed


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _time_native_cold(compiled):
    """Seconds of *compiled*'s table encoding and of the one engine
    build (wall, and the compiler's CPU), both from scratch; ``None``
    without a C compiler or for the scalar core."""
    from repro.sim import native
    from repro.sim.cgen import build_native_program

    cc = native.find_compiler()
    if cc is None:
        return None
    start = time.perf_counter()
    nat = build_native_program(compiled.program)
    if nat is None:  # the scalar core has no C engine
        return None
    cpu = _children_cpu_s()
    generated = time.perf_counter()
    native._compile_so(cc, nat.source)
    end = time.perf_counter()
    return {
        "cgen_s": generated - start,
        "cc_s": end - generated,
        "cc_cpu_s": _children_cpu_s() - cpu,
        "total_s": end - start,
        "c_kib": len(nat.source) / 1024,
    }


def _time_mode_traced(compiled, mode: str):
    """Like :func:`_time_mode` but with a tracer enabled for the run.

    Returns ``(result, elapsed, payload)``; the tracer is installed
    *outside* the timed region's interpretation of fairness — enabling
    it is part of what we are measuring, so the enable/disable pair sits
    inside the timer just as a ``--trace`` CLI run would pay it.
    """
    start = time.perf_counter()
    with obs.tracing() as tracer:
        result = run_compiled(compiled, mode=mode)
    elapsed = time.perf_counter() - start
    return result, elapsed, tracer.to_payload()


def measure(machines, kernels):
    """Run every machine x kernel in every engine mode.

    Returns a list of row dicts; raises AssertionError if any engine
    disagrees with the checked reference on any statistic.
    """
    rows = []
    for machine_name in machines:
        machine = build_machine(machine_name)
        for kernel in kernels:
            compiled = compile_for_machine(
                compile_source(kernel_source(kernel)), machine
            )
            # Warm the per-program caches (structural verification, static
            # decode, scalar block code, the native tables and engine —
            # the one-time engine build or store fetch happens here) before
            # timing: the sweep use case simulates each program many
            # times, so steady-state throughput is the relevant number.
            # Checked has no caches.  The cold native encoding and engine
            # build are timed first, on their own.
            native_cold = _time_native_cold(compiled)
            run_compiled(compiled, mode="fast")
            run_compiled(compiled, mode="native")
            results, seconds = {}, dict.fromkeys(ENGINES, float("inf"))
            for _ in range(REPEATS):
                for mode in ENGINES:
                    results[mode], elapsed = _time_mode(compiled, mode)
                    seconds[mode] = min(seconds[mode], elapsed)
            reference = asdict(results["checked"])
            for mode in ENGINES[1:]:
                assert asdict(results[mode]) == reference, (
                    machine_name, kernel, mode,
                )
            assert results["checked"].exit_code == 0, (machine_name, kernel)
            # Traced-vs-untraced on the fast engine: best-of-3 each side,
            # the two sides interleaved and neither reusing the runs
            # above, so both see the same host (single runs are
            # noise-dominated at these durations).  The traced run must
            # stay byte-identical on every statistic — the observability
            # layer derives its counters from the statistics the engine
            # already computed, after the run.
            untraced_best = traced_best = float("inf")
            for _ in range(3):
                _, elapsed = _time_mode(compiled, "fast")
                untraced_best = min(untraced_best, elapsed)
                traced_result, elapsed, payload = _time_mode_traced(compiled, "fast")
                traced_best = min(traced_best, elapsed)
                assert asdict(traced_result) == reference, (machine_name, kernel)
                assert payload["counters"]["sim.cycles"] == traced_result.cycles
            cycles = results["checked"].cycles
            rows.append(
                {
                    "machine": machine_name,
                    "style": machine.style.value,
                    "kernel": kernel,
                    "cycles": cycles,
                    "seconds": {m: seconds[m] for m in ENGINES},
                    "mips": {
                        m: cycles / seconds[m] / 1e6 if seconds[m] > 0 else 0.0
                        for m in ENGINES
                    },
                    "speedup": {
                        "fast_vs_checked": seconds["checked"] / seconds["fast"],
                        "native_vs_fast": seconds["fast"] / seconds["native"],
                    },
                    "trace_overhead": traced_best / untraced_best,
                    "native_cold": native_cold,
                }
            )
    return rows


def best_per_style(rows, ratio: str) -> dict[str, float]:
    best: dict[str, float] = {}
    for row in rows:
        style = row["style"]
        best[style] = max(best.get(style, 0.0), row["speedup"][ratio])
    return best


def best_speedups(rows) -> dict:
    """The best row per floor: fast/checked over the TTA/VLIW rows,
    native/fast per style, and the scalar block engine (fast on the
    scalar core) over its interpreter."""
    return {
        "fast_vs_checked": max(
            row["speedup"]["fast_vs_checked"] for row in rows if row["style"] != "scalar"
        ),
        "native_vs_fast": best_per_style(rows, "native_vs_fast"),
        "scalar_blocks_vs_checked": best_per_style(rows, "fast_vs_checked").get("scalar", 0.0),
    }


def floor_failures(best) -> list[str]:
    """One message per speedup floor *best* misses."""
    failures = []
    if best["fast_vs_checked"] < SPEEDUP_FLOOR:
        failures.append(
            f"fast engine only reached {best['fast_vs_checked']:.1f}x over the "
            f"checked reference (target {SPEEDUP_FLOOR}x)"
        )
    for style in ("tta", "vliw"):
        native = best["native_vs_fast"].get(style, 0.0)
        if _native_available() and native < NATIVE_FLOOR:
            failures.append(
                f"native engine only reached {native:.1f}x over fast on the best "
                f"{style} point (target {NATIVE_FLOOR}x, warm engine)"
            )
    scalar = best["scalar_blocks_vs_checked"]
    if scalar < SCALAR_FLOOR:
        failures.append(
            f"scalar block engine only reached {scalar:.1f}x over the scalar "
            f"interpreter (target {SCALAR_FLOOR}x, warm block cache)"
        )
    return failures


def format_table(rows) -> str:
    lines = [
        f"{'machine':10s} {'kernel':10s} {'cycles':>10s} "
        f"{'checked':>9s} {'fast':>9s} "
        f"{'native':>9s} {'cold':>7s} "
        f"{'fast/chk':>9s} {'native/fast':>12s} "
        f"{'traced':>8s}"
    ]
    for row in rows:
        mips = row["mips"]
        speedup = row["speedup"]
        overhead_pct = (row["trace_overhead"] - 1.0) * 100.0
        cold = row["native_cold"]
        cold_s = f"{cold['total_s']:6.2f}s" if cold else f"{'-':>7s}"
        lines.append(
            f"{row['machine']:10s} {row['kernel']:10s} {row['cycles']:10d} "
            f"{mips['checked']:8.2f}M {mips['fast']:8.2f}M "
            f"{mips['native']:8.2f}M {cold_s} "
            f"{speedup['fast_vs_checked']:8.1f}x "
            f"{speedup['native_vs_fast']:11.1f}x "
            f"{overhead_pct:+6.1f}%"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------


def test_sim_throughput(kernels, capsys):
    smoke = _smoke_env()
    machines = MACHINES
    bench_kernels = SMOKE_KERNELS if smoke else kernels
    rows = measure(machines, bench_kernels)
    with capsys.disabled():
        print()
        print(format_table(rows))
    if smoke:
        # CI smoke run: correctness only; timing on shared runners is noise.
        assert all(row["speedup"]["fast_vs_checked"] > 0 for row in rows)
        return
    # Tracing overhead: the best row must stay under the ceiling (every
    # row would be ideal, but co-tenants perturb the worst case; the best
    # row is what the design guarantees — no per-cycle instrumentation).
    overhead_best = min(row["trace_overhead"] for row in rows)
    assert overhead_best <= TRACE_OVERHEAD_CEILING, (
        f"tracing cost {(overhead_best - 1) * 100:.1f}% on the *best* row "
        f"(ceiling {(TRACE_OVERHEAD_CEILING - 1) * 100:.0f}%): instrumentation "
        f"has leaked into a per-cycle path"
    )
    failures = floor_failures(best_speedups(rows))
    assert not failures, "; ".join(failures)


def test_smoke_covers_both_styles(kernels):
    """Touch every engine on every core style cheaply so CI exercises the
    full engine matrix end to end even when the main benchmark is trimmed."""
    if not _smoke_env():
        import pytest

        pytest.skip("only exercised in smoke mode")
    kernel = "mips"
    for machine_name in MACHINES:
        compiled = compile_for_machine(
            compile_source(kernel_source(kernel)), build_machine(machine_name)
        )
        reference = asdict(run_compiled(compiled, mode="checked"))
        # native degrades to fast without a C compiler; both ways the
        # result must stay byte-identical to the checked reference
        for mode in MODES[1:]:
            assert asdict(run_compiled(compiled, mode=mode)) == reference, (
                machine_name, mode,
            )


# ---------------------------------------------------------------------------
# standalone runner: python benchmarks/bench_sim_throughput.py --json
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="simulator engine throughput benchmark"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="1 kernel on both machines; correctness only, no speedup floors",
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="write machine-readable results (default: BENCH_sim.json at the "
        "repo root)",
    )
    args = parser.parse_args(argv)

    bench_kernels = SMOKE_KERNELS if args.smoke else KERNELS
    rows = measure(MACHINES, bench_kernels)
    print(format_table(rows))

    best = best_speedups(rows)
    overhead_best = min(row["trace_overhead"] for row in rows)
    print()
    print(
        "best speedups: fast/checked "
        + f"{best['fast_vs_checked']:.1f}x; native/fast "
        + ", ".join(f"{s} {v:.1f}x" for s, v in sorted(best["native_vs_fast"].items()))
        + f"; scalar blocks/interpreter {best['scalar_blocks_vs_checked']:.1f}x"
        + f"; tracing overhead (best row) {(overhead_best - 1) * 100:+.1f}%"
    )

    if args.json is not None:
        path = (
            Path(args.json)
            if args.json
            else Path(__file__).resolve().parent.parent / "BENCH_sim.json"
        )
        payload = {
            "benchmark": "sim_throughput",
            "smoke": bool(args.smoke),
            "engines": list(ENGINES),
            "machines": list(MACHINES),
            "kernels": list(bench_kernels),
            "results": rows,
            "best_speedup": best,
            "native_compiler_available": _native_available(),
            "trace_overhead_best": overhead_best,
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")

    if args.smoke:
        return 0
    failures = floor_failures(best)
    for failure in failures:
        print(f"warning: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
