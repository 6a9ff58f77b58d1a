"""Cold-start benchmark of the repro toolchain: sweep-cold, explore-native,
serve-mixed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 30 --trace 0

Every pass runs in a fresh interpreter with a fresh, empty
``REPRO_CACHE_DIR`` (see ``worker.py``).  With ``--trace 0`` the last
stdout line is a JSON object carrying the end-to-end metrics; with
``--trace 1`` the run adds a traced pass of the same seed and reports
the per-layer metrics instead.  Scratch files, records and spans go to
``.bench_build/perfbench/`` inside the checkout.  See ``README.md`` for
the workloads, metrics and the layer-to-metric mapping.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import EXACT_COUNTS, check_against_records, compare_counts, percentile
from hostspeed import probe, slowdown
from plans import PLANS, make_plan

#: fresh set-up-only processes per untraced run (plus the timed pass's own
#: set-up); setup_s is their median
SETUP_SAMPLES = 5
#: wall limit of a whole run, which must end within 180 s
RUN_BUDGET_S = 170
#: probe-loop runs timed before and after the run, so a reader can tell
#: host contention from a regression
HOST_PROBES = 50

#: TMPDIR length that leaves room for multiprocessing's socket names
#: (``/pymp-XXXXXXXX/listener-XXXXXXXX``) within the 107-byte unix limit
MAX_TMPDIR_LEN = 72

HERE = Path(__file__).resolve().parent


def host_record() -> dict:
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True,
                            timeout=30).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        cc = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cc": cc,
        "platform": platform.platform(),
    }


def host_sample() -> dict:
    return {"loadavg": list(os.getloadavg()),
            "probe_slowdown": slowdown([probe() for _ in range(HOST_PROBES)])}


def source_digest(root: Path) -> str:
    """Digest of the program and benchmark sources, so persisted exact
    counts are only compared between runs of identical code."""
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "src").rglob("*.mc"))
    files += sorted((root / "fuzz" / "promoted").glob("*")) + sorted(HERE.glob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(os.path.relpath(path, root).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def tmp_dir(root: Path) -> Path:
    """A pass's TMPDIR: short, because the serve workload's forkserver
    puts a unix socket in it, and per run, so runs can overlap."""
    return root / f".bt{os.getpid()}"


class Run:
    """One benchmark invocation: its scratch directory and its passes."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.bench = root / ".bench_build" / "perfbench"
        stamp = time.strftime("%Y%m%dT%H%M%S")
        self.dir = self.bench / "runs" / f"{stamp}-{workload}-s{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True)
        self.plan = make_plan(workload, seed, seconds)
        (self.dir / "plan.json").write_text(json.dumps(self.plan))
        self.passes = 0
        self.tmp = tmp_dir(root)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONPYCACHEPREFIX=str(self.bench / "pycache"),
            PYTHONHASHSEED="0",
        )
        for name in ("REPRO_NO_CACHE", "REPRO_NO_NATIVE_CC", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(name, None)

    def prime(self) -> None:
        """Byte-compile the sources once, so no pass pays for it."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(self.root / "src"), str(HERE)],
            env=self.env, check=True, stdout=subprocess.DEVNULL, timeout=self.remaining(),
        )

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise PassFailed(f"run exceeded its {RUN_BUDGET_S} s budget")
        return left

    def spawn(self, role: str, trace: int) -> dict:
        """One fresh-process pass with a fresh, empty cache directory."""
        self.passes += 1
        tag = f"{self.passes:02d}-{role}-t{trace}"
        cache = self.dir / f"cache-{tag}"
        tmp = self.tmp
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        out = self.dir / f"{tag}.json"
        env = dict(self.env, REPRO_CACHE_DIR=str(cache), TMPDIR=str(tmp))
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", self.workload, "--plan", str(self.dir / "plan.json"),
             "--out", str(out), "--role", role, "--trace", str(trace),
             "--spawned-at", repr(spawned_at), "--claim", str(self.dir / f"claim-{tag}")],
            env=env, cwd=self.root, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _kill_session(proc)
            shutil.rmtree(cache, ignore_errors=True)
            shutil.rmtree(tmp, ignore_errors=True)
        if code != 0:
            raise PassFailed(f"{tag} pass exited with {code}")
        return json.loads(out.read_text())


class PassFailed(RuntimeError):
    pass


def _kill_session(proc: subprocess.Popen) -> None:
    """Kill whatever the pass left in its session and reap the pass."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def normalised_rate(timed: dict) -> float:
    """Ops per second of the timed phase on the reference host: the
    phase's time divided by its latency-weighted mean slowdown."""
    ops = timed["ops"]
    raw_ms = sum(op["lat_ms"] for op in ops)
    normal_ms = sum(op["lat_ms"] / op["slowdown"] for op in ops)
    mean_slowdown = raw_ms / normal_ms if normal_ms else 1.0
    return len(ops) / (timed["timed_s"] / mean_slowdown)


def end_to_end(timed: dict, setup_samples: list[dict]) -> dict:
    """End-to-end metrics, host-speed-normalised (see ``hostspeed.py``)."""
    ops = timed["ops"]
    latencies = [op["lat_ms"] / op["slowdown"] for op in ops]
    misses = [op["lat_ms"] / op["slowdown"] for op in ops if op["miss"]]
    ok = sum(1 for op in ops if not op["problems"])
    setups = [sample["setup_s"] / sample["setup_slowdown"] for sample in setup_samples]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (normalised_rate(timed), "1/s"),
        "op_p50_ms": (percentile(latencies, 50), "ms"),
        "op_p90_ms": (percentile(latencies, 90), "ms"),
        "miss_p50_ms": (percentile(misses, 50) if misses else 0.0, "ms"),
        "ok_frac": (ok / len(ops), "frac"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MiB"),
    }


#: per-layer metric -> unit (all reported on every workload; idle layers
#: read 0)
LAYER_UNITS = {
    "frontend.self_s": "s", "frontend.calls": "count", "frontend.repeat_frac": "frac",
    "ir.self_s": "s", "ir.instrs": "count",
    "backend.self_s": "s", "backend.instrs": "count",
    "sim.fast.self_s": "s", "sim.turbo.self_s": "s", "sim.native.self_s": "s",
    "sim.scalar.self_s": "s",
    "sim.tta.mcycles_per_s": "Mcycles/s", "sim.vliw.mcycles_per_s": "Mcycles/s",
    "sim.scalar.mcycles_per_s": "Mcycles/s", "sim.cycles": "count",
    "sim.native.cgen_s": "s", "sim.native.c_kib": "KiB", "sim.native.cc_s": "s",
    "sim.native.cc_calls": "count",
    "fpga.self_s": "s",
    "pipeline.fingerprint_s": "s", "pipeline.store_read_s": "s",
    "pipeline.store_write_s": "s", "pipeline.store_hits": "count",
    "pipeline.store_misses": "count", "pipeline.store_kib": "KiB",
    "pipeline.orchestration_s": "s",
    "explore.mutate_s": "s", "explore.candidates": "count", "explore.infeasible": "count",
    "serve.client_s": "s", "serve.hit_p50_ms": "ms", "serve.miss_overhead_ms": "ms",
    "serve.executed": "count", "serve.cache_hits": "count", "serve.coalesced": "count",
    "bench.unattributed_s": "s", "bench.traced_wall_s": "s",
    "bench.trace_overhead_frac": "frac",
}


def raw_end_to_end(timed: dict, setup_samples: list[dict]) -> dict:
    """The same metrics in unnormalised wall-clock time (for the record)."""
    ops = timed["ops"]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
        "setup_slowdown": statistics.median(s["setup_slowdown"] for s in setup_samples),
        "ops_per_s": len(ops) / timed["timed_s"],
        "op_p50_ms": percentile([op["lat_ms"] for op in ops], 50),
        "timed_slowdown": statistics.median(op["slowdown"] for op in ops),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    layers = {name: 0.0 for name in LAYER_UNITS}
    layers.update(traced["layers"])
    layers["bench.trace_overhead_frac"] = (
        normalised_rate(untraced) / normalised_rate(traced) - 1.0)
    return {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}


def count_records(run: Run) -> tuple[Path, list[dict]]:
    """Exact counts of earlier correct runs of this checkout's code
    (keyed by the source digest)."""
    path = run.bench / "counts" / f"{run.workload}-{source_digest(run.root)}.json"
    return path, json.loads(path.read_text()) if path.exists() else []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no repro sources (src/repro); run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "serve-mixed" and len(str(tmp_dir(root))) > MAX_TMPDIR_LEN:
        print(f"error: checkout path {root} is too long for the unix sockets "
              f"the serve workload creates under it", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # Every pass is serial; one CPU for the run and everything it spawns
    # keeps the closed-loop client, the server and cc from bouncing
    # between shared cores (measured: serve-mixed p90 spread 26% -> 14%).
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    run = Run(root, args.workload, args.seed, args.seconds)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "plan_digest": run.plan["input_digest"],
              "pinned_cpu": cpu, "host": host_record(), "host_before": host_sample()}
    try:
        run.prime()
        setup_samples = []
        if not args.trace:
            setup_samples = [run.spawn("setup", 0) for _ in range(SETUP_SAMPLES - 1)]
        untraced = run.spawn("timed", 0)
        setup_samples.append(untraced)
        problems = [p for op in untraced["ops"] for p in op["problems"]]
        traced = None
        if args.trace:
            traced = run.spawn("timed", 1)
            problems += [p for op in traced["ops"] for p in op["problems"]]
            problems += [f"traced vs untraced: {p}"
                         for p in compare_counts(untraced["counts"], traced["counts"])]
        counts = dict(untraced["counts"])
        if traced is not None:
            counts.update((k, traced["counts"][k]) for k in EXACT_COUNTS
                          if k in traced["counts"])
        mine = {"seed": args.seed, "input_digest": run.plan["input_digest"],
                "counts": counts}
        counts_path, records = count_records(run)
        problems += check_against_records(mine, records)
    except (PassFailed, subprocess.SubprocessError) as exc:
        print(f"error: {exc}; see {run.dir}", file=sys.stderr)
        return 1
    record["host_after"] = host_sample()
    record["setup_samples"] = [{k: s[k] for k in ("setup_s", "setup_slowdown")}
                               for s in setup_samples]
    record["raw"] = raw_end_to_end(untraced, setup_samples)
    record["counts"] = counts
    record["problems"] = problems[:50]
    attempted = len(untraced["ops"])
    failed = sum(1 for op in untraced["ops"] if op["problems"])
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setup_samples)
    record["metrics"] = metrics
    (run.dir / "record.json").write_text(json.dumps(record, indent=1))
    if not problems:
        counts_path.parent.mkdir(parents=True, exist_ok=True)
        counts_path.write_text(json.dumps((records + [mine])[-200:]))
    for problem in problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
