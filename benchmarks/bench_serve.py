"""Service benchmark: closed-loop load against ``repro serve``.

Drives a live server (spawned as a subprocess, exactly as a user would
run it) with concurrent closed-loop clients and reports three things the
service was built to deliver:

* **warm vs cold latency** — the first request of each distinct job pays
  the full compile+simulate cost; repeats are artifact-store hits, so
  the warm p50 should sit orders of magnitude under the cold mean;
* **dedup effectiveness** — N concurrent clients all requesting the same
  (machine, kernel, mode) coalesce onto one pipeline execution; the
  ``/v1/stats`` counters prove how many executions the store and the
  in-flight map absorbed;
* **sustained request throughput** — total requests served per wall
  second across the run, plus the server-side per-endpoint percentiles.

Asserts correctness invariants (every response identical to the first
cold result; executed counts match the distinct-job count), not timing
floors — shared runners are too noisy for ratio asserts in smoke mode.

Run:  python benchmarks/bench_serve.py [--smoke] [--json [PATH]]
      (--smoke shrinks the matrix and client count for CI)
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # standalone `python benchmarks/...` without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve import ServeClient

#: (machine, kernel) jobs driven through the server
FULL_JOBS = (
    ("m-tta-2", "mips"),
    ("m-tta-2", "motion"),
    ("m-vliw-2", "mips"),
    ("mblaze-3", "gsm"),
)
SMOKE_JOBS = (("m-tta-2", "mips"),)
#: the dedup storm's job: a pair neither job list runs, so the store has
#: not seen it (fast, turbo and native share one result key)
STORM_JOB = ("p-tta-2", "mips")

#: concurrent closed-loop clients in the dedup phase
FULL_CLIENTS = 8
SMOKE_CLIENTS = 4

#: warm-phase requests per client
FULL_WARM_REQUESTS = 50
SMOKE_WARM_REQUESTS = 10


def bench_start_server(store_dir: str, jobs: int) -> tuple[subprocess.Popen, int]:
    """Spawn ``repro serve --port 0`` and return (process, bound port)."""
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src")
    env["REPRO_CACHE_DIR"] = store_dir
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", str(jobs)],
        cwd=repo, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stderr.readline()
    if "serving on http://" not in line:
        proc.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, port


def bench_dedup_storm(port: int, machine: str, kernel: str,
                      clients: int) -> dict:
    """All clients request the identical *cold* job at once; exactly one
    pipeline execution must absorb the whole storm (the rest coalesce
    in-flight or hit the store just after the winner finishes)."""
    barrier = threading.Barrier(clients)
    results: list[dict] = [None] * clients
    latencies: list[float] = [0.0] * clients

    def worker(slot: int) -> None:
        with ServeClient("127.0.0.1", port, timeout=600) as client:
            barrier.wait()
            start = time.perf_counter()
            results[slot] = client.run(machine, kernel=kernel, mode="turbo")
            latencies[slot] = time.perf_counter() - start

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    reference = results[0]["result"]
    for got in results[1:]:
        assert got["result"] == reference, "dedup changed a response payload"
    return {
        "clients": clients,
        "wall_s": round(elapsed, 3),
        "mean_latency_s": round(sum(latencies) / clients, 3),
        "max_latency_s": round(max(latencies), 3),
        "cycles": reference["cycles"],
    }


def bench_warm_loop(port: int, jobs, requests_per_client: int,
                    clients: int) -> dict:
    """Closed-loop warm-cache load: every request is a store hit."""
    latencies: list[list[float]] = [[] for _ in range(clients)]

    def worker(slot: int) -> None:
        with ServeClient("127.0.0.1", port, timeout=600) as client:
            for i in range(requests_per_client):
                machine, kernel = jobs[(slot + i) % len(jobs)]
                start = time.perf_counter()
                got = client.run(machine, kernel=kernel, mode="fast")
                latencies[slot].append(time.perf_counter() - start)
                assert got["cached"] is True, "warm request missed the store"

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    flat = sorted(lat for per in latencies for lat in per)
    total = len(flat)
    return {
        "requests": total,
        "wall_s": round(elapsed, 3),
        "throughput_rps": round(total / elapsed, 1),
        "p50_ms": round(flat[total // 2] * 1e3, 3),
        "p99_ms": round(flat[min(total - 1, total * 99 // 100)] * 1e3, 3),
        "max_ms": round(flat[-1] * 1e3, 3),
    }


def run_benchmark(smoke: bool) -> dict:
    jobs = SMOKE_JOBS if smoke else FULL_JOBS
    clients = SMOKE_CLIENTS if smoke else FULL_CLIENTS
    warm_requests = SMOKE_WARM_REQUESTS if smoke else FULL_WARM_REQUESTS

    doc: dict = {"smoke": smoke, "jobs": [f"{m}/{k}" for m, k in jobs]}
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as store_dir:
        proc, port = bench_start_server(store_dir, jobs=2)
        try:
            with ServeClient("127.0.0.1", port) as client:
                assert client.healthz()["status"] == "ok"

            # phase 1: cold, sequential -- the baseline cost of each job
            cold = {}
            with ServeClient("127.0.0.1", port, timeout=600) as client:
                for machine, kernel in jobs:
                    start = time.perf_counter()
                    got = client.run(machine, kernel=kernel, mode="fast")
                    cold[f"{machine}/{kernel}"] = {
                        "latency_s": round(time.perf_counter() - start, 3),
                        "cycles": got["result"]["cycles"],
                        "cached": got["cached"],
                    }
                    assert got["cached"] is False
            doc["cold"] = cold

            # phase 2: dedup storm on a job the store has NOT seen
            storm_machine, storm_kernel = STORM_JOB
            with ServeClient("127.0.0.1", port, timeout=600) as client:
                stats_before = client.stats()["dedup"]
            doc["dedup_storm"] = bench_dedup_storm(
                port, storm_machine, storm_kernel, clients
            )
            with ServeClient("127.0.0.1", port, timeout=600) as client:
                stats_after = client.stats()["dedup"]
            absorbed = {
                "executed_delta":
                    stats_after["executed"] - stats_before["executed"],
                "coalesced_delta":
                    stats_after["coalesced"] - stats_before["coalesced"],
                "cache_hits_delta":
                    stats_after["cache_hits"] - stats_before["cache_hits"],
            }
            # the acceptance contract: N identical concurrent requests,
            # ONE pipeline execution; the rest coalesce in-flight or hit
            # the store entry the winner just wrote
            assert absorbed["executed_delta"] == 1, absorbed
            assert (absorbed["cache_hits_delta"]
                    + absorbed["coalesced_delta"]) == clients - 1, absorbed
            doc["dedup_storm"]["absorbed"] = absorbed

            # phase 3: warm closed loop
            doc["warm"] = bench_warm_loop(port, jobs, warm_requests, clients)

            # server-side view
            with ServeClient("127.0.0.1", port) as client:
                server_stats = client.stats()
            doc["server"] = {
                "dedup": server_stats["dedup"],
                "run_endpoint": server_stats["endpoints"].get("POST /v1/run"),
                "store": {
                    k: server_stats["store"][k]
                    for k in ("hits", "misses", "corrupt_dropped")
                },
            }
            # phase 1 executed each job once; the storm added exactly one
            assert server_stats["dedup"]["executed"] == len(jobs) + 1
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                _, stderr = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                _, stderr = proc.communicate()
        doc["drained_cleanly"] = ("drained:" in stderr
                                  and proc.returncode == 0)
        assert doc["drained_cleanly"], stderr
    return doc


def format_report(doc: dict) -> str:
    lines = [f"serve benchmark ({'smoke' if doc['smoke'] else 'full'})", ""]
    lines.append(f"{'job':20s} {'cold':>10s}")
    for name, row in doc["cold"].items():
        lines.append(f"{name:20s} {row['latency_s']:8.3f}s")
    storm = doc["dedup_storm"]
    lines.append("")
    lines.append(
        f"dedup storm: {storm['clients']} concurrent identical requests "
        f"in {storm['wall_s']}s (mean {storm['mean_latency_s']}s) -- "
        f"executed {storm['absorbed']['executed_delta']} pipeline job(s)"
    )
    warm = doc["warm"]
    lines.append(
        f"warm loop:   {warm['requests']} requests in {warm['wall_s']}s "
        f"({warm['throughput_rps']} req/s; p50 {warm['p50_ms']}ms, "
        f"p99 {warm['p99_ms']}ms)"
    )
    lines.append(f"graceful drain: {'ok' if doc['drained_cleanly'] else 'FAILED'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop load benchmark for the repro service"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: 1 job, 4 clients")
    parser.add_argument("--json", nargs="?", const="BENCH_serve.json",
                        default=None, metavar="PATH",
                        help="write machine-readable results "
                        "(default BENCH_serve.json)")
    args = parser.parse_args(argv)
    doc = run_benchmark(smoke=args.smoke or bool(os.environ.get("REPRO_BENCH_SMOKE")))
    print(format_report(doc))
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
