"""One cold pass of one workload, in a fresh process.

``run.py`` spawns this script once per pass with a fresh
``REPRO_CACHE_DIR``; it is not meant to be run by hand::

    python3 perfbench/worker.py --workload sweep-cold --plan plan.json \\
        --out out.json --role timed --trace 0 --spawned-at <monotonic> \\
        --claim <fresh path>

``--role setup`` stops after set-up (a set-up time sample);
``--role timed`` runs the timed phase, checks every output, and writes
per-op latencies, exact counts and -- with ``--trace 1`` -- the spans and
per-layer numbers to ``--out``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import pickle
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

from checks import check_pair, golden_entry, inactive_layers, percentile
from hostspeed import Clock, op_slowdowns, probe, slowdown
from tracing import SELF_METRICS, Recorder, adopt, bucket_totals, self_times

#: probes after set-up, for the slowdown of a set-up time sample
SETUP_PROBES = 20
#: probes after every op of sweep-cold (about 140 ms per op)
SWEEP_PROBES = 2
#: probes after every evaluation of explore-native (about 6 s each)
EXPLORE_PROBES = 20
#: serve-mixed takes SERVE_PROBES probes every SERVE_PROBE_EVERY requests
SERVE_PROBES = 2
SERVE_PROBE_EVERY = 25


class GuardError(RuntimeError):
    """The pass did not start cold; it must fail instead of measuring."""


def _cache_dir() -> Path:
    return Path(os.environ["REPRO_CACHE_DIR"])


def guard_fresh_process(claim: str) -> None:
    """A new interpreter with no ``repro`` state and an empty cache dir.

    *claim* is a path the orchestrator names once per spawn; creating it
    exclusively proves this process was not reused for a second pass.
    """
    loaded = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
    if loaded:
        raise GuardError(f"repro already imported: {loaded[:3]}")
    try:
        fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise GuardError(f"process claim {claim} already used") from None
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    cache = _cache_dir()
    if cache.exists() and any(cache.iterdir()):
        raise GuardError(f"REPRO_CACHE_DIR {cache} is not empty")


def guard_empty_store(store) -> None:
    """The store holds no results, programs or blobs, and no native
    shared object is loaded in this process."""
    counts = store.entry_count()
    if any(counts.values()):
        raise GuardError(f"store at {store.root} is not empty: {counts}")
    native = sys.modules.get("repro.sim.native")
    if native is not None and native._LIB_CACHE:
        raise GuardError("native shared objects already loaded")


def _rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# wrappers around each layer's public entry points (traced pass only)
# ---------------------------------------------------------------------------


def install_store_spans(rec: Recorder) -> None:
    """Spans around fingerprinting and artifact-store reads and writes
    (also installed in the traced ``serve-mixed`` server process)."""
    import importlib

    from repro.pipeline.store import ArtifactStore

    # the package re-exports a function named like the module
    sweep_module = importlib.import_module("repro.pipeline.sweep")
    rec.wrap(sweep_module, "task_fingerprint", "pipeline.fingerprint")
    for method in ("load_result", "load_program", "load_json", "load_blob"):
        rec.wrap(ArtifactStore, method, "pipeline.store_read")
    for method in ("store_result", "store_program", "store_json", "store_blob"):
        rec.wrap(ArtifactStore, method, "pipeline.store_write")


def install_layer_spans(rec: Recorder) -> dict:
    """Wrap every layer's public entry point in *rec* spans.  Returns the
    state the post-run accounting needs (cold native runs to re-run warm,
    and the unwrapped ``run_compiled``)."""
    import importlib

    import repro.backend
    import repro.fpga
    import repro.frontend
    import repro.ir.passes
    import repro.machine
    import repro.sim
    import repro.sim.native
    from repro.pipeline.store import default_store

    # the package re-exports a function named like the module
    engine_module = importlib.import_module("repro.explore.engine")

    sources_seen: set[str] = set()

    def after_frontend(_span, _module, args, kwargs):
        source = args[0] if args else kwargs["source"]
        rec.counts["frontend.calls"] += 1
        if source in sources_seen:
            rec.counts["frontend.repeats"] += 1
        sources_seen.add(source)

    def after_ir(_span, _result, args, kwargs):
        module = args[0] if args else kwargs["module"]
        rec.counts["ir.instrs"] += sum(
            len(block.instrs) + (block.terminator is not None)
            for function in module.functions.values()
            for block in function.blocks.values()
        )

    def after_backend(_span, compiled, _args, _kwargs):
        rec.counts["backend.instrs"] += compiled.instruction_count

    def after_cgen(_span, native_program, _args, _kwargs):
        if native_program is not None:
            rec.counts["sim.native.c_bytes"] += len(native_program.source)

    rec.wrap(repro.frontend, "compile_source", "frontend", after_frontend)
    rec.wrap(repro.ir.passes, "optimize_module", "ir", after_ir)
    rec.wrap(repro.backend, "compile_for_machine", "backend", after_backend)
    rec.wrap(repro.sim.native, "build_native_program", "sim.native.cgen", after_cgen)
    rec.wrap(repro.fpga, "synthesize", "fpga")
    rec.wrap(repro.machine, "encode_machine", "fpga")
    rec.wrap(engine_module, "mutate_machine", "explore.mutate")
    install_store_spans(rec)

    original_run = repro.sim.run_compiled
    cold_native: list[tuple[dict, object]] = []

    def run_compiled(compiled, *args, **kwargs):
        if not rec.active:
            return original_run(compiled, *args, **kwargs)
        style = compiled.machine.style.value
        engine = "scalar" if style == "scalar" else kwargs.get("mode", "fast")
        store = default_store()
        blobs_before = store.stats.blob_writes if store is not None else 0
        with rec.span(f"sim.run.{engine}", style=style) as span:
            result = original_run(compiled, *args, **kwargs)
        span["cycles"] = result.cycles
        if engine == "native":
            written = (store.stats.blob_writes if store is not None else 0) - blobs_before
            rec.counts["sim.native.cc_calls"] += written
            if written:
                cold_native.append((span, compiled))
        return result

    repro.sim.run_compiled = run_compiled
    return {"cold_native": cold_native, "run_compiled": original_run}


def layer_metrics(rec: Recorder, hooks: dict) -> dict:
    """Per-layer numbers of a traced pass (self times account for the
    whole traced wall time; see :mod:`tracing`)."""
    roots = [s for s in rec.spans if s["parent"] is None]
    if len(roots) != 1:
        raise RuntimeError(f"trace has {len(roots)} root spans, expected 1")
    wall_s = roots[0]["end"] - roots[0]["start"]
    totals = bucket_totals(rec.spans)
    out = {SELF_METRICS[bucket]: seconds for bucket, seconds in totals.items()}
    out["bench.traced_wall_s"] = wall_s
    accounted = sum(totals.values())
    if abs(accounted - wall_s) > 1e-6 * max(1.0, wall_s):
        raise RuntimeError(
            f"trace accounting: self times sum to {accounted:.6f}s, "
            f"wall is {wall_s:.6f}s"
        )

    calls = rec.counts["frontend.calls"]
    out["frontend.calls"] = calls
    out["frontend.repeat_frac"] = rec.counts["frontend.repeats"] / calls if calls else 0.0
    out["ir.instrs"] = rec.counts["ir.instrs"]
    out["backend.instrs"] = rec.counts["backend.instrs"]

    # Python-engine throughput per core style (native runs include cc)
    own_times = self_times(rec.spans)
    for style in ("tta", "vliw", "scalar"):
        spans = [s for s in rec.spans if s.get("style") == style
                 and s["name"] in ("sim.run.fast", "sim.run.turbo", "sim.run.scalar")]
        seconds = sum(own_times[s["id"]] for s in spans)
        cycles = sum(s["cycles"] for s in spans)
        out[f"sim.{style}.mcycles_per_s"] = cycles / seconds / 1e6 if seconds else 0.0

    out["sim.native.c_kib"] = round(rec.counts["sim.native.c_bytes"] / 1024, 3)
    out["sim.native.cc_calls"] = rec.counts["sim.native.cc_calls"]
    # cc time = first native run - its cgen - a warm re-run of the same
    # program (whose engine is now cached on the program)
    cgen: dict[int, float] = {}
    for span in rec.spans:
        if span["name"] == "sim.native.cgen" and span["parent"] is not None:
            cgen[span["parent"]] = cgen.get(span["parent"], 0.0) + span["end"] - span["start"]
    out["sim.native.cc_s"] = 0.0
    for span, compiled in hooks["cold_native"]:
        start = time.perf_counter()
        hooks["run_compiled"](compiled, mode="native")
        warm = time.perf_counter() - start
        out["sim.native.cc_s"] += span["end"] - span["start"] - cgen.get(span["id"], 0.0) - warm
    return out


# ---------------------------------------------------------------------------
# workloads: setup(plan) -> store to guard; timed(rec) -> ops;
# finish(ops) -> (exact counts, extra per-layer numbers), outside timing
# ---------------------------------------------------------------------------


def _result_dict(result) -> dict:
    return {"exit_code": result.exit_code, "cycles": result.cycles, **result.extras}


def _golden_for(kernel: str):
    """The pinned golden of a golden-bearing kernel (``fft`` and promoted
    corpus kernels), or ``None``; a golden whose source hash does not
    match the kernel source is an error, not a skip."""
    import repro.kernels
    from repro.corpus.goldens import load_golden, source_sha256

    if kernel in repro.kernels.KERNELS:
        return None
    if kernel in repro.kernels.EXTRA_KERNELS:
        path = Path(repro.kernels.__file__).parent / "goldens" / f"{kernel}.golden.json"
    else:
        path = repro.kernels.promoted_dir() / f"{kernel}.golden.json"
    golden = load_golden(path)
    if golden["source_sha256"] != source_sha256(repro.kernels.load(kernel)):
        raise ValueError(f"golden {path} pins a different {kernel} source")
    return golden


class SweepCold:
    """``repro.pipeline`` sweep, fast mode, ``jobs=1``, empty store."""

    def setup(self, plan):
        from repro.machine import preset_names
        from repro.pipeline import build_tasks, default_store
        from repro.sim.native import find_compiler

        self.tasks = build_tasks(preset_names(), plan["kernels"], mode=plan["mode"])
        self.store = default_store()
        find_compiler()
        return self.store

    def timed(self, rec, clock):
        from repro.pipeline import sweep_tasks

        events = []

        def progress(_done, _total, task, result):
            with rec.span("bench.callback"):
                events.append((clock.now(), task, result))
                clock.sample(SWEEP_PROBES)
                rec.op += 1

        clock.sample(SWEEP_PROBES)
        start = clock.now()
        with rec.span("pipeline.sweep_tasks"):
            sweep_tasks(self.tasks, jobs=1, store=self.store, progress=progress)
        return _ops_from_events(start, events, lambda _event: True)

    def finish(self, ops):
        from repro.kernels import expected_exit
        from repro.machine import build_machine

        goldens: dict = {}
        styles: dict = {}
        results = []
        for op in ops:
            result = op.pop("result")
            if not hasattr(result, "exit_code"):
                op["problems"] = [f"{result.error_type}: {result.message}"]
                continue
            results.append(result)
            kernel, machine = result.kernel, result.machine
            if kernel not in goldens:
                goldens[kernel] = _golden_for(kernel)
            if machine not in styles:
                styles[machine] = build_machine(machine).style.value
            golden = goldens[kernel]
            entry = golden_entry(golden, machine, styles[machine]) if golden else None
            op["problems"] = check_pair(_result_dict(result), expected_exit(kernel), entry)
            if golden is not None and entry is None:
                op["problems"].append(f"golden of {kernel} does not pin {machine}")
        return _pipeline_counts(results, self.store.stats), {
            "pipeline.store_misses": self.store.stats.misses,
        }


class ExploreNative:
    """``repro.explore.run_explore``, native engine, ``jobs=1``."""

    def setup(self, plan):
        from repro.explore import ExploreConfig
        from repro.machine import build_machine
        from repro.pipeline import default_store
        from repro.sim.native import find_compiler

        self.plan = plan
        self.bases = [build_machine(name) for name in plan["base"]]
        if find_compiler() is None:
            raise RuntimeError("explore-native needs a C compiler on PATH")
        self.config = ExploreConfig(
            base=tuple(plan["base"]),
            kernels=tuple(plan["kernels"]),
            generations=0,
            population=1,
            seed=plan["campaign_seed"],
            mode="native",
            jobs=1,
        )
        self.store = default_store()
        return self.store

    def spawn_mutants(self) -> None:
        """The campaign's generation step over the bases: structurally-new
        mutants from a seeded chain of ``mutate_machine`` draws, as
        ``run_explore`` spawns them (they are not evaluated)."""
        from repro.explore import engine
        from repro.explore.mutate import campaign_rng
        from repro.machine.serialize import machine_digest

        rng = campaign_rng(f"perfbench:{self.plan['campaign_seed']}")
        seen = {machine_digest(machine) for machine in self.bases}
        wanted = self.plan["mutants"]
        self.mutants = self.no_child = attempts = 0
        while self.mutants < wanted and attempts < 8 * wanted:
            attempts += 1
            parent = self.bases[rng.randrange(len(self.bases))]
            child = engine.mutate_machine(parent, rng)
            if child is None:
                self.no_child += 1
                continue
            digest = machine_digest(child)
            if digest not in seen:
                seen.add(digest)
                self.mutants += 1

    def timed(self, rec, clock):
        from repro.explore import run_explore

        events = []

        def progress(_done, _total, task, result):
            with rec.span("bench.callback"):
                events.append((clock.now(), task, result,
                               self.store.stats.blob_writes))
                clock.sample(EXPLORE_PROBES)
                rec.op += 1

        clock.sample(EXPLORE_PROBES)
        start = clock.now()
        with rec.span("explore.spawn_mutants"):
            self.spawn_mutants()
        with rec.span("explore.run_explore"):
            self.outcome = run_explore(self.config, store=self.store, progress=progress)
        blobs = [0] + [event[3] for event in events]
        return _ops_from_events(
            start, [e[:3] for e in events],
            # a miss is an evaluation that wrote a new shared object (ran cc)
            lambda index: blobs[index + 1] > blobs[index],
        )

    def finish(self, ops):
        """Re-run every feasible result under turbo; cycles and every
        counter must match the native run."""
        from repro.kernels import expected_exit
        from repro.pipeline import execute_task

        results = []
        for op in ops:
            result, task = op.pop("result"), op.pop("task")
            if not hasattr(result, "exit_code"):
                op["problems"] = [f"{result.error_type}: {result.message}"]
                continue
            results.append(result)
            turbo = execute_task(replace(task, mode="turbo"))
            op["problems"] = check_pair(
                _result_dict(result), expected_exit(task.kernel), _result_dict(turbo)
            )
        stats = self.outcome.stats
        return _pipeline_counts(results, self.store.stats), {
            "pipeline.store_misses": self.store.stats.misses,
            "explore.candidates": stats.evaluated + stats.infeasible + self.mutants,
            "explore.infeasible": stats.infeasible + self.no_child,
        }


def _pipeline_counts(results, store_stats) -> dict:
    """Exact counts of an in-process pipeline workload."""
    return {
        "sim.cycles": sum(r.cycles for r in results),
        "backend.instrs": sum(r.instruction_count for r in results),
        "pipeline.store_hits": store_stats.hits,
        "sim.native.cc_calls": store_stats.blob_writes,
        "serve.executed": 0,
    }


def _ops_from_events(start, events, is_miss):
    """Per-op records from ``(completed_at, task, result)`` events; an op's
    latency is the interval since the previous completion."""
    ops = []
    previous = start
    for index, (stamp, task, result) in enumerate(events):
        ops.append({
            "span": (previous, stamp),
            "lat_ms": (stamp - previous) * 1e3,
            "miss": is_miss(index),
            "task": task,
            "result": result,
        })
        previous = stamp
    return ops


class ServeMixed:
    """``repro serve --jobs 1`` subprocess, one closed-loop client."""

    def __init__(self, spans_path: Path | None = None):
        #: set in the traced pass: the server records its own spans there
        self.spans_path = spans_path

    def setup(self, plan):
        from repro.pipeline import ArtifactStore
        from repro.serve.client import ServeClient

        self.plan = plan
        launcher = ["-m", "repro"]
        if self.spans_path is not None:
            launcher = [str(Path(__file__).with_name("serve_traced.py")),
                        str(self.spans_path)]
        self.proc = subprocess.Popen(
            [sys.executable, *launcher, "serve", "--port", "0", "--jobs", "1"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr_tail: list[str] = []
        line = self.proc.stderr.readline()
        self.stderr_tail.append(line)
        if "serving on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {''.join(self.stderr_tail)!r}")
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        port = int(line.split("serving on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.client = ServeClient("127.0.0.1", port, timeout=120.0)
        self.client.healthz()
        self.stats_before = self.client.stats()
        return ArtifactStore(_cache_dir())

    def _read_stderr(self):
        for line in self.proc.stderr:
            self.stderr_tail = (self.stderr_tail + [line])[-20:]

    def timed(self, rec, clock):
        from repro.serve.client import ServeError

        jobs = self.plan["jobs"]
        client = self.client
        ops = []
        for op_id, index in enumerate(self.plan["sequence"]):
            job = jobs[index]
            rec.op = op_id
            if op_id % SERVE_PROBE_EVERY == 0:
                with rec.span("bench.probe"):
                    clock.sample(SERVE_PROBES)
            start = clock.now()
            with rec.span("serve.request"):
                try:
                    if job["kind"] == "run":
                        payload = client.run(job["machine"], kernel=job["kernel"],
                                             mode=job["mode"])
                    else:
                        payload = client.compile(job["machine"], kernel=job["kernel"])
                    status = 200
                except ServeError as exc:
                    payload, status = exc.payload, exc.status
                except (OSError, http.client.HTTPException) as exc:
                    payload, status = {"error": repr(exc)}, 0
            end = clock.now()
            ops.append({
                "span": (start, end),
                "lat_ms": (end - start) * 1e3,
                "job": index,
                "status": status,
                "payload": _serve_summary(job, payload) if status == 200 else payload,
            })
        return ops

    def finish(self, ops):
        """Compare every response with an in-process compile + run of the
        same pair, then account misses against ``/v1/stats``."""
        from repro.backend import compile_for_machine
        from repro.frontend import compile_source
        from repro.kernels import expected_exit, load
        from repro.machine import build_machine, encode_machine
        from repro.pipeline import result_extras
        from repro.sim import run_compiled

        stats_after = self.client.stats()
        self.stop()
        jobs = self.plan["jobs"]
        reference: dict[int, tuple] = {}
        cost_ms: dict[int, float] = {}
        programs: dict[tuple[str, str], tuple] = {}
        for index, job in enumerate(jobs):
            pair = (job["machine"], job["kernel"])
            if pair not in programs:
                machine = build_machine(job["machine"])
                start = time.perf_counter()
                module = compile_source(load(job["kernel"]), module_name=job["kernel"])
                compiled = compile_for_machine(module, machine)
                compile_ms = (time.perf_counter() - start) * 1e3
                programs[pair] = (compiled, compile_ms,
                                  encode_machine(machine).instruction_width)
            compiled, compile_ms, width = programs[pair]
            if job["kind"] == "compile":
                reference[index] = (compiled.instruction_count, width,
                                    compiled.instruction_count * width)
                cost_ms[index] = compile_ms
                continue
            # the server's child simulates a program unpickled from the
            # store, without the engine caches an earlier run left here
            fresh = pickle.loads(pickle.dumps(compiled))
            start = time.perf_counter()
            result = run_compiled(fresh, mode=job["mode"])
            cost_ms[index] = (time.perf_counter() - start) * 1e3
            if result.exit_code != expected_exit(job["kernel"]):
                # a wrong in-process result must not become the reference
                reference[index] = ("exit_code", result.exit_code, "expected",
                                    expected_exit(job["kernel"]))
                continue
            reference[index] = (result.exit_code, result.cycles,
                                compiled.instruction_count,
                                tuple(sorted(result_extras(result).items())))

        counts = {"sim.cycles": 0, "backend.instrs": 0}
        hits, overheads = [], []
        for op in ops:
            job = jobs[op["job"]]
            payload = op.pop("payload")
            if op["status"] != 200:
                op["problems"] = [f"HTTP {op['status']}: {payload}"]
                op["miss"] = False
                continue
            cached, observed = payload
            op["miss"] = not cached
            expected = reference[op["job"]]
            op["problems"] = (
                [] if observed == expected
                else [f"{job}: expected {expected!r}, got {observed!r}"]
            )
            if job["kind"] == "run":
                counts["sim.cycles"] += observed[1]
            counts["backend.instrs"] += observed[0 if job["kind"] == "compile" else 2]
            if cached:
                hits.append(op["lat_ms"])
            else:
                overheads.append(op["lat_ms"] - cost_ms[op["job"]])
        dedup_before = self.stats_before["dedup"]
        dedup_after = stats_after["dedup"]
        delta = {k: dedup_after[k] - dedup_before[k] for k in dedup_after}
        misses = sum(1 for op in ops if op["miss"])
        if delta["executed"] != misses:
            ops[-1]["problems"].append(
                f"/v1/stats executed {delta['executed']} jobs, "
                f"responses report {misses} misses"
            )
        store = stats_after["store"]
        counts["pipeline.store_hits"] = store["hits"] - self.stats_before["store"]["hits"]
        counts["sim.native.cc_calls"] = 0
        counts["serve.executed"] = delta["executed"]
        return counts, {
            "pipeline.store_misses": store["misses"] - self.stats_before["store"]["misses"],
            "serve.hit_p50_ms": percentile(hits, 50) if hits else 0.0,
            "serve.miss_overhead_ms": percentile(overheads, 50) if overheads else 0.0,
            "serve.executed": delta["executed"],
            "serve.cache_hits": delta["cache_hits"],
            "serve.coalesced": delta["coalesced"],
        }

    def stop(self):
        """Drain and stop the server (its forkserver exits with it) and
        wait for it.  The server shares this pass's session, which
        ``run.py`` kills after the pass, should anything outlive it."""
        if hasattr(self, "client"):
            self.client.close()  # an open keep-alive connection delays drain
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)

    def server_spans(self) -> list[dict]:
        """The spans the traced server wrote when it drained."""
        return json.loads(self.spans_path.read_text())

    def children_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_CHILDREN)


def _serve_summary(job: dict, payload: dict) -> tuple:
    """The fields a response is checked on, plus its ``cached`` flag
    (``None`` fields when the response lacks them)."""
    result = payload.get("result") or {}
    if job["kind"] == "compile":
        fields = ("instruction_count", "instruction_width", "program_bits")
        observed = tuple(result.get(f) for f in fields)
    else:
        fields = ("exit_code", "cycles", "instruction_count")
        observed = (*(result.get(f) for f in fields),
                    tuple(sorted((result.get("stats") or {}).items())))
    return payload.get("cached"), observed


WORKLOADS = {
    "sweep-cold": SweepCold,
    "explore-native": ExploreNative,
    "serve-mixed": ServeMixed,
}


def _store_kib() -> float:
    return sum(p.stat().st_size for p in _cache_dir().rglob("*") if p.is_file()) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--role", required=True, choices=("setup", "timed"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--claim", required=True)
    args = parser.parse_args(argv)

    guard_fresh_process(args.claim)
    plan = json.loads(Path(args.plan).read_text())
    if args.workload == "serve-mixed" and args.trace:
        workload = ServeMixed(Path(args.out).with_suffix(".server-spans.json"))
    else:
        workload = WORKLOADS[args.workload]()
    try:
        store = workload.setup(plan)
        guard_empty_store(store)
    except BaseException:
        if isinstance(workload, ServeMixed) and hasattr(workload, "proc"):
            workload.stop()
        raise
    out: dict = {"pid": os.getpid()}

    if args.role == "setup":
        out["setup_s"] = time.monotonic() - args.spawned_at
        out["setup_slowdown"] = slowdown([probe() for _ in range(SETUP_PROBES)])
        if isinstance(workload, ServeMixed):
            workload.stop()
        Path(args.out).write_text(json.dumps(out))
        return 0

    rec = Recorder()
    hooks = install_layer_spans(rec) if args.trace else None
    rec.active = bool(args.trace)
    try:
        out["setup_s"] = time.monotonic() - args.spawned_at
        out["setup_slowdown"] = slowdown([probe() for _ in range(SETUP_PROBES)])
        clock = Clock()
        start = clock.now()
        with rec.span("bench.workload"):
            ops = workload.timed(rec, clock)
        out["timed_s"] = clock.now() - start
        out["peak_rss_mb"] = _rss_mb()
        rec.active = False
        out["store_kib"] = _store_kib()
        finish_start = time.perf_counter()
        counts, layer_extra = workload.finish(ops)
        out["finish_s"] = time.perf_counter() - finish_start
    finally:
        if isinstance(workload, ServeMixed):
            workload.stop()
    if isinstance(workload, ServeMixed):
        out["peak_rss_mb"] += workload.children_rss_mb()
    out["counts"] = counts
    slowdowns = op_slowdowns([op["span"] for op in ops], clock.probes)
    out["ops"] = [
        {"lat_ms": op["lat_ms"], "slowdown": factor, "miss": op["miss"],
         "problems": op["problems"]}
        for op, factor in zip(ops, slowdowns)
    ]
    if args.trace:
        if isinstance(workload, ServeMixed):
            out["server_spans"] = adopt(rec.spans, workload.server_spans(),
                                        "serve.request")
        layers = layer_metrics(rec, hooks)
        layers.update(layer_extra)
        layers["pipeline.store_hits"] = counts["pipeline.store_hits"]
        layers["pipeline.store_kib"] = out["store_kib"]
        layers["sim.cycles"] = counts["sim.cycles"]
        counts["ir.instrs"] = layers["ir.instrs"]
        counts["sim.native.c_kib"] = layers["sim.native.c_kib"]
        idle = inactive_layers(args.workload, layers)
        if idle:
            raise RuntimeError(f"traced {args.workload} recorded no work in "
                               f"{', '.join(idle)}: a layer's wrapper was bypassed")
        out["layers"] = layers
        Path(args.out).with_suffix(".spans.json").write_text(json.dumps(rec.spans))
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
