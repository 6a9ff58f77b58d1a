"""Pipeline subsystem tests: fingerprints, artifact store, executor.

Covers the contract the evaluation layer depends on:

* fingerprint stability (same inputs → same key, including across
  processes) and sensitivity (kernel source / machine description /
  toolchain / flags changes each produce a different key);
* store round-trips, atomic layout, corrupted/truncated-entry recovery;
* per-task failure isolation with structured error records;
* parallel-vs-serial sweep equivalence (identical ``EvalResult`` sets,
  byte-identical serialised payloads, all modes).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.kernels import kernel_source
from repro.machine import build_machine
from repro.pipeline import (
    ArtifactStore,
    EvalResult,
    SweepTask,
    TaskError,
    compile_cached,
    describe_machine,
    fingerprint,
    parse_subset,
    run_tasks,
    sweep,
    task_fingerprint,
    toolchain_fingerprint,
)

#: small matrix that still spans all three core styles (in canonical
#: preset order -- sweep results always iterate in that order)
MACHINES = ("mblaze-3", "m-vliw-2", "m-tta-2")
KERNELS = ("mips", "motion")

GOOD_SOURCE = "int main(void){ int i; int s=0; for(i=0;i<6;i++) s+=i; return s-15; }"
SELF_CHECK_FAIL = "int main(void){ return 3; }"
COMPILE_ERROR = "int main(void){ return ;;; }"

RESULT = EvalResult(
    machine="m-tta-2",
    kernel="mips",
    exit_code=0,
    cycles=55775,
    instruction_count=565,
    instruction_width=90,
    fmax_mhz=201.2,
)


class TestFingerprint:
    def test_deterministic_in_process(self):
        machine = build_machine("m-tta-2")
        source = kernel_source("mips")
        assert fingerprint(machine, source) == fingerprint(machine, source)

    def test_stable_across_processes(self):
        """PYTHONHASHSEED must never leak into keys: recompute the same
        fingerprint in fresh interpreters with different hash seeds."""
        machine = build_machine("m-tta-2")
        here = fingerprint(machine, GOOD_SOURCE)
        code = (
            "from repro.machine import build_machine\n"
            "from repro.pipeline import fingerprint\n"
            f"print(fingerprint(build_machine('m-tta-2'), {GOOD_SOURCE!r}))\n"
        )
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            )
            assert out.stdout.strip() == here

    def test_kernel_source_change_invalidates(self):
        machine = build_machine("m-tta-2")
        base = fingerprint(machine, GOOD_SOURCE)
        assert fingerprint(machine, GOOD_SOURCE + " ") != base

    def test_machine_change_invalidates(self):
        base = fingerprint(build_machine("m-tta-2"), GOOD_SOURCE)
        other = fingerprint(build_machine("p-tta-2"), GOOD_SOURCE)
        assert base != other
        # ... and a structural edit to the same preset changes the key
        machine = build_machine("m-tta-2")
        edited = replace(machine, simm_bits=machine.simm_bits + 1)
        assert fingerprint(edited, GOOD_SOURCE) != base

    def test_flags_and_toolchain_invalidate(self):
        machine = build_machine("m-tta-2")
        base = fingerprint(machine, GOOD_SOURCE)
        assert fingerprint(machine, GOOD_SOURCE, mode="checked") != base
        assert fingerprint(machine, GOOD_SOURCE, optimize=False) != base
        assert fingerprint(machine, GOOD_SOURCE, toolchain="other") != base

    def test_result_key_ignores_the_engine(self):
        """fast, turbo and native are byte-identical by contract, so they
        share one result key; checked and compiled programs keep their
        own."""
        machine = build_machine("m-tta-2")
        shared = {fingerprint(machine, GOOD_SOURCE, mode=mode)
                  for mode in ("fast", "turbo", "native")}
        assert len(shared) == 1
        (result_key,) = shared
        checked = fingerprint(machine, GOOD_SOURCE, mode="checked")
        program = fingerprint(machine, GOOD_SOURCE, mode="program")
        assert len({result_key, checked, program}) == 3

    def test_engine_version_default_is_current(self):
        from repro.sim import SIM_ENGINE_VERSION

        machine = build_machine("m-tta-2")
        assert fingerprint(machine, GOOD_SOURCE) == fingerprint(
            machine, GOOD_SOURCE, engine_version=SIM_ENGINE_VERSION
        )

    def test_engine_version_change_invalidates(self):
        """A sim-engine semantics bump must retire every cached artifact
        the old engine produced, even with identical sources/flags."""
        from repro.sim import SIM_ENGINE_VERSION

        machine = build_machine("m-tta-2")
        base = fingerprint(machine, GOOD_SOURCE, toolchain="pinned")
        bumped = fingerprint(
            machine,
            GOOD_SOURCE,
            toolchain="pinned",
            engine_version=SIM_ENGINE_VERSION + 1,
        )
        assert bumped != base

    def test_engine_version_change_invalidates_store_entries(self, tmp_path):
        """End-to-end: an artifact stored under the old engine version is
        never served once the engine version token changes."""
        from repro.sim import SIM_ENGINE_VERSION

        store = ArtifactStore(tmp_path)
        machine = build_machine("m-tta-2")
        old_key = fingerprint(
            machine, GOOD_SOURCE, toolchain="pinned",
            engine_version=SIM_ENGINE_VERSION,
        )
        store.store_result(old_key, RESULT)
        assert store.load_result(old_key) == RESULT
        new_key = fingerprint(
            machine, GOOD_SOURCE, toolchain="pinned",
            engine_version=SIM_ENGINE_VERSION + 1,
        )
        assert new_key != old_key
        assert store.load_result(new_key) is None

    def test_describe_machine_is_json_canonical(self):
        for name in MACHINES:
            desc = describe_machine(build_machine(name))
            round_tripped = json.loads(json.dumps(desc, sort_keys=True))
            assert round_tripped == desc

    def test_toolchain_fingerprint_is_hex_digest(self):
        digest = toolchain_fingerprint()
        assert len(digest) == 64
        int(digest, 16)

    @staticmethod
    def _fresh_key(machine, source, mode="fast"):
        """The key as the module docstring defines it, computed from
        scratch."""
        import hashlib

        from repro.pipeline.fingerprint import _canonical_json
        from repro.sim import SIM_ENGINE_VERSION

        return hashlib.sha256(_canonical_json({
            "machine": describe_machine(machine),
            "source": source,
            "toolchain": toolchain_fingerprint(),
            "flags": {"key": "result" if mode in ("fast", "turbo", "native") else mode,
                      "optimize": True, "engine": SIM_ENGINE_VERSION},
        })).hexdigest()

    def test_memoised_key_equals_a_fresh_key(self):
        """Every preset, an exploration mutant, and equal but distinct
        machine objects: the memoised key is the from-scratch digest,
        asked for twice."""
        import random

        from repro.explore.mutate import mutate_machine
        from repro.machine import preset_names
        from repro.machine.serialize import machine_from_json, machine_to_json

        source = kernel_source("mips")
        machines = [build_machine(name) for name in preset_names()]
        assert len(machines) == 13
        child = mutate_machine(build_machine("m-tta-2"), random.Random(3))
        assert child is not None
        machines.append(child)
        twin_a = machine_from_json(machine_to_json(build_machine("p-tta-2")))
        twin_b = machine_from_json(machine_to_json(build_machine("p-tta-2")))
        assert twin_a == twin_b and twin_a is not twin_b
        machines += [twin_a, twin_b]
        for machine in machines:
            for mode in ("fast", "program"):
                want = self._fresh_key(machine, source, mode)
                assert fingerprint(machine, source, mode=mode) == want, machine.name
                assert fingerprint(machine, source, mode=mode) == want, machine.name
        # a lone surrogate is hashed, not rejected
        odd = GOOD_SOURCE + "/*\ud800*/"
        assert fingerprint(twin_a, odd) == self._fresh_key(twin_a, odd)

    def test_keying_leaves_no_trace_on_the_program(self, tmp_path):
        """Keys are memoised off the machine: a stored program entry
        pickles the same bytes whether or not its machine was keyed."""
        import pickle

        from repro.machine.serialize import machine_from_json, machine_to_json

        machine = machine_from_json(machine_to_json(build_machine("m-tta-2")))
        compiled = compile_cached(machine, GOOD_SOURCE, "good", use_cache=False)
        before = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
        attrs = set(vars(machine))
        fingerprint(machine, GOOD_SOURCE)
        fingerprint(machine, GOOD_SOURCE, mode="program")
        assert set(vars(machine)) == attrs
        assert pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL) == before
        store = ArtifactStore(tmp_path)
        store.store_program("ab" * 32, compiled)
        assert store.program_path("ab" * 32).read_bytes().endswith(before)

    def test_task_fingerprint_matches_fingerprint(self):
        task = SweepTask(machine="m-tta-2", kernel="x", source=GOOD_SOURCE)
        assert task_fingerprint(task) == fingerprint(
            build_machine("m-tta-2"), GOOD_SOURCE
        )


class TestParseSubset:
    def test_none_gives_all(self):
        assert parse_subset(None, ("a", "b"), "x") == ("a", "b")

    def test_comma_string_and_canonical_order(self):
        assert parse_subset("b,a", ("a", "b", "c"), "x") == ("a", "b")
        assert parse_subset(["b", "b"], ("a", "b"), "x") == ("b",)

    def test_unknown_and_empty_raise(self):
        with pytest.raises(ValueError, match="unknown kernel 'z'"):
            parse_subset("z", ("a",), "kernel")
        with pytest.raises(ValueError, match="empty"):
            parse_subset(" , ", ("a",), "kernel")


class TestArtifactStore:
    def test_result_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ab" * 32
        store.store_result(key, RESULT)
        assert store.load_result(key) == RESULT
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_miss_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load_result("cd" * 32) is None
        assert store.stats.misses == 1

    def test_malformed_key_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError):
            store.result_path("../../etc/passwd")

    @pytest.mark.parametrize(
        "corruption",
        ["truncate", "garbage", "empty", "flipped_payload", "bad_json"],
    )
    def test_corrupt_entry_detected_dropped_and_rebuilt(self, tmp_path, corruption):
        store = ArtifactStore(tmp_path)
        key = "ef" * 32
        path = store.store_result(key, RESULT)
        blob = path.read_bytes()
        if corruption == "truncate":
            path.write_bytes(blob[: len(blob) // 2])
        elif corruption == "garbage":
            path.write_bytes(b"\x00\xff not an artifact")
        elif corruption == "empty":
            path.write_bytes(b"")
        elif corruption == "flipped_payload":
            path.write_bytes(blob[:-3] + bytes([blob[-3] ^ 0xFF]) + blob[-2:])
        elif corruption == "bad_json":
            header, _, _ = blob.partition(b"\n")
            import hashlib

            payload = b'{"schema": 999}'
            header = b"repro-artifact sha256=" + hashlib.sha256(
                payload
            ).hexdigest().encode()
            path.write_bytes(header + b"\n" + payload)
        assert store.load_result(key) is None
        assert not path.exists(), "corrupt entry must be deleted"
        assert store.stats.corrupt_dropped == 1
        # the caller rebuilds transparently:
        store.store_result(key, RESULT)
        assert store.load_result(key) == RESULT

    def test_no_partial_files_after_write(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.store_result("12" * 32, RESULT)
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_stale_tmp_files_collected_on_init(self, tmp_path):
        """A writer killed between mkstemp and os.replace leaks its .tmp
        file; store init removes old orphans but spares fresh ones (a
        concurrent writer may still be mid-flight)."""
        import os

        store = ArtifactStore(tmp_path)
        key = "ab" * 32
        store.store_result(key, RESULT)
        entry_dir = store.result_path(key).parent
        stale = entry_dir / f".{key}.json.xyz123.tmp"
        stale.write_bytes(b"half-written")
        os.utime(stale, (0, 0))  # ancient mtime: well past the threshold
        fresh = entry_dir / f".{key}.json.abc456.tmp"
        fresh.write_bytes(b"mid-flight")

        reopened = ArtifactStore(tmp_path)
        assert not stale.exists(), "stale temp file must be collected"
        assert fresh.exists(), "fresh temp file must be spared"
        assert reopened.stats.stale_tmp_removed == 1
        # the real entry survives and temp files never count as entries
        assert reopened.load_result(key) == RESULT
        assert reopened.entry_count()["results"] == 1

    def test_clear_and_entry_count(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.store_result("aa" * 32, RESULT)
        store.store_result("bb" * 32, RESULT)
        assert store.entry_count()["results"] == 2
        assert store.clear() == 2
        assert store.entry_count()["results"] == 0

    def test_blob_round_trip_and_stats(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "0d" * 32
        payload = bytes(range(256)) * 4
        store.store_blob(key, payload)
        assert store.stats.blob_writes == 1
        assert store.stats.writes == 1, "blob writes count as writes too"
        assert store.entry_count()["blobs"] == 1
        assert store.load_blob(key) == payload
        assert store.load_blob("1e" * 32) is None
        assert store.stats.misses == 1

    def test_blob_corruption_detected_dropped_and_rebuilt(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "2f" * 32
        payload = b"\x7fELF not really a shared object"
        path = store.store_blob(key, payload)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
        assert store.load_blob(key) is None
        assert not path.exists(), "corrupt blob must be deleted"
        assert store.stats.corrupt_dropped == 1
        # the caller rebuilds transparently:
        store.store_blob(key, payload)
        assert store.load_blob(key) == payload

    def test_program_round_trip_and_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        compiled = compile_cached(build_machine("m-tta-1"), kernel_source("mips"), "mips", store=store)
        # second call is a pickle round-trip from disk
        warm = compile_cached(build_machine("m-tta-1"), kernel_source("mips"), "mips", store=store)
        assert warm.instruction_count == compiled.instruction_count
        assert store.entry_count()["programs"] == 1
        [path] = (tmp_path / "programs").rglob("*.pkl")
        path.write_bytes(path.read_bytes()[:40])
        rebuilt = compile_cached(build_machine("m-tta-1"), kernel_source("mips"), "mips", store=store)
        assert rebuilt.instruction_count == compiled.instruction_count

    def test_pickled_handle_keeps_root_and_skips_tmp_gc(self, tmp_path, monkeypatch):
        """A handle sent to a service job child reopens the same store
        with its own counters and without a second stale-tmp GC."""
        import pickle

        store = ArtifactStore(tmp_path)
        store.store_result("ab" * 32, RESULT)
        monkeypatch.setattr(
            ArtifactStore, "_gc_stale_tmp",
            lambda self: pytest.fail("a pickled handle re-ran the tmp GC"),
        )
        copy = pickle.loads(pickle.dumps(store))
        assert copy.root == store.root
        assert copy.stats.writes == 0 and store.stats.writes == 1
        assert copy.load_result("ab" * 32) == RESULT


def _echo_task(task):
    return (task.machine, task.kernel)


def _traced_compiler(store):
    """``compile_on(machine, source, name)``: a traced ``compile_cached``
    through *store*, returning the program and its (module-store hit,
    miss) counters."""
    from repro import obs

    def compile_on(machine, source, name):
        tracer = obs.enable(obs.Tracer(process="test"))
        try:
            compiled = compile_cached(build_machine(machine), source, name,
                                      store=store)
        finally:
            obs.disable()
        counters = tracer.to_payload()["counters"]
        return compiled, (counters.get("frontend.module_store_hit", 0),
                          counters.get("frontend.module_store_miss", 0))

    return compile_on


class TestModuleStore:
    """The optimised IR module is stored once per (source, name,
    optimize) and reused by every later compile of that kernel in any
    process, on any machine."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        from repro.pipeline.executor import optimized_module

        optimized_module.cache_clear()
        yield
        optimized_module.cache_clear()

    @pytest.mark.parametrize("kernel", ["mips", "stress-2024-022"])
    def test_stored_module_compiles_like_a_fresh_one_on_every_preset(
        self, tmp_path, kernel
    ):
        from repro.backend import compile_for_machine
        from repro.backend.asmprint import format_program
        from repro.frontend import compile_source
        from repro.kernels import load
        from repro.machine import preset_names
        from repro.pipeline import result_extras
        from repro.pipeline.fingerprint import module_fingerprint
        from repro.sim import run_compiled

        source = load(kernel)
        store = ArtifactStore(tmp_path)
        key = module_fingerprint(source, kernel)
        store.store_module(key, compile_source(source, module_name=kernel))
        stored = store.load_module(key)
        assert stored is not None
        for name in preset_names():
            machine = build_machine(name)
            fresh = compile_for_machine(
                compile_source(source, module_name=kernel), machine
            )
            loaded = compile_for_machine(stored, machine)
            assert format_program(loaded.program) == format_program(fresh.program), name
            assert loaded.data_init == fresh.data_init
            assert loaded.symbols == fresh.symbols
            want, got = run_compiled(fresh, mode="fast"), run_compiled(loaded, mode="fast")
            assert (got.exit_code, got.cycles, result_extras(got)) == (
                want.exit_code, want.cycles, result_extras(want)
            ), name

    def test_second_preset_loads_the_module_instead_of_parsing(
        self, tmp_path, monkeypatch
    ):
        import repro.frontend
        from repro.pipeline.executor import optimized_module

        parsed = []
        original = repro.frontend.compile_source

        def counting(*args, **kwargs):
            parsed.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.frontend, "compile_source", counting)
        store = ArtifactStore(tmp_path)
        compile_on = _traced_compiler(store)
        _, first = compile_on("m-tta-2", GOOD_SOURCE, "good")
        optimized_module.cache_clear()  # as in a fresh process
        _, second = compile_on("m-vliw-2", GOOD_SOURCE, "good")
        assert (first, second) == ((0, 1), (1, 0))
        assert len(parsed) == 1
        assert store.entry_count()["modules"] == 1
        # in-process reuse never touches the store
        _, third = compile_on("mblaze-3", GOOD_SOURCE, "good")
        assert third == (0, 0) and len(parsed) == 1

    def test_corrupt_module_entry_is_dropped_and_rebuilt(self, tmp_path):
        from repro.pipeline.executor import optimized_module

        store = ArtifactStore(tmp_path)
        compile_on = _traced_compiler(store)
        compile_on("m-tta-2", GOOD_SOURCE, "good")
        [path] = (tmp_path / "modules").rglob("*.pkl")
        path.write_bytes(path.read_bytes()[:40])
        optimized_module.cache_clear()
        got, stats = compile_on("m-tta-1", GOOD_SOURCE, "good")
        assert stats == (0, 1), "a corrupt entry is a miss"
        assert store.stats.corrupt_dropped == 1
        assert got.instruction_count == compile_cached(
            build_machine("m-tta-1"), GOOD_SOURCE, "good", use_cache=False
        ).instruction_count
        # the rebuild rewrote a valid entry
        optimized_module.cache_clear()
        _, stats = compile_on("m-vliw-2", GOOD_SOURCE, "good")
        assert stats == (1, 0)

    def test_no_store_writes_no_module(self, tmp_path):
        compile_cached(build_machine("m-tta-2"), GOOD_SOURCE, "good",
                       store=ArtifactStore(tmp_path), use_cache=False)
        assert not (tmp_path / "modules").exists()

    def test_module_key_tracks_source_name_optimize_and_toolchain(self):
        from repro.pipeline.fingerprint import module_fingerprint

        base = module_fingerprint(GOOD_SOURCE, "good", True, toolchain="t0")
        variants = {
            module_fingerprint(GOOD_SOURCE + " ", "good", True, toolchain="t0"),
            module_fingerprint(GOOD_SOURCE, "other", True, toolchain="t0"),
            module_fingerprint(GOOD_SOURCE, "good", False, toolchain="t0"),
            module_fingerprint(GOOD_SOURCE, "good", True, toolchain="t1"),
            module_fingerprint(GOOD_SOURCE, "good", True, toolchain="t0",
                               engine_version=10**6),
        }
        assert base == module_fingerprint(GOOD_SOURCE, "good", True, toolchain="t0")
        assert base not in variants and len(variants) == 5
        # the default toolchain is this checkout's digest
        assert module_fingerprint(GOOD_SOURCE, "good") == module_fingerprint(
            GOOD_SOURCE, "good", toolchain=toolchain_fingerprint()
        )

    def test_module_entries_are_cleared_counted_and_tmp_collected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "3c" * 32
        path = store.store_module(key, {"not": "a module"})
        assert store.entry_count()["modules"] == 1
        stale = path.parent / f".{key}.pkl.xyz123.tmp"
        stale.write_bytes(b"half-written")
        os.utime(stale, (0, 0))
        assert ArtifactStore(tmp_path).stats.stale_tmp_removed == 1
        assert store.clear() == 1
        assert store.entry_count()["modules"] == 0


class TestExecutor:
    def test_failure_isolation_and_structured_records(self, tmp_path):
        outcome = sweep(
            machines=("m-tta-1",),
            sources={
                "good": GOOD_SOURCE,
                "selfcheck": SELF_CHECK_FAIL,
                "syntax": COMPILE_ERROR,
            },
            store=ArtifactStore(tmp_path),
            retries=0,
        )
        # the failing pairs did not kill the sweep ...
        assert set(outcome.results) == {("m-tta-1", "good")}
        assert outcome.results[("m-tta-1", "good")].exit_code == 0
        # ... and surfaced as structured error records
        assert set(outcome.errors) == {
            ("m-tta-1", "selfcheck"),
            ("m-tta-1", "syntax"),
        }
        selfcheck = outcome.errors[("m-tta-1", "selfcheck")]
        assert selfcheck.error_type == "AssertionError"
        assert "self-check failed" in selfcheck.message
        assert "Traceback" in selfcheck.traceback
        assert selfcheck.attempts == 1
        assert outcome.stats.failed == 2 and outcome.stats.computed == 1

    def test_bounded_retries_recorded(self, tmp_path):
        outcome = sweep(
            machines=("m-tta-1",),
            sources={"boom": SELF_CHECK_FAIL},
            store=ArtifactStore(tmp_path),
            retries=2,
        )
        assert outcome.errors[("m-tta-1", "boom")].attempts == 3
        assert outcome.stats.retried == 2

    def test_parallel_failure_isolation(self, tmp_path):
        outcome = sweep(
            machines=("m-tta-1",),
            sources={"good": GOOD_SOURCE, "syntax": COMPILE_ERROR},
            store=ArtifactStore(tmp_path),
            jobs=2,
            retries=0,
        )
        assert ("m-tta-1", "good") in outcome.results
        assert outcome.errors[("m-tta-1", "syntax")].error_type == "CompileError"

    def test_run_tasks_preserves_order(self):
        tasks = [
            SweepTask(machine="m-tta-1", kernel=f"k{i}", source=GOOD_SOURCE)
            for i in range(3)
        ]
        outcomes = run_tasks(tasks, jobs=2)
        assert [o.kernel for o in outcomes] == ["k0", "k1", "k2"]
        assert all(isinstance(o, EvalResult) for o in outcomes)

    def test_serial_run_groups_kernels_and_keeps_task_order(self):
        tasks = [
            SweepTask(machine=machine, kernel=kernel, source="")
            for machine in ("m-tta-1", "m-vliw-2")
            for kernel in ("b", "a")
        ]
        calls = []
        outcomes = run_tasks(
            tasks,
            progress=lambda _done, _total, task, _outcome: calls.append(
                (task.machine, task.kernel)
            ),
            worker=_echo_task,
        )
        # each kernel's tasks back to back, kernels in first-seen order
        assert calls == [
            ("m-tta-1", "b"), ("m-vliw-2", "b"), ("m-tta-1", "a"), ("m-vliw-2", "a")
        ]
        assert outcomes == [(t.machine, t.kernel) for t in tasks]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_tasks([], retries=-1)


class TestSweepCaching:
    def test_warm_sweep_serves_from_disk(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = sweep(machines=("m-tta-1",), kernels=("mips",), store=store)
        assert cold.stats.computed == 1 and cold.stats.cache_hits == 0
        warm = sweep(machines=("m-tta-1",), kernels=("mips",), store=store)
        assert warm.stats.cache_hits == 1 and warm.stats.computed == 0
        assert warm.results == cold.results

    def test_result_from_one_engine_serves_another(self, tmp_path):
        store = ArtifactStore(tmp_path)
        turbo = sweep(machines=("m-tta-1",), kernels=("mips",), mode="turbo",
                      store=store)
        assert turbo.stats.computed == 1
        native = sweep(machines=("m-tta-1",), kernels=("mips",), mode="native",
                       store=store)
        assert native.stats.computed == 0 and native.stats.cache_hits == 1
        assert native.results == turbo.results

    def test_no_cache_never_touches_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        sweep(
            machines=("m-tta-1",), kernels=("mips",), store=store, use_cache=False
        )
        assert store.entry_count()["results"] == 0

    def test_refresh_recomputes_and_overwrites(self, tmp_path):
        store = ArtifactStore(tmp_path)
        sweep(machines=("m-tta-1",), kernels=("mips",), store=store)
        # poison the entry, then refresh must overwrite it with the truth
        task = SweepTask(
            machine="m-tta-1", kernel="mips", source=kernel_source("mips")
        )
        key = task_fingerprint(task)
        store.store_result(key, replace(RESULT, machine="m-tta-1", cycles=1))
        refreshed = sweep(
            machines=("m-tta-1",), kernels=("mips",), store=store, refresh=True
        )
        assert refreshed.stats.computed == 1
        assert store.load_result(key).cycles == refreshed.results[
            ("m-tta-1", "mips")
        ].cycles > 1

    def test_errors_are_not_cached(self, tmp_path):
        store = ArtifactStore(tmp_path)
        outcome = sweep(
            machines=("m-tta-1",),
            sources={"boom": SELF_CHECK_FAIL},
            store=store,
            retries=0,
        )
        assert outcome.stats.failed == 1
        assert store.entry_count()["results"] == 0


class TestParallelSerialEquivalence:
    @pytest.fixture(scope="class")
    def serial_checked(self, tmp_path_factory):
        return sweep(
            machines=MACHINES,
            kernels=KERNELS,
            mode="checked",
            jobs=1,
            store=ArtifactStore(tmp_path_factory.mktemp("serial")),
        )

    def test_parallel_fast_matches_serial_checked(
        self, serial_checked, tmp_path_factory
    ):
        """The acceptance bar: a parallel fast-mode sweep must produce
        byte-identical EvalResult sets to the serial checked path."""
        parallel = sweep(
            machines=MACHINES,
            kernels=KERNELS,
            mode="fast",
            jobs=4,
            store=ArtifactStore(tmp_path_factory.mktemp("parallel")),
        )
        assert serial_checked.ok and parallel.ok
        assert list(parallel.results) == list(serial_checked.results)
        serial_bytes = json.dumps(
            [r.to_dict() for r in serial_checked.results.values()], sort_keys=True
        ).encode()
        parallel_bytes = json.dumps(
            [r.to_dict() for r in parallel.results.values()], sort_keys=True
        ).encode()
        assert parallel_bytes == serial_bytes

    def test_parallel_checked_matches_too(self, serial_checked, tmp_path_factory):
        parallel = sweep(
            machines=MACHINES,
            kernels=KERNELS,
            mode="checked",
            jobs=3,
            store=ArtifactStore(tmp_path_factory.mktemp("pchecked")),
        )
        assert parallel.results == serial_checked.results

    def test_ordering_is_canonical(self, serial_checked):
        """Results iterate in canonical (preset-order machine, kernel)
        order regardless of job count, cache state or request order."""
        expected = [(m, k) for m in MACHINES for k in KERNELS]
        assert list(serial_checked.results) == expected
        shuffled = sweep(
            machines=tuple(reversed(MACHINES)),
            kernels=tuple(reversed(KERNELS)),
            use_cache=False,
        )
        assert list(shuffled.results) == expected


class TestRunnerCompat:
    """The legacy ``repro.eval.runner`` surface rides on the pipeline."""

    def test_run_sweep_memo_identity_and_clear(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.eval import runner

        runner.sweep_cache_clear()
        first = runner.run_sweep(machines=("m-tta-1",), kernels=("mips",))
        again = runner.run_sweep(machines=("m-tta-1",), kernels=("mips",))
        key = ("m-tta-1", "mips")
        assert again[key] is first[key]
        runner.sweep_cache_clear()
        cleared = runner.run_sweep(machines=("m-tta-1",), kernels=("mips",))
        # same value (served from disk), fresh object (memo was dropped)
        assert cleared[key] == first[key]
        assert cleared[key] is not first[key]
        runner.sweep_cache_clear()

    def test_run_sweep_raises_assertion_error_on_failure(self, tmp_path):
        from repro.eval.runner import SweepFailure
        from repro.pipeline.sweep import sweep as real_sweep

        outcome = real_sweep(
            machines=("m-tta-1",),
            sources={"boom": SELF_CHECK_FAIL},
            store=ArtifactStore(tmp_path),
            retries=0,
        )
        with pytest.raises(AssertionError, match="self-check failed"):
            outcome.raise_on_error()
        with pytest.raises(SweepFailure):
            outcome.raise_on_error()


def _hammer_json_writer(root, key, tag, rounds):
    """Child-process worker: repeatedly overwrite one json entry."""
    store = ArtifactStore(root)
    for round_no in range(rounds):
        store.store_json(key, {"tag": tag, "round": round_no,
                               "payload": list(range(32))})
    return tag


class TestStoreConcurrentWriters:
    """Many writers hammering one key must never expose a torn or
    corrupt entry to readers: every load during the storm returns one of
    the exact payloads some writer wrote (atomic tmp+rename, last write
    wins), and the self-verifying headers never fire."""

    KEY = "ab" * 32

    def test_threaded_writers_readers_see_only_valid_results(self, tmp_path):
        import threading

        writers, rounds = 8, 25
        stop = threading.Event()
        write_errors: list[BaseException] = []
        seen: list[EvalResult] = []
        read_errors: list[BaseException] = []

        def write(tag: int) -> None:
            store = ArtifactStore(tmp_path)
            try:
                for round_no in range(rounds):
                    store.store_result(
                        self.KEY, replace(RESULT, cycles=1000 + tag,
                                          extras={"moves": round_no}),
                    )
            except BaseException as exc:  # pragma: no cover
                write_errors.append(exc)

        def read() -> None:
            store = ArtifactStore(tmp_path)
            try:
                while not stop.is_set():
                    result = store.load_result(self.KEY)
                    if result is not None:
                        seen.append(result)
                assert store.stats.corrupt_dropped == 0
            except BaseException as exc:  # pragma: no cover
                read_errors.append(exc)

        threads = [threading.Thread(target=write, args=(tag,))
                   for tag in range(writers)]
        readers = [threading.Thread(target=read) for _ in range(4)]
        for thread in readers + threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not write_errors and not read_errors
        assert seen  # the readers actually observed the storm
        valid_cycles = {1000 + tag for tag in range(writers)}
        for result in seen:
            # each observation is exactly one writer's payload, whole
            assert result.cycles in valid_cycles
            assert set(result.extras) == {"moves"}
            assert result.machine == RESULT.machine
        # the settled entry is one of the final-round payloads
        final = ArtifactStore(tmp_path).load_result(self.KEY)
        assert final.cycles in valid_cycles
        assert final.extras["moves"] == rounds - 1

    def test_process_writers_last_write_wins_no_corruption(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        procs, rounds = 4, 12
        with ctx.Pool(processes=procs) as pool:
            async_results = [
                pool.apply_async(
                    _hammer_json_writer, (str(tmp_path), self.KEY, tag, rounds)
                )
                for tag in range(procs)
            ]
            reader = ArtifactStore(tmp_path)
            observed = 0
            while not all(r.ready() for r in async_results):
                payload = reader.load_json(self.KEY)
                if payload is not None:
                    observed += 1
                    assert payload["tag"] in range(procs)
                    assert payload["payload"] == list(range(32))
            tags = [r.get(timeout=30) for r in async_results]
        assert sorted(tags) == list(range(procs))
        assert reader.stats.corrupt_dropped == 0
        final = reader.load_json(self.KEY)
        assert final["tag"] in range(procs)
        assert final["round"] == rounds - 1


class TestTaskWallTime:
    """``run_tasks`` surfaces per-task wall time without perturbing any
    persisted or serialised payload."""

    def _task(self) -> SweepTask:
        return SweepTask(machine="m-tta-1", kernel="walltime",
                         source=GOOD_SOURCE)

    def test_wall_ms_in_extras_but_not_in_to_dict(self):
        outcome = run_tasks([self._task()])[0]
        assert isinstance(outcome, EvalResult)
        assert outcome.extras["_wall_ms"] > 0
        serialised = outcome.to_dict()
        assert "_wall_ms" not in serialised["extras"]
        # round-trip drops the transient key entirely
        restored = EvalResult.from_dict(
            json.loads(json.dumps(outcome.to_dict()))
        )
        assert "_wall_ms" not in restored.extras
        assert restored.cycles == outcome.cycles

    def test_traced_outcome_carries_wall_ms(self):
        from repro.pipeline.executor import TracedOutcome

        traced = run_tasks([self._task()], trace=True)[0]
        assert isinstance(traced, TracedOutcome)
        assert traced.wall_ms is not None and traced.wall_ms > 0
        assert traced.outcome.extras["_wall_ms"] > 0
        assert isinstance(traced.trace, dict)

    def test_store_payload_unaffected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        outcome = run_tasks([self._task()])[0]
        key = "cd" * 32
        store.store_result(key, outcome)
        loaded = store.load_result(key)
        assert "_wall_ms" not in loaded.extras
        assert loaded.cycles == outcome.cycles

    def test_failed_task_wall_time_not_required(self, tmp_path):
        outcome = sweep(
            machines=("m-tta-1",),
            sources={"syntax": COMPILE_ERROR},
            store=ArtifactStore(tmp_path),
            retries=0,
        )
        error = outcome.errors[("m-tta-1", "syntax")]
        assert isinstance(error, TaskError)  # no extras, no crash


class TestJsonSchemaVersions:
    """``--json`` documents carry an explicit schema_version field."""

    def test_sweep_to_dict_has_schema_version(self, tmp_path):
        from repro.pipeline import SWEEP_JSON_SCHEMA

        outcome = sweep(
            machines=("m-tta-1",), kernels=("mips",),
            store=ArtifactStore(tmp_path),
        )
        doc = outcome.to_dict()
        assert doc["schema_version"] == SWEEP_JSON_SCHEMA == 1
        assert list(doc)[0] == "schema_version"

    def test_fuzz_report_to_dict_has_schema_version(self):
        from repro.fuzz import FUZZ_JSON_SCHEMA
        from repro.fuzz.harness import FuzzReport

        doc = FuzzReport(seed=7, count=0).to_dict()
        assert doc["schema_version"] == FUZZ_JSON_SCHEMA == 1
        assert list(doc)[0] == "schema_version"


class TestIncrementalWritebackAndResume:
    """Fresh results persist as each pair completes, so a killed sweep or
    exploration campaign resumes from everything already measured."""

    class _Killed(RuntimeError):
        pass

    def test_sweep_writes_back_before_progress(self, tmp_path):
        store = ArtifactStore(tmp_path)
        seen: list[int] = []

        def killer(done, total, task, outcome):
            seen.append(store.entry_count()["results"])
            if done == 2:
                raise self._Killed()

        with pytest.raises(self._Killed):
            sweep(
                machines=("m-tta-1",),
                sources={"a": GOOD_SOURCE, "b": GOOD_SOURCE + " "},
                store=store,
                progress=killer,
            )
        # both completed pairs were persisted before the kill landed
        assert seen == [1, 2]
        assert store.entry_count()["results"] == 2

    def test_killed_explore_campaign_resumes_as_cache_hits(self, tmp_path):
        from repro.explore import ExploreConfig, run_explore

        cfg = ExploreConfig(
            base=("m-tta-1",),
            kernels=("mips",),
            generations=1,
            population=3,
            seed=5,
            mode="fast",
        )
        store = ArtifactStore(tmp_path / "store")
        calls: list[tuple[str, str]] = []

        def killer(done, total, task, outcome):
            calls.append(task.pair)
            if len(calls) == 2:  # die mid-generation, after 2 of 4 pairs
                raise self._Killed()

        with pytest.raises(self._Killed):
            run_explore(cfg, store=store, progress=killer)
        persisted = store.entry_count()["results"]
        assert persisted == 2

        resumed = run_explore(cfg, store=store)
        # the pairs measured before the kill are served from the store
        assert resumed.stats.cache_hits >= persisted
        assert resumed.stats.computed >= 1

        # same seed, fresh store: byte-identical frontier payload
        fresh = run_explore(cfg, store=ArtifactStore(tmp_path / "other"))
        assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
            fresh.to_dict(), sort_keys=True
        )
