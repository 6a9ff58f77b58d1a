"""Native (C engine) tests.

The native engine must be bit- and cycle-exact with the checked
reference engine — exit code, cycle count and **every** statistics
counter — on every CHStone-style workload, on both machine styles.
Dynamic schedule violations (early FU reads, non-monotonic result
pushes, overlapping control transfers, out-of-range PCs and memory
accesses, cycle-budget exhaustion) must raise the same exception type
with byte-identical message text.

The tier also has an availability contract: no C compiler (or a
program the encoder refuses) degrades to the fast engine with exactly
one RuntimeWarning and unchanged results (sweep, explore and report
count each pair that degraded), and the engine's one shared object
round-trips through the artifact store's blob kind so warm runs never
invoke the compiler.
"""

from __future__ import annotations

import json
import pickle
import warnings
from dataclasses import asdict

import pytest

from repro import build_machine, compile_for_machine, compile_source
from repro.backend.mop import Imm, MOp, PhysReg
from repro.backend.program import Move, Program, TTAInstr, VLIWInstr
from repro.kernels import KERNELS, compile_kernel
from repro.sim import (
    SimError,
    TTASimulator,
    VLIWSimulator,
    run_compiled,
    run_compiled_profiled,
)
from repro.sim import native
from repro.sim.cgen import ENTRY_SYMBOL, OPCODES, build_native_program, engine_source

#: one TTA and one VLIW design point; native/checked agreement is
#: style-level, not design-point-level (same policy as test_predecode)
DIFF_MACHINES = ("m-tta-2", "m-vliw-2")

FIB_SRC = """
int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main(void){ return fib(12) - 144; }
"""

requires_cc = pytest.mark.skipif(
    native.find_compiler() is None, reason="no C compiler on PATH"
)

#: the FU-result scenarios run on turbo (a name for fast) and on native;
#: only native needs a C compiler
BLOCK_ENGINES = ("turbo", pytest.param("native", marks=requires_cc))


def _compile(src, machine_name):
    return compile_for_machine(compile_source(src), build_machine(machine_name))


# ---------------------------------------------------------------------------
# differential: every workload, native vs checked, every statistic
# ---------------------------------------------------------------------------


@requires_cc
@pytest.mark.slow  # full kernel x machine differential matrix (compiles C)
@pytest.mark.parametrize("machine_name", DIFF_MACHINES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_identical_native_vs_checked(machine_name, kernel):
    compiled = compile_for_machine(compile_kernel(kernel), build_machine(machine_name))
    checked = run_compiled(compiled, mode="checked")
    nat = run_compiled(compiled, mode="native")
    assert asdict(nat) == asdict(checked), f"{machine_name}/{kernel} diverged"
    assert nat.exit_code == 0


class TestNativeDifferentialSmoke:
    """Small native-vs-checked matrix the CI workflow runs on every push
    (selected by class name; keep it fast: 2 machines x 2 kernels)."""

    @requires_cc
    @pytest.mark.parametrize("machine_name", DIFF_MACHINES)
    @pytest.mark.parametrize("kernel", ("mips", "motion"))
    def test_smoke(self, machine_name, kernel):
        compiled = compile_for_machine(
            compile_kernel(kernel), build_machine(machine_name)
        )
        checked = run_compiled(compiled, mode="checked")
        nat = run_compiled(compiled, mode="native")
        assert asdict(nat) == asdict(checked), f"{machine_name}/{kernel} diverged"
        assert nat.exit_code == 0


@requires_cc
def test_branchy_recursion_identical_native_vs_checked():
    for name in ("m-tta-1", "bm-tta-3", "p-vliw-3"):
        compiled = _compile(FIB_SRC, name)
        checked = run_compiled(compiled, mode="checked")
        nat = run_compiled(compiled, mode="native")
        assert asdict(nat) == asdict(checked), name
        assert nat.exit_code == 0


# ---------------------------------------------------------------------------
# dynamic errors: same exception type, byte-identical message text
# ---------------------------------------------------------------------------


def _tta_prog(moves_lists, machine_name="m-tta-2", labels=None):
    machine = build_machine(machine_name)
    return Program(
        machine, "tta", [TTAInstr(moves) for moves in moves_lists], labels or {}
    )


def _imm(value, dst, bus):
    return Move(("imm", value), dst, bus)


def _fu_state(sim):
    return [
        (name, fu.o1, fu.result, fu.has_result, fu.pending)
        for name, fu in sorted(sim.fus.items())
    ]


def _outcome(sim):
    try:
        result = sim.run()
        return ("ok", result.exit_code, result.cycles)
    except (SimError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


class TestNativeDynamics:
    """Each scenario runs once on the checked reference and once on the
    native engine (fresh ``Program`` objects — the engine caches on the
    program) and the outcomes, including the exact error text, must be
    identical; the FU-result scenarios run on turbo too.  A
    degradation warning during the native run would mask a missing
    compiler, so warnings escalate to errors here."""

    def _diff(self, make_prog, sim_cls=TTASimulator, expect=None):
        checked = _outcome(sim_cls(make_prog(), mode="checked", max_cycles=10_000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nat = _outcome(sim_cls(make_prog(), mode="native", max_cycles=10_000))
        assert nat == checked
        if expect is not None:
            assert expect in checked[1]
        return checked

    @requires_cc
    def test_early_result_read(self):
        self._diff(
            lambda: _tta_prog(
                [
                    [
                        Move(("imm", 3), ("op", "ALU0", "o1", None), 0),
                        Move(("imm", 4), ("op", "ALU0", "t", "mul"), 1),
                    ],
                    [Move(("fu", "ALU0"), ("rf", "RF0", 1), 0)],
                ]
            ),
            expect="before the first result is due",
        )

    @requires_cc
    def test_never_triggered_read(self):
        self._diff(
            lambda: _tta_prog([[Move(("fu", "ALU0"), ("rf", "RF0", 1), 0)]]),
            expect="never triggered",
        )

    @requires_cc
    def test_non_monotonic_result_push(self):
        # mul (latency 3) then add (latency 1): the second result would
        # be due before the first — the reference raises ValueError from
        # inside the FU, the native engine reconstructs it byte-for-byte
        self._diff(
            lambda: _tta_prog(
                [
                    [
                        Move(("imm", 3), ("op", "ALU0", "o1", None), 0),
                        Move(("imm", 4), ("op", "ALU0", "t", "mul"), 1),
                    ],
                    [Move(("imm", 1), ("op", "ALU0", "t", "add"), 0)],
                ]
            ),
            expect="not after pending",
        )

    @pytest.mark.parametrize("mode", BLOCK_ENGINES)
    def test_non_monotonic_push_after_forwarded_read(self, mode):
        # the same violation once ALU0's ring is statically known: the
        # add (due 3) lands before the pending mul (due 4)
        outcome = self._diff_state(
            lambda: _tta_prog(
                [
                    [
                        _imm(3, ("op", "ALU0", "o1", None), 0),
                        _imm(4, ("op", "ALU0", "t", "add"), 1),
                    ],
                    [Move(("fu", "ALU0"), ("op", "ALU0", "t", "mul"), 0)],
                    [_imm(1, ("op", "ALU0", "t", "add"), 0)],
                    [_imm(0, ("op", "CU", "t", "halt"), 0)],
                ]
            ),
            mode,
        )
        assert outcome == ("ValueError", "ALU0: result due 3 not after pending 4")

    @requires_cc
    def test_pc_out_of_range(self):
        self._diff(
            lambda: _tta_prog(
                [[Move(("imm", 100), ("op", "CU", "t", "jump"), 0)], [], [], [], []]
            ),
            expect="PC out of range: 100",
        )

    @requires_cc
    def test_overlapping_control_transfers(self):
        self._diff(
            lambda: _tta_prog(
                [
                    [Move(("imm", 0), ("op", "CU", "t", "jump"), 0)],
                    [Move(("imm", 0), ("op", "CU", "t", "jump"), 0)],
                    [],
                    [],
                    [],
                ]
            ),
            expect="overlapping control transfers",
        )

    @requires_cc
    def test_vliw_overlapping_control_transfers(self):
        def make():
            machine = build_machine("m-vliw-2")
            instrs = [
                VLIWInstr([MOp("jump", None, [Imm(0)])]),
                VLIWInstr([MOp("jump", None, [Imm(0)])]),
                VLIWInstr([]),
                VLIWInstr([]),
            ]
            return Program(machine, "vliw", instrs)

        self._diff(make, sim_cls=VLIWSimulator, expect="overlapping")

    @requires_cc
    def test_memory_access_out_of_range(self):
        self._diff(
            lambda: _tta_prog(
                [
                    [
                        Move(("imm", 42), ("op", "LSU0", "o1", None), 0),
                        Move(("imm", 0x7FFFFFFF), ("op", "LSU0", "t", "stw"), 1),
                    ],
                    [],
                    [],
                    [],
                    [Move(("imm", 0), ("op", "CU", "t", "halt"), 0)],
                ]
            ),
            expect="memory access out of range: 0x7fffffff+4",
        )

    @requires_cc
    def test_vliw_delayed_writeback_visible_late(self):
        machine = build_machine("m-vliw-2")
        r1 = PhysReg("RF0", 1)
        r2 = PhysReg("RF0", 2)
        instrs = [
            VLIWInstr([MOp("add", r1, [Imm(40), Imm(2)])]),
            VLIWInstr([MOp("add", r2, [r1, Imm(0)])]),  # reads OLD r1 (0)
            VLIWInstr([MOp("add", r2, [r1, Imm(0)])]),  # now reads 42
            VLIWInstr([MOp("halt", None, [Imm(0)])]),
        ]
        prog = Program(machine, "vliw", instrs)
        sim = VLIWSimulator(prog, mode="native")
        sim.run()
        assert sim.regs[r2] == 42

    def _diff_state(self, make_prog, engine="native"):
        """Like :meth:`_diff` on *engine*, and the final registers and FU
        state (operand latch, result register, pending list) must match
        too."""
        sims = []
        for mode in ("checked", engine):
            sim = TTASimulator(make_prog(), mode=mode, max_cycles=10_000)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                outcome = _outcome(sim)
            sims.append((outcome, sim.rfs, _fu_state(sim)))
        assert sims[1] == sims[0]
        return sims[0][0]

    @requires_cc
    def test_result_read_in_taken_branch_target(self):
        # ALU0's result is pushed before a taken cjump and read in the
        # target block, which cannot forward it (the push is in another
        # block); the target then forwards its own push
        def make():
            alu_t = ("op", "ALU0", "t", "add")
            return _tta_prog(
                [
                    [
                        _imm(5, ("op", "ALU0", "o1", None), 0),
                        _imm(7, alu_t, 1),
                        _imm(6, ("op", "CU", "o1", None), 2),
                    ],
                    [_imm(1, ("op", "CU", "t", "cjump"), 0)],
                    [],
                    [],
                    [],
                    [_imm(99, ("rf", "RF0", 1), 0)],  # skipped by the branch
                    [
                        Move(("fu", "ALU0"), ("rf", "RF0", 2), 0),
                        Move(("fu", "ALU0"), alu_t, 1),
                    ],
                    [Move(("fu", "ALU0"), ("rf", "RF0", 1), 0)],
                    [_imm(0, ("op", "CU", "t", "halt"), 0)],
                ],
                labels={"main": 0, "target": 6},
            )

        assert self._diff_state(make) == ("ok", 17, 8)

    @pytest.mark.parametrize("mode", BLOCK_ENGINES)
    def test_memory_fault_after_forwarded_reads(self, mode):
        # reads and pushes keep the FU state in memory exact, so the
        # error text and every unit's synced pending list match
        make = _memory_fault_prog
        outcome = self._diff_state(make, mode)
        assert "memory access out of range: 0x7fffffff+4" in outcome[1]
        checked = TTASimulator(make(), mode="checked")
        _outcome(checked)
        assert checked.fus["ALU0"].pending == [(4, 8), (6, 36)]

    @pytest.mark.parametrize("mode", BLOCK_ENGINES)
    def test_push_into_full_ring(self, mode):
        # more in-flight results than the engine's PCAP-entry ring holds,
        # on a unit that was read (ALU0) and on one that is not (LSU0):
        # the ring commits its due entries
        pcap = build_native_program(_tta_prog([[]])).pcap

        def make():
            return _full_ring_prog(pcap)

        checked = TTASimulator(make(), mode="checked")
        block_sim = TTASimulator(make(), mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = _outcome(block_sim)
        assert outcome == _outcome(checked) == ("ok", pcap + 2, pcap + 9)
        assert block_sim.rfs == checked.rfs

    @requires_cc
    @pytest.mark.parametrize("machine_name", DIFF_MACHINES)
    def test_cycle_budget_exact_at_boundary(self, machine_name):
        compiled = _compile(FIB_SRC, machine_name)
        cycles = run_compiled(compiled, mode="fast").cycles
        ok = run_compiled(compiled, mode="native", max_cycles=cycles - 1)
        assert ok.cycles == cycles
        with pytest.raises(SimError, match="cycle budget"):
            run_compiled(compiled, mode="native", max_cycles=cycles - 2)


# ---------------------------------------------------------------------------
# availability: degradation to fast, codegen bailout
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_no_compiler_falls_back_to_turbo_with_one_warning(self, monkeypatch):
        monkeypatch.setenv(native.NO_CC_ENV, "1")
        monkeypatch.setattr(native, "_WARNED", False)
        assert native.find_compiler() is None
        reference = run_compiled(_compile(FIB_SRC, "m-tta-2"), mode="fast")
        fresh = _compile(FIB_SRC, "m-tta-2")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = run_compiled(fresh, mode="native")
            second = run_compiled(fresh, mode="native")
        degradations = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(degradations) == 1, "degradation must warn exactly once"
        assert "falling back to the fast engine" in str(degradations[0].message)
        assert asdict(first) == asdict(reference) == asdict(second)
        # the unavailability decision is cached on the program
        assert fresh.program.predecode_cache["tta-native"] is None

    def test_vliw_degrades_too(self, monkeypatch):
        monkeypatch.setenv(native.NO_CC_ENV, "1")
        monkeypatch.setattr(native, "_WARNED", False)
        reference = run_compiled(_compile(FIB_SRC, "m-vliw-2"), mode="fast")
        with pytest.warns(RuntimeWarning, match="falling back"):
            nat = run_compiled(_compile(FIB_SRC, "m-vliw-2"), mode="native")
        assert asdict(nat) == asdict(reference)

    @pytest.mark.parametrize("machine_name", DIFF_MACHINES)
    def test_every_degraded_run_is_counted(self, monkeypatch, machine_name):
        """The warning fires once per process, but the trace counts every
        run that fell back, so the second one is not invisible."""
        from repro import obs

        monkeypatch.setattr(native, "find_compiler", lambda: None)
        monkeypatch.setattr(native, "_WARNED", False)
        compiled = _compile(FIB_SRC, machine_name)
        reference = asdict(run_compiled(compiled, mode="fast"))
        with obs.tracing() as tracer, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runs = [asdict(run_compiled(compiled, mode="native")) for _ in range(2)]
        assert runs == [reference, reference]
        assert tracer.counters["sim.native.degraded_runs"] == 2

    def test_sweep_counts_degraded_pairs(self, monkeypatch, capsys):
        """A default-engine sweep without a compiler says how many pairs
        asked for native and ran on fast: ``--json`` stats carry the count
        (the scalar core has no C engine, so its pair is not one), stderr
        gets one line, and the results are a fast sweep's."""
        from repro.cli import main

        monkeypatch.setenv(native.NO_CC_ENV, "1")
        monkeypatch.setattr(native, "_WARNED", False)
        argv = ["sweep", "--machines", "m-tta-2,m-vliw-2,mblaze-3", "--kernels", "mips",
                "--no-cache", "--json", "-q"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv) == 0
        out, err = capsys.readouterr()
        assert main([*argv, "--mode", "fast"]) == 0
        fast_out, fast_err = capsys.readouterr()
        degraded, fast = json.loads(out), json.loads(fast_out)
        assert degraded["stats"]["degraded"] == 2
        assert fast["stats"]["degraded"] == 0
        assert degraded["results"] == fast["results"]
        lines = [line for line in err.splitlines() if line.startswith("degraded:")]
        assert len(lines) == 1 and lines[0].startswith("degraded: 2 pair(s)"), err
        assert "degraded:" not in fast_err

    def test_explore_and_report_count_degraded_pairs(self, monkeypatch):
        """explore and report carry the same count (the scalar pair of the
        report's sweep is not one)."""
        from repro.eval.runner import degraded_count, run_sweep, sweep_cache_clear
        from repro.explore import ExploreConfig, run_explore
        from repro.pipeline.store import NO_CACHE_ENV

        monkeypatch.setenv(native.NO_CC_ENV, "1")
        monkeypatch.setenv(NO_CACHE_ENV, "1")
        monkeypatch.setattr(native, "_WARNED", False)
        config = ExploreConfig(kernels=("mips",), generations=0)
        sweep_cache_clear()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert run_explore(config, use_cache=False).stats.degraded == 1
                run_sweep(("m-tta-2", "mblaze-3"), ("mips",))
            assert degraded_count() == 1
        finally:
            sweep_cache_clear()
        assert degraded_count() == 0

    def test_cc_env_override_pointing_nowhere_degrades(self, monkeypatch):
        monkeypatch.delenv(native.NO_CC_ENV, raising=False)
        monkeypatch.setenv(native.CC_ENV, "definitely-not-a-compiler-xyz")
        assert native.find_compiler() is None

    @requires_cc
    def test_codegen_bailout_degrades_cleanly(self, monkeypatch):
        monkeypatch.setattr(native, "build_native_program", lambda prog: None)
        monkeypatch.setattr(native, "_WARNED", False)
        checked = run_compiled(_compile(FIB_SRC, "m-tta-2"), mode="checked")
        with pytest.warns(RuntimeWarning, match="could not be compiled"):
            nat = run_compiled(_compile(FIB_SRC, "m-tta-2"), mode="native")
        assert asdict(nat) == asdict(checked)

    def test_failing_compiler_is_loud(self, monkeypatch, tmp_path):
        from repro import obs
        from repro.pipeline.store import CACHE_DIR_ENV, NO_CACHE_ENV

        fake_cc = tmp_path / "fake-cc"
        fake_cc.write_text(
            "#!/bin/sh\necho 'fake-cc: error: out of cheese' >&2\nexit 1\n"
        )
        fake_cc.chmod(0o755)
        monkeypatch.delenv(native.NO_CC_ENV, raising=False)
        monkeypatch.setenv(native.CC_ENV, str(fake_cc))
        monkeypatch.delenv(NO_CACHE_ENV, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "store"))
        monkeypatch.setattr(native, "_LIB_CACHE", {})
        monkeypatch.setattr(native, "_WARNED", False)
        reference = run_compiled(_compile(FIB_SRC, "m-tta-2"), mode="fast")
        with obs.tracing() as tracer, pytest.warns(RuntimeWarning) as caught:
            nat = run_compiled(_compile(FIB_SRC, "m-tta-2"), mode="native")
        assert asdict(nat) == asdict(reference)
        [warning] = [w for w in caught if "falling back" in str(w.message)]
        message = str(warning.message)
        assert "exit 1" in message and "out of cheese" in message, message
        assert tracer.counters["sim.native.cc_failed"] == 1

    def test_compile_timeout_reason(self, monkeypatch):
        import subprocess

        def timeout(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

        monkeypatch.setattr(native.subprocess, "run", timeout)
        with pytest.raises(native._CcFailed, match="timeout after 120 s"):
            native._compile_so("cc", "int x;")


# ---------------------------------------------------------------------------
# shared-object caching: store blobs, process cache, pickling
# ---------------------------------------------------------------------------


@requires_cc
class TestSharedObjectCache:
    def test_store_blob_round_trip_skips_compiler_when_warm(
        self, monkeypatch, tmp_path
    ):
        from repro.pipeline.store import CACHE_DIR_ENV, NO_CACHE_ENV, default_store

        monkeypatch.delenv(NO_CACHE_ENV, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(native, "_LIB_CACHE", {})
        store = default_store()
        compiled = _compile(FIB_SRC, "m-tta-2")
        checked = run_compiled(compiled, mode="checked")
        first = run_compiled(compiled, mode="native")
        assert store.stats.blob_writes == 1
        assert store.entry_count()["blobs"] == 1
        # fresh program and empty process cache: the shared object must be
        # served from the store without ever invoking the C compiler
        monkeypatch.setattr(native, "_LIB_CACHE", {})
        monkeypatch.setattr(
            native,
            "_compile_so",
            lambda *a, **k: pytest.fail("recompiled despite a warm store"),
        )
        warm = run_compiled(_compile(FIB_SRC, "m-tta-2"), mode="native")
        assert asdict(first) == asdict(warm) == asdict(checked)

    def test_many_programs_share_one_engine(self, monkeypatch, tmp_path):
        # distinct programs of both styles in one process: one loaded
        # engine and one cc call, and no cc call at all on a warm store
        from repro.pipeline.store import CACHE_DIR_ENV, NO_CACHE_ENV

        monkeypatch.delenv(NO_CACHE_ENV, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(native, "_LIB_CACHE", {})
        builds = []
        compile_so = native._compile_so

        def counting_compile(cc, source):
            builds.append(cc)
            return compile_so(cc, source)

        monkeypatch.setattr(native, "_compile_so", counting_compile)

        def programs():
            fib = [_compile(FIB_SRC, name) for name in ("m-tta-2", "bm-tta-3", "m-vliw-2")]
            mips = [
                compile_for_machine(compile_kernel("mips"), build_machine(name))
                for name in ("m-tta-2", "m-vliw-2", "m-vliw-3")
            ]
            return fib + mips

        want = [asdict(run_compiled(c, mode="checked")) for c in programs()]
        cold = programs()
        assert {c.program.style for c in cold} == {"tta", "vliw"}
        assert [asdict(run_compiled(c, mode="native")) for c in cold] == want
        assert len(builds) == 1
        assert len(native._LIB_CACHE) == 1
        # a fresh process cache over the warm store
        monkeypatch.setattr(native, "_LIB_CACHE", {})
        assert [asdict(run_compiled(c, mode="native")) for c in programs()] == want
        assert len(builds) == 1
        assert len(native._LIB_CACHE) == 1

    def test_corrupt_stored_blob_recompiles(self, monkeypatch, tmp_path):
        from repro.pipeline.store import CACHE_DIR_ENV, NO_CACHE_ENV, default_store

        monkeypatch.delenv(NO_CACHE_ENV, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(native, "_LIB_CACHE", {})
        store = default_store()
        checked = run_compiled(_compile(FIB_SRC, "m-tta-2"), mode="checked")
        run_compiled(_compile(FIB_SRC, "m-tta-2"), mode="native")
        [path] = (tmp_path / "blobs").rglob("*.bin")
        path.write_bytes(path.read_bytes()[: 100])
        monkeypatch.setattr(native, "_LIB_CACHE", {})
        nat = run_compiled(_compile(FIB_SRC, "m-tta-2"), mode="native")
        assert asdict(nat) == asdict(checked)
        assert store.stats.corrupt_dropped == 1
        assert store.stats.blob_writes == 2, "rebuilt object must be re-stored"

    def test_cold_build_records_cgen_and_cc_spans(self, monkeypatch, tmp_path):
        from repro import obs
        from repro.pipeline.store import CACHE_DIR_ENV, NO_CACHE_ENV

        monkeypatch.delenv(NO_CACHE_ENV, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(native, "_LIB_CACHE", {})
        with obs.tracing() as tracer:
            run_compiled(_compile(FIB_SRC, "m-tta-2"), mode="native")
        spans = {span["name"]: span for span in tracer.spans}
        assert {"sim.native.cgen", "sim.native.cc", "sim.run"} <= set(spans)
        # both nest inside the run, so a summary shows cc apart from sim
        run = spans["sim.run"]
        for name in ("sim.native.cgen", "sim.native.cc"):
            assert spans[name]["depth"] > run["depth"]
            assert run["ts"] <= spans[name]["ts"]
            assert spans[name]["ts"] + spans[name]["dur"] <= run["ts"] + run["dur"]

    def test_program_with_native_engine_still_pickles(self):
        compiled = _compile(FIB_SRC, "m-tta-2")
        checked = run_compiled(compiled, mode="checked")
        run_compiled(compiled, mode="native")
        assert compiled.program.predecode_cache  # FFI handles live here
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.program.predecode_cache == {}
        assert asdict(run_compiled(clone, mode="native")) == asdict(checked)


# ---------------------------------------------------------------------------
# driver integration: one engine call per run, profiling, table encoding
# ---------------------------------------------------------------------------


def _engine_only(monkeypatch, sim):
    """``(outcome, native calls)`` of one run of *sim* with the driver's
    precise steps disabled, so everything the run does or raises comes
    from inside the engine."""
    from repro import obs
    from repro.sim import predecode

    def no_step(*_args):
        raise AssertionError("the driver stepped a pc in Python")

    monkeypatch.setattr(predecode, "_bind_tta_step", no_step)
    monkeypatch.setattr(predecode, "_bind_vliw_op", no_step)
    with obs.tracing() as tracer, warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = _outcome(sim)
    return outcome, tracer.counters["sim.native.calls"]


@requires_cc
class TestDriverIntegration:
    def test_halting_run_is_one_engine_call(self, monkeypatch):
        for machine_name in DIFF_MACHINES:
            compiled = _compile(FIB_SRC, machine_name)
            checked = run_compiled(compiled, mode="checked")
            sim_cls = TTASimulator if compiled.program.style == "tta" else VLIWSimulator
            sim = sim_cls(compiled.program, mode="native")
            sim.preload(compiled.data_init)
            outcome, calls = _engine_only(monkeypatch, sim)
            assert outcome == ("ok", checked.exit_code, checked.cycles), machine_name
            assert calls == 1, machine_name

    @pytest.mark.parametrize("machine_name", DIFF_MACHINES)
    def test_native_profile_matches_turbo(self, machine_name):
        compiled = _compile(FIB_SRC, machine_name)
        _, turbo = run_compiled_profiled(compiled, mode="turbo")
        result, nat = run_compiled_profiled(compiled, mode="native")
        assert result.exit_code == 0
        assert nat.engine == "native"
        assert nat.cycles == turbo.cycles
        assert nat.pc_hits == turbo.pc_hits
        assert nat.opcode_counts == turbo.opcode_counts
        assert nat.blocks and sum(b.instructions for b in nat.blocks) == (
            nat.instructions
        )

    def test_build_native_program_shape(self):
        compiled = _compile(FIB_SRC, "m-tta-2")
        nat = build_native_program(compiled.program)
        assert nat is not None
        # every program runs on the one engine
        assert nat.source == engine_source() and ENTRY_SYMBOL in nat.source
        assert nat.style == "tta"
        assert nat.n_instrs == len(compiled.program.instrs)
        header = list(nat.prog[:HEADER_WORDS])
        assert header[:3] == [0, nat.n_instrs, compiled.machine.jump_latency + 1]
        # every pc has a record inside the table, every constant a slot
        offsets = nat.prog[HEADER_WORDS : HEADER_WORDS + nat.n_instrs]
        assert all(HEADER_WORDS + nat.n_instrs <= at < len(nat.prog) for at in offsets)
        assert all(nat.rf_total <= at < nat.n_values for at, _value in nat.consts)


# ---------------------------------------------------------------------------
# errors raised inside the engine
# ---------------------------------------------------------------------------


def _memory_fault_prog():
    # mul (due 3) and shl (due 4) are in flight when cycle 3 reads ALU0:
    # the read commits the mul and leaves the shl pending, then a mul due 6
    # joins it; LSU0's load is never read
    return _tta_prog(
        [
            [
                _imm(3, ("op", "ALU0", "o1", None), 0),
                _imm(4, ("op", "ALU0", "t", "mul"), 1),
                _imm(0, ("op", "LSU0", "t", "ldw"), 2),
            ],
            [],
            [_imm(1, ("op", "ALU0", "t", "shl"), 0)],
            [
                Move(("fu", "ALU0"), ("rf", "RF0", 1), 0),
                Move(("fu", "ALU0"), ("op", "ALU0", "t", "mul"), 1),
            ],
            [
                _imm(42, ("op", "LSU0", "o1", None), 0),
                _imm(0x7FFFFFFF, ("op", "LSU0", "t", "stw"), 1),
            ],
            [_imm(0, ("op", "CU", "t", "halt"), 0)],
        ]
    )


def _full_ring_prog(pcap):
    # more in-flight results than the PCAP-entry ring holds: ALU0 after a
    # read, and LSU0, whose loads are not read until the end
    instrs = [
        [
            _imm(1, ("op", "ALU0", "o1", None), 0),
            _imm(1, ("op", "ALU0", "t", "add"), 1),
        ],
        [Move(("fu", "ALU0"), ("op", "ALU0", "t", "add"), 0)],
    ]
    for i in range(pcap + 2):
        instrs.append(
            [
                _imm(i, ("op", "ALU0", "t", "add"), 0),
                _imm(4 * i, ("op", "LSU0", "t", "ldw"), 1),
            ]
        )
    instrs += [
        [],
        [],
        [Move(("fu", "ALU0"), ("rf", "RF0", 1), 0)],
        [Move(("fu", "LSU0"), ("rf", "RF0", 2), 0)],
        [_imm(0, ("op", "CU", "t", "halt"), 0)],
    ]
    return _tta_prog(instrs)


def _budget_sim(machine_name, mode):
    compiled = _compile(FIB_SRC, machine_name)
    cycles = run_compiled(compiled, mode="fast").cycles
    sim_cls = TTASimulator if compiled.program.style == "tta" else VLIWSimulator
    sim = sim_cls(compiled.program, mode=mode, max_cycles=cycles - 2)
    sim.preload(compiled.data_init)
    return sim


def _vliw_overlap_prog():
    machine = build_machine("m-vliw-2")
    instrs = [
        VLIWInstr([MOp("jump", None, [Imm(0)])]),
        VLIWInstr([MOp("jump", None, [Imm(0)])]),
        VLIWInstr([]),
        VLIWInstr([]),
    ]
    return Program(machine, "vliw", instrs)


def _nonzero(regs):
    """A VLIW simulator's nonzero registers: checked keeps only those it
    wrote, the shared driver every register."""
    return {reg: value for reg, value in regs.items() if value}


#: scenario -> (make a simulator in a mode, what the run ends with)
ENGINE_OUTCOMES = {
    "pc-out-of-range": (
        lambda mode: TTASimulator(
            _tta_prog([[_imm(100, ("op", "CU", "t", "jump"), 0)], [], [], [], []]),
            mode=mode,
        ),
        "PC out of range: 100",
    ),
    "tta-budget": (lambda mode: _budget_sim("m-tta-2", mode), "cycle budget"),
    "vliw-budget": (lambda mode: _budget_sim("m-vliw-2", mode), "cycle budget"),
    "memory-fault": (
        lambda mode: TTASimulator(_memory_fault_prog(), mode=mode),
        "memory access out of range: 0x7fffffff+4",
    ),
    "full-ring": (
        lambda mode: TTASimulator(
            _full_ring_prog(build_native_program(_tta_prog([[]])).pcap), mode=mode
        ),
        "ok",
    ),
    "vliw-overlap": (
        lambda mode: VLIWSimulator(_vliw_overlap_prog(), mode=mode),
        "overlapping control transfers",
    ),
}


@requires_cc
@pytest.mark.parametrize("scenario", sorted(ENGINE_OUTCOMES))
def test_outcome_comes_from_inside_the_engine(monkeypatch, scenario):
    """Each run is one engine call with no precise Python step, and ends
    exactly as the checked reference does, with the same state of every
    register and FU (pending lists included) after an error."""
    make, expect = ENGINE_OUTCOMES[scenario]
    checked = make("checked")
    want = _outcome(checked)
    assert expect in str(want)
    nat = make("native")
    outcome, calls = _engine_only(monkeypatch, nat)
    assert outcome == want
    assert calls == 1
    if isinstance(nat, TTASimulator):
        assert nat.rfs == checked.rfs
        assert _fu_state(nat) == _fu_state(checked)
    else:
        assert _nonzero(nat.regs) == _nonzero(checked.regs)
    if scenario == "memory-fault":
        assert checked.fus["ALU0"].pending == [(4, 8), (6, 36)]


# ---------------------------------------------------------------------------
# the engine and its tables
# ---------------------------------------------------------------------------

#: ``prog[]`` header words before the per-pc record offsets
HEADER_WORDS = 6


def _operands(nat, reg="rf"):
    """``v[]`` index -> the static decode's operand tuple it holds (a
    register's is tagged *reg*)."""
    names = {}
    for rf, base, size in nat.rf_layout:
        for idx in range(size):
            names[base + idx] = (reg, rf, idx)
    for f, fu in enumerate(nat.fu_names):
        names[nat.rf_total + f] = ("fu", fu)
    for at, value in nat.consts:
        names[at] = ("imm", value)
    return names


def _decode_tta_record(nat, names, pc):
    """One TTA record, back in the static decode's terms."""
    from repro.isa.operations import OPS

    prog = nat.prog
    at = prog[HEADER_WORDS + pc]
    n_reads, n_latches, n_o1, n_trigs, n_writes = prog[at : at + 5]
    words = list(prog[at + 5 :])
    fus = nat.fu_names
    reads = tuple(fus[f] for f in words[:n_reads])
    words = words[n_reads:]
    pairs = words[: 2 * n_latches]
    latched = {cell: names[src] for src, cell in zip(pairs[::2], pairs[1::2])}
    words = words[2 * n_latches :]
    o1 = tuple((names[words[2 * i]], fus[words[2 * i + 1]]) for i in range(n_o1))
    words = words[2 * n_o1 :]
    trigs = []
    for i in range(n_trigs):
        src, f, op, latency = words[4 * i : 4 * i + 4]
        spec = OPS.get(OPCODES[op])
        assert latency == (1 if OPCODES[op] == "getra" else spec.latency if spec else 0)
        trigs.append((names[src], fus[f], OPCODES[op]))
    words = words[4 * n_trigs :]
    writes = tuple(
        (latched.get(src) or names[src], *names[dst][1:])
        for src, dst in zip(words[: 2 * n_writes : 2], words[1 : 2 * n_writes : 2])
    )
    return writes, o1, tuple(trigs), reads


def _decode_vliw_record(nat, names, pc):
    prog = nat.prog
    at = prog[HEADER_WORDS + pc]
    ops = []
    for i in range(prog[at]):
        op, src0, src1, dst, latency = prog[at + 1 + 5 * i : at + 6 + 5 * i]
        ops.append((OPCODES[op], names[src0], names[src1], dst, latency))
    return ops


class TestEngineShape:
    def test_engine_covers_the_alu_op_set(self):
        import re

        from repro.sim.predecode import _ALU_EXPR, ALU_FUNCS

        body = engine_source().split("enum opcode {", 1)[1].split("};", 1)[0]
        assert tuple(name.lower() for name in re.findall(r"OP_(\w+)", body)) == OPCODES
        alu = OPCODES[OPCODES.index("add") :]
        assert set(alu) == set(_ALU_EXPR) == set(ALU_FUNCS)

    @requires_cc
    def test_engine_alu_matches_python(self):
        # every ALU opcode on the operands where wrap, sign and shift
        # amounts differ, against the checked reference's evaluate()
        from repro.sim.predecode import _ALU_EXPR

        edges = (0, 1, 31, 32, 0x7FFF, 0x8000, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
        pairs = [(a, b) for a in edges for b in edges]
        machine = build_machine("m-vliw-2")
        chunk = machine.register_files[0].size - 2
        for op in _ALU_EXPR:
            for first in range(0, len(pairs), chunk):
                n_srcs = 1 if op.startswith("sx") else 2
                bundles = [
                    VLIWInstr([MOp(op, PhysReg("RF0", 1 + k), [Imm(a), Imm(b)][:n_srcs])])
                    for k, (a, b) in enumerate(pairs[first : first + chunk])
                ]
                bundles.append(VLIWInstr([MOp("halt", None, [Imm(0)])]))
                runs = []
                for mode in ("checked", "native"):
                    sim = VLIWSimulator(Program(machine, "vliw", bundles), mode=mode)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        sim.run()
                    runs.append(_nonzero(sim.regs))
                assert runs[1] == runs[0], op

    @requires_cc
    @pytest.mark.parametrize("machine_name", ("m-tta-2", "bm-tta-3", "m-vliw-2"))
    @pytest.mark.parametrize("kernel", ("mips", "aes"))
    def test_one_call_runs_every_pc(self, monkeypatch, machine_name, kernel):
        compiled = compile_for_machine(
            compile_kernel(kernel), build_machine(machine_name)
        )
        sim_cls = TTASimulator if compiled.program.style == "tta" else VLIWSimulator
        fast = sim_cls(compiled.program, mode="fast")
        fast.preload(compiled.data_init)
        fast.run()
        nat = sim_cls(compiled.program, mode="native")
        nat.preload(compiled.data_init)
        outcome, calls = _engine_only(monkeypatch, nat)
        assert outcome[0] == "ok" and calls == 1
        # the engine counts executions per pc: the hit vector is exact
        assert nat._last_hits == fast._last_hits

    @pytest.mark.parametrize("machine_name", DIFF_MACHINES)
    @pytest.mark.parametrize("kernel", ("mips", "adpcm", "jpeg"))
    def test_tables_decode_to_the_static_decode(self, machine_name, kernel):
        # the engine reads exactly the moves and operations the fast
        # stepper binds, in the same order, at every pc
        from repro.sim.predecode import static_decode_tta, static_decode_vliw

        program = compile_for_machine(
            compile_kernel(kernel), build_machine(machine_name)
        ).program
        nat = build_native_program(program)
        if program.style == "tta":
            names = _operands(nat)
            for pc, instr in enumerate(static_decode_tta(program)):
                rf_moves, o1_moves, trig_moves, _counts, fu_reads = instr
                want = (rf_moves, o1_moves, trig_moves, fu_reads)
                assert _decode_tta_record(nat, names, pc) == want, pc
        else:
            names = _operands(nat, reg="reg")
            rf_base = {rf: base for rf, base, _size in nat.rf_layout}
            for pc, bundle in enumerate(static_decode_vliw(program)):
                want = [
                    (
                        name,
                        (srcs[:1] or [names[0]])[0],
                        (srcs[:2] or [names[0]])[-1],
                        0 if dest is None else rf_base[dest[0]] + dest[1],
                        latency,
                    )
                    for name, srcs, dest, latency in bundle
                ]
                assert _decode_vliw_record(nat, names, pc) == want, pc

    def test_mips_tables_stay_small(self):
        # equal instructions share one record, so the tables grow with
        # the distinct instructions, not the program's length
        compiled = compile_for_machine(compile_kernel("mips"), build_machine("m-tta-2"))
        nat = build_native_program(compiled.program)
        offsets = nat.prog[HEADER_WORDS : HEADER_WORDS + nat.n_instrs]
        assert len(set(offsets)) < nat.n_instrs
        assert len(nat.prog) <= 16 * nat.n_instrs


class TestCodegenShape:
    @pytest.mark.parametrize("mode", BLOCK_ENGINES)
    def test_forwarded_read_takes_latest_due_push(self, mode):
        # add (due 1) and mul (due 4) are both due when cycle 4 reads
        def make():
            return _tta_prog(
                [
                    [
                        _imm(2, ("op", "ALU0", "o1", None), 0),
                        _imm(3, ("op", "ALU0", "t", "add"), 1),
                    ],
                    [_imm(3, ("op", "ALU0", "t", "mul"), 0)],
                    [],
                    [],
                    [Move(("fu", "ALU0"), ("rf", "RF0", 1), 0)],
                    [_imm(0, ("op", "CU", "t", "halt"), 0)],
                ]
            )

        checked = TTASimulator(make(), mode="checked")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = _outcome(TTASimulator(make(), mode=mode))
        assert outcome == _outcome(checked) == ("ok", 6, 6)
