"""Native (generated-C) engine tests.

The native engine must be bit- and cycle-exact with the checked
reference engine — exit code, cycle count and **every** statistics
counter — on every CHStone-style workload, on both machine styles.
Dynamic schedule violations (early FU reads, non-monotonic result
pushes, overlapping control transfers, out-of-range PCs and memory
accesses, cycle-budget exhaustion) must raise the same exception type
with byte-identical message text.

The tier also has an availability contract: no C compiler (or a codegen
bailout) degrades to the turbo engine with exactly one RuntimeWarning
and unchanged results, and compiled shared objects round-trip through
the artifact store's blob kind so warm runs never invoke the compiler.
"""

from __future__ import annotations

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
from repro.sim.blockcompile import tta_block_source
from repro.sim.cgen import ENTRY_SYMBOL, build_native_program

#: one TTA and one VLIW design point; native/checked agreement is
#: style-level, not design-point-level (same policy as test_blockcompile)
DIFF_MACHINES = ("m-tta-2", "m-vliw-2")

FIB_SRC = """
int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main(void){ return fib(12) - 144; }
"""

requires_cc = pytest.mark.skipif(
    native.find_compiler() is None, reason="no C compiler on PATH"
)

#: the two block engines, which share the TTA walker's static FU-result
#: forwarding; only native needs a C compiler
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


def _case_source(nat, start):
    """The generated C of the block entered at *start*."""
    bi = [s for s, _ in nat.entries].index(start)
    body = nat.source.split(f"case {bi}: {{\n", 1)[1]
    return body.split("\n        }\n", 1)[0]


def _block_source(program, start, mode):
    """The generated code of the block entered at *start*: *mode*'s
    Python function or C ``case``."""
    if mode == "turbo":
        return tta_block_source(program, start)
    return _case_source(build_native_program(program), start)


#: what a dynamic FU read (a runtime commit of the pending list) prints
DYNAMIC_READ = {"turbo": ".pop(0)", "native": "FUREAD("}


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
    identical; the FU-result forwarding scenarios run on turbo too.  A
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
        nat = build_native_program(make())
        # the carried-in result is read dynamically, once for both moves
        # of its instruction; the read of the target block's own push is
        # forwarded
        assert _case_source(nat, 6).count("FUREAD(") == 1

    @pytest.mark.parametrize("mode", BLOCK_ENGINES)
    def test_memory_fault_after_forwarded_reads(self, mode):
        # forwarded reads and pushes keep the FU state in memory exact, so
        # the error text and every unit's synced pending list match
        def make():
            # mul (due 3) and shl (due 4) are in flight when cycle 3 reads
            # ALU0: the read forwards the mul and leaves the shl pending,
            # then a mul due 6 joins it; LSU0's load is never read
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

        outcome = self._diff_state(make, mode)
        assert "memory access out of range: 0x7fffffff+4" in outcome[1]
        assert DYNAMIC_READ[mode] not in _block_source(make(), 0, mode)
        checked = TTASimulator(make(), mode="checked")
        _outcome(checked)
        assert checked.fus["ALU0"].pending == [(4, 8), (6, 36)]

    @pytest.mark.parametrize("mode", BLOCK_ENGINES)
    def test_push_into_full_ring(self, mode):
        # more in-flight results than the PCAP-entry ring holds, both on a
        # unit whose ring is statically known (ALU0, after a forwarded
        # read) and on one that is not (LSU0): the ring drains due entries
        pcap = build_native_program(_tta_prog([[]])).pcap

        def make():
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
# availability: degradation to turbo, codegen bailout
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_no_compiler_falls_back_to_turbo_with_one_warning(self, monkeypatch):
        monkeypatch.setenv(native.NO_CC_ENV, "1")
        monkeypatch.setattr(native, "_WARNED", False)
        assert native.find_compiler() is None
        reference = run_compiled(_compile(FIB_SRC, "m-tta-2"), mode="turbo")
        fresh = _compile(FIB_SRC, "m-tta-2")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = run_compiled(fresh, mode="native")
            second = run_compiled(fresh, mode="native")
        degradations = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(degradations) == 1, "degradation must warn exactly once"
        assert "falling back" in str(degradations[0].message)
        assert asdict(first) == asdict(reference) == asdict(second)
        # the unavailability decision is cached on the program
        assert fresh.program.predecode_cache["tta-native"] is None

    def test_vliw_degrades_too(self, monkeypatch):
        monkeypatch.setenv(native.NO_CC_ENV, "1")
        monkeypatch.setattr(native, "_WARNED", False)
        reference = run_compiled(_compile(FIB_SRC, "m-vliw-2"), mode="turbo")
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
        reference = asdict(run_compiled(compiled, mode="turbo"))
        with obs.tracing() as tracer, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runs = [asdict(run_compiled(compiled, mode="native")) for _ in range(2)]
        assert runs == [reference, reference]
        assert tracer.counters["sim.native.degraded_runs"] == 2

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
        reference = run_compiled(_compile(FIB_SRC, "m-tta-2"), mode="turbo")
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
# driver integration: partial coverage, profiling, codegen
# ---------------------------------------------------------------------------


@requires_cc
class TestDriverIntegration:
    def test_partial_native_coverage_interleaves_python_fallback(self):
        """Dropping dispatchable entries forces the driver to interleave
        C-executed blocks with the precise single-cycle Python fallback;
        results must not change."""
        compiled = _compile(FIB_SRC, "m-tta-2")
        checked = run_compiled(compiled, mode="checked")
        run_compiled(compiled, mode="native")  # builds + caches the engine
        engine = compiled.program.predecode_cache["tta-native"]
        assert engine is not None
        for start in list(engine.entry_len)[::2]:
            del engine.entry_len[start]
        nat = run_compiled(compiled, mode="native")
        assert asdict(nat) == asdict(checked)

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
        assert ENTRY_SYMBOL in nat.source
        assert nat.style == "tta"
        assert nat.entries and nat.n_blocks == len(nat.entries)
        assert nat.n_instrs == len(compiled.program.instrs)
        # every dispatchable entry lies inside the program
        for start, length in nat.entries:
            assert 0 <= start and start + length <= nat.n_instrs


# ---------------------------------------------------------------------------
# codegen shape: exact block entries, static FU-result forwarding
# ---------------------------------------------------------------------------


def _entry_closure(program):
    """{0} | labels | call return sites, closed under block fall-through
    (computed independently of cgen from the turbo partition rule)."""
    from repro.sim.blockcompile import _partition
    from repro.sim.predecode import _CONTROL_OPS as ctl_ops
    from repro.sim.predecode import static_decode_tta, static_decode_vliw

    jl = program.machine.jump_latency
    if program.style == "tta":
        ops = [[op for _, _, op in d[2]] for d in static_decode_tta(program)]
    else:
        ops = [[op[0] for op in bundle] for bundle in static_decode_vliw(program)]
    n = len(ops)
    roots = {0, *program.labels.values()}
    roots |= {pc + jl + 1 for pc, names in enumerate(ops) if "call" in names}
    closure, work = set(), [p for p in roots if 0 <= p < n]
    while work:
        p = work.pop()
        if p in closure:
            continue
        closure.add(p)
        length, halts, _ = _partition(
            p,
            n,
            jl,
            lambda q: "halt" in ops[q],
            lambda q: any(name in ctl_ops for name in ops[q]),
        )
        if not halts and p + length < n:
            work.append(p + length)
    return closure


class TestCodegenShape:
    @pytest.mark.parametrize("machine_name", ("m-tta-2", "bm-tta-3", "m-vliw-2"))
    @pytest.mark.parametrize("kernel", ("mips", "aes"))
    def test_block_entries_come_from_labels_and_return_sites(
        self, machine_name, kernel
    ):
        compiled = compile_for_machine(
            compile_kernel(kernel), build_machine(machine_name)
        )
        nat = build_native_program(compiled.program)
        starts = {start for start, _ in nat.entries}
        assert starts <= _entry_closure(compiled.program)
        assert compiled.program.labels and set(compiled.program.labels.values()) <= (
            starts | {len(compiled.program.instrs)}
        )

    @pytest.mark.parametrize("machine_name", DIFF_MACHINES)
    @pytest.mark.parametrize("kernel", ("mips", "adpcm", "jpeg"))
    def test_turbo_and_native_compile_the_same_blocks(self, machine_name, kernel):
        # an op only one printer supports would silently drop coverage
        from repro.sim.blockcompile import _block_compiler

        program = compile_for_machine(
            compile_kernel(kernel), build_machine(machine_name)
        ).program
        native_len = dict(build_native_program(program).entries)
        compile_block, _key, args = _block_compiler(program)
        for pc in sorted(_entry_closure(program)):
            entry = compile_block(program, pc, *args)
            turbo_len = None if entry is None else entry[0]
            assert turbo_len == native_len.get(pc), f"{kernel}/{machine_name} pc={pc}"

    def test_printers_share_the_alu_op_set(self):
        from repro.sim.cgen import _C_ALU
        from repro.sim.predecode import _ALU_EXPR, ALU_FUNCS

        assert set(_ALU_EXPR) == set(_C_ALU) == set(ALU_FUNCS)

    def test_mips_emits_about_one_cycle_per_instruction(self):
        compiled = compile_for_machine(compile_kernel("mips"), build_machine("m-tta-2"))
        nat = build_native_program(compiled.program)
        emitted = sum(length for _, length in nat.entries)
        assert emitted <= 1.1 * nat.n_instrs

    def test_in_block_reads_are_forwarded(self):
        # every FU read of mips is satisfied by a push in its own block
        # (the scheduler's software bypassing), so none reads the ring
        compiled = compile_for_machine(compile_kernel("mips"), build_machine("m-tta-2"))
        source = build_native_program(compiled.program).source
        body = source.split(f"int {ENTRY_SYMBOL}(", 1)[1]
        assert "FUREAD(" not in body
        assert "pv[" in body  # forwarded pushes store the ring directly

    def test_turbo_in_block_reads_are_forwarded(self):
        # the same blocks in Python: no pending-list commit loop
        compiled = compile_for_machine(compile_kernel("mips"), build_machine("m-tta-2"))
        program = compiled.program
        for start, _length in build_native_program(program).entries:
            source = tta_block_source(program, start)
            assert DYNAMIC_READ["turbo"] not in source, start

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

        source = _block_source(make(), 0, mode)
        assert DYNAMIC_READ[mode] not in source
        assert ("r0[1] = t2" if mode == "turbo" else "rf[1] = t2;") in source
        checked = TTASimulator(make(), mode="checked")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = _outcome(TTASimulator(make(), mode=mode))
        assert outcome == _outcome(checked) == ("ok", 6, 6)
