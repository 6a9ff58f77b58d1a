"""Scalar (MicroBlaze-like) core unit tests.

Hand-built ``MOp`` programs pin down the stall model cycle-by-cycle
(branch/call/load/shift/mul extras, IMM-prefix fetch words) and mirror
the ``DataMemory`` boundary/masking tests through the core's own
load/store path, so the scalar baseline the paper's speedup claims
divide by is itself under test.  They run on the default (block)
engine; the differential tests at the end hold the block engine to the
checked interpreter -- every result field, the final registers, ``ra``
and memory, and every error text.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

import pytest

from repro import build_machine, compile_for_machine, compile_source, obs
from repro.backend.abi import return_value_reg
from repro.backend.mop import Imm, LabelRef, MOp, PhysReg
from repro.backend.program import Program
from repro.kernels import catalog, compile_kernel, load
from repro.sim import MODES, ScalarSimulator, SimError, run_compiled
from repro.sim.blockcompile import scalar_block_source

R1 = PhysReg("RF0", 1)  # return value / first argument register
R2 = PhysReg("RF0", 2)
R3 = PhysReg("RF0", 3)


def _sim(ops, machine_name="mblaze-3", **kwargs):
    machine = build_machine(machine_name)
    assert return_value_reg(machine) == R1
    return ScalarSimulator(Program(machine, "scalar", list(ops)), **kwargs)


def _run(ops, machine_name="mblaze-3", **kwargs):
    sim = _sim(ops, machine_name, **kwargs)
    return sim.run(), sim


HALT = MOp("halt", None, [Imm(0)])


class TestScalarBranchTiming:
    """mblaze-3: taken_branch_extra=2, untaken_branch_extra=0, call_extra=2."""

    def test_halt_is_free_and_counts_as_instruction(self):
        result, _ = _run([MOp("copy", R1, [Imm(5)]), HALT])
        assert result.exit_code == 5
        assert result.instructions == 2
        assert result.cycles == 1  # halt charges no cycle

    def test_taken_conditional_branch_pays_bubbles(self):
        result, _ = _run(
            [
                MOp("copy", R2, [Imm(1)]),
                MOp("cjump", None, [R2, Imm(3)]),
                MOp("copy", R1, [Imm(99)]),  # skipped
                HALT,
            ]
        )
        assert result.exit_code == 0
        assert result.taken_branches == 1
        assert result.cycles == 1 + (1 + 2)  # copy + taken cjump

    def test_untaken_conditional_branch_is_cheap(self):
        result, _ = _run(
            [
                MOp("cjump", None, [R2, Imm(3)]),  # R2 == 0: not taken
                MOp("copy", R1, [Imm(7)]),
                HALT,
            ]
        )
        assert result.exit_code == 7
        assert result.taken_branches == 0
        assert result.cycles == 1 + 1  # untaken_branch_extra is 0

    def test_cjumpz_takes_on_zero(self):
        result, _ = _run(
            [
                MOp("cjumpz", None, [R2, Imm(3)]),  # R2 == 0: taken
                MOp("copy", R1, [Imm(99)]),  # skipped
                HALT,
                MOp("copy", R1, [Imm(3)]),
                MOp("jump", None, [Imm(2)]),
            ]
        )
        assert result.exit_code == 3
        assert result.taken_branches == 1  # only cjump/cjumpz count

    def test_unconditional_jump_pays_bubbles_but_is_not_a_taken_branch(self):
        result, _ = _run([MOp("jump", None, [Imm(2)]), HALT, HALT])
        assert result.taken_branches == 0
        assert result.cycles == 1 + 2

    def test_call_ret_roundtrip_and_cost(self):
        result, sim = _run(
            [
                MOp("call", None, [Imm(2)]),
                HALT,
                MOp("copy", R1, [Imm(7)]),
                MOp("ret", None, []),
            ]
        )
        assert result.exit_code == 7
        assert result.instructions == 4
        # call(1+2) + copy(1) + ret(1+2); halt free
        assert result.cycles == 7
        assert sim.ra == 1

    def test_getra_setra(self):
        result, _ = _run(
            [
                MOp("call", None, [Imm(2)]),
                HALT,
                MOp("getra", R2, []),
                MOp("copy", R1, [R2]),  # ra == 1
                MOp("setra", None, [Imm(1)]),
                MOp("ret", None, []),
            ]
        )
        assert result.exit_code == 1


class TestScalarStallModel:
    def test_load_shift_mul_extras_differ_between_pipelines(self):
        """mblaze-3 (no forwarding) charges +1/+1/+2 for load/shift/mul;
        mblaze-5 (forwarding) charges none of them."""
        ops = [
            MOp("stw", None, [Imm(0), Imm(6)]),
            MOp("ldw", R2, [Imm(0)]),
            MOp("shl", R2, [R2, Imm(1)]),
            MOp("mul", R1, [R2, Imm(2)]),  # (6 << 1) * 2 == 24
            HALT,
        ]
        r3, _ = _run(ops, "mblaze-3")
        r5, _ = _run(ops, "mblaze-5")
        assert r3.exit_code == r5.exit_code == 24
        assert r3.instructions == r5.instructions == 5
        assert r3.cycles - r5.cycles == 1 + 1 + 2

    def test_wide_immediates_cost_a_prefix_fetch(self):
        narrow, _ = _run([MOp("copy", R1, [Imm(1)]), HALT])
        wide, _ = _run([MOp("copy", R1, [Imm(0x12345678)]), HALT])
        assert wide.cycles - narrow.cycles == 1

    def test_falling_off_the_end_raises(self):
        with pytest.raises(SimError, match="PC out of range"):
            _run([MOp("copy", R1, [Imm(1)])])

    def test_cycle_budget_enforced(self):
        with pytest.raises(SimError, match="cycle budget"):
            _run([MOp("jump", None, [Imm(0)])], max_cycles=100)

    def test_unresolved_operand_raises(self):
        with pytest.raises(SimError, match="unresolved operand"):
            _run([MOp("copy", R1, [LabelRef("nowhere")]), HALT])


class TestScalarMemoryPath:
    """DataMemory boundary/masking semantics through the core's own
    load/store ops (mirrors TestDataMemory in test_sims.py)."""

    def test_word_roundtrip_and_counters(self):
        result, sim = _run(
            [
                MOp("stw", None, [Imm(8), Imm(0xDEADBEEF)]),
                MOp("ldw", R1, [Imm(8)]),
                HALT,
            ],
            memory_size=64,
        )
        assert result.exit_code == 0xDEADBEEF
        assert result.loads == 1 and result.stores == 1

    def test_subword_sign_extension(self):
        _, sim = _run(
            [
                MOp("stq", None, [Imm(0), Imm(0x80)]),
                MOp("ldq", R1, [Imm(0)]),
                MOp("ldqu", R2, [Imm(0)]),
                MOp("sth", None, [Imm(4), Imm(0x8000)]),
                MOp("ldh", R3, [Imm(4)]),
                HALT,
            ],
            memory_size=64,
        )
        assert sim.regs[R1] == 0xFFFFFF80
        assert sim.regs[R2] == 0x80
        assert sim.regs[R3] == 0xFFFF8000

    def test_truncating_store_and_little_endian(self):
        _, sim = _run(
            [
                MOp("stw", None, [Imm(0), Imm(0x11223344)]),
                MOp("ldqu", R2, [Imm(0)]),
                MOp("ldqu", R3, [Imm(3)]),
                MOp("stq", None, [Imm(8), Imm(0x1FF)]),
                MOp("ldqu", R1, [Imm(8)]),
                HALT,
            ],
            memory_size=64,
        )
        assert sim.regs[R2] == 0x44 and sim.regs[R3] == 0x11
        assert sim.regs[R1] == 0xFF

    def test_out_of_bounds_access_raises(self):
        with pytest.raises(SimError):
            _run([MOp("ldw", R1, [Imm(61)]), HALT], memory_size=64)
        with pytest.raises(SimError):
            _run([MOp("stw", None, [Imm(100), Imm(1)]), HALT], memory_size=64)

    def test_negative_address_wraps_then_bounds_checked(self):
        # -4 & MASK32 == 0xFFFFFFFC: out of range, not a Python tail read.
        with pytest.raises(SimError):
            _run([MOp("ldw", R1, [Imm(-4)]), HALT], memory_size=64)

    def test_preload_visible_to_loads(self):
        sim = _sim([MOp("ldw", R1, [Imm(4)]), HALT], memory_size=64)
        sim.preload([(4, b"\x2a\x00\x00\x00")])
        assert sim.run().exit_code == 42


class TestScalarCompiledPrograms:
    def test_branch_heavy_source_program(self):
        src = """
        int collatz(int n){ int steps=0;
            while (n != 1){ if (n % 2 == 0) n = n / 2; else n = 3*n + 1; steps++; }
            return steps; }
        int main(void){ return collatz(27) - 111; }
        """
        for name in ("mblaze-3", "mblaze-5"):
            compiled = compile_for_machine(compile_source(src), build_machine(name))
            result = run_compiled(compiled)
            assert result.exit_code == 0, name
            assert result.taken_branches > 100, name
            assert result.cycles > result.instructions, name


# ---------------------------------------------------------------------------
# differential: the block engine against the checked interpreter
# ---------------------------------------------------------------------------

SCALAR_MACHINES = ("mblaze-3", "mblaze-5")

#: the engine the fast, turbo and native modes all run on the scalar core
BLOCK_MODES = tuple(mode for mode in MODES if mode != "checked")


def _outcome(program, mode, data_init=(), **kwargs):
    """Everything a run leaves behind: its result (or error text), the
    registers, ``ra`` and a digest of data memory."""
    sim = ScalarSimulator(program, mode=mode, **kwargs)
    sim.preload(list(data_init))
    try:
        result = asdict(sim.run())
    except SimError as exc:
        result = f"SimError: {exc}"
    return result, sim.regs, sim.ra, hashlib.sha256(sim.memory.data).hexdigest()


def _assert_engines_agree(program, data_init=(), **kwargs):
    """Every mode ends in the checked interpreter's state; returns it."""
    reference = _outcome(program, "checked", data_init, **kwargs)
    for mode in BLOCK_MODES:
        assert _outcome(program, mode, data_init, **kwargs) == reference, mode
    return reference


def _assert_kernel_agrees(machine_name, kernel):
    module = compile_source(load(kernel), module_name=kernel)
    compiled = compile_for_machine(module, build_machine(machine_name))
    result = _assert_engines_agree(compiled.program, compiled.data_init)[0]
    assert isinstance(result, dict), f"{machine_name}/{kernel}: {result}"


@pytest.mark.slow  # full kernel x preset matrix under the slow interpreter
@pytest.mark.parametrize("machine_name", SCALAR_MACHINES)
@pytest.mark.parametrize("kernel", catalog())
def test_kernels_identical_block_engine_vs_checked(machine_name, kernel):
    _assert_kernel_agrees(machine_name, kernel)


class TestScalarDifferentialSmoke:
    """Small block-engine-vs-checked matrix the CI workflow runs on every
    push (selected by class name; keep it fast: 2 presets x 2 kernels)."""

    @pytest.mark.parametrize("machine_name", SCALAR_MACHINES)
    @pytest.mark.parametrize("kernel", ("mips", "motion"))
    def test_smoke(self, machine_name, kernel):
        _assert_kernel_agrees(machine_name, kernel)


def _program(ops, machine_name="mblaze-3"):
    return Program(build_machine(machine_name), "scalar", list(ops))


class TestBlockEngineFallsBackToInterpreter:
    """Each error the interpreter raises is raised with the same text by
    the block engine, which hands such code to the interpreter."""

    def test_budget_crossed_mid_block_before_a_bad_load(self):
        # one block: copy, copy, out-of-range load.  A budget of one cycle
        # runs out at the second copy, before the load could fault.
        program = _program(
            [
                MOp("copy", R2, [Imm(1)]),
                MOp("copy", R3, [Imm(2)]),
                MOp("ldw", R1, [Imm(0x7FFF0)]),
                HALT,
            ]
        )
        assert scalar_block_source(program, 0) is not None
        result = _assert_engines_agree(program, max_cycles=1, memory_size=64)[0]
        assert result == "SimError: cycle budget exceeded (runaway program?)"
        result = _assert_engines_agree(program, memory_size=64)[0]
        assert result == "SimError: memory access out of range: 0x7fff0+4"

    @pytest.mark.parametrize("ops, pc", [
        ([MOp("jump", None, [Imm(100)])], 100),
        ([MOp("copy", R2, [Imm(77)]), MOp("jump", None, [R2])], 77),
        ([MOp("setra", None, [Imm(50)]), MOp("ret", None, [])], 50),
        ([MOp("copy", R2, [Imm(1)]), MOp("cjump", None, [R2, Imm(9)])], 9),
        ([MOp("copy", R1, [Imm(1)])], 1),  # falls off the end
    ], ids=["jump", "computed-jump", "ret", "cjump", "fall-through"])
    def test_transfer_to_out_of_range_pc(self, ops, pc):
        result = _assert_engines_agree(_program(ops))[0]
        assert result == f"SimError: PC out of range: {pc}"

    @pytest.mark.parametrize("op, size", [("ldw", 4), ("ldhu", 2), ("stw", 4), ("stq", 1)])
    def test_memory_access_out_of_range(self, op, size):
        # raised inside the block by the data memory both engines share
        load = op.startswith("ld")
        program = _program(
            [
                MOp("stw", None, [Imm(0), Imm(0xABCD)]),
                MOp("copy", R2, [Imm(64)]),
                MOp(op, R1 if load else None, [R2] if load else [R2, Imm(5)]),
                HALT,
            ]
        )
        result, regs, _ra, _mem = _assert_engines_agree(program, memory_size=64)
        assert result == f"SimError: memory access out of range: 0x40+{size}"
        assert regs[R2] == 64  # the ops before the fault have retired

    def test_unresolved_operand_is_stepped_by_the_interpreter(self):
        program = _program(
            [
                MOp("copy", R2, [Imm(3)]),
                MOp("copy", R1, [LabelRef("nowhere")]),
                HALT,
            ]
        )
        # the block at pc 0 ends before the unresolved operand; no block
        # starts on it
        assert "r0[2] = 3" in scalar_block_source(program, 0)
        assert scalar_block_source(program, 1) is None
        result, regs, _ra, _mem = _assert_engines_agree(program)
        assert result == "SimError: unresolved operand &nowhere"
        assert regs[R2] == 3


class TestBlockEngineEdges:
    @pytest.mark.parametrize("target", [Imm(3), R3], ids=["static", "computed"])
    def test_taken_branch_to_next_op_is_not_counted(self, target):
        result = _assert_engines_agree(
            _program(
                [
                    MOp("copy", R2, [Imm(1)]),
                    MOp("copy", R3, [Imm(3)]),
                    MOp("cjump", None, [R2, target]),  # taken, to pc 3
                    MOp("copy", R1, [Imm(4)]),
                    HALT,
                ]
            ),
            max_cycles=100,
        )[0]
        assert result["taken_branches"] == 0
        assert result["cycles"] == 1 + 1 + (1 + 2) + 1  # the taken extra is paid
        assert result["exit_code"] == 4

    def test_cycle_budget_edge(self):
        """Around the exact cycle count of a loop, every budget ends the
        same way in every engine."""
        program = _program(
            [
                MOp("copy", R2, [Imm(5)]),
                MOp("sub", R2, [R2, Imm(1)]),
                MOp("mul", R3, [R2, Imm(3)]),
                MOp("cjump", None, [R2, Imm(1)]),
                MOp("copy", R1, [Imm(7)]),
                HALT,
            ]
        )
        cycles = _assert_engines_agree(program)[0]["cycles"]
        for budget in range(cycles - 6, cycles + 2):
            result = _assert_engines_agree(program, max_cycles=budget)[0]
            if budget < cycles:
                assert result == "SimError: cycle budget exceeded (runaway program?)"
            else:
                assert result["cycles"] == cycles

    def test_block_engine_runs_in_every_non_checked_mode(self):
        """fast, turbo and native all run the Python blocks (there is no
        C engine for the scalar core, and native does not degrade)."""
        compiled = compile_for_machine(compile_kernel("mips"), build_machine("mblaze-3"))
        for mode in MODES:
            compiled.program.invalidate_predecode()
            with obs.tracing() as tracer:
                run_compiled(compiled, mode=mode)
            counters = tracer.to_payload()["counters"]
            compiled_blocks = counters.get("sim.scalar.blocks_compiled", 0)
            assert (compiled_blocks > 0) == (mode != "checked"), mode
            assert "sim.native.degraded_runs" not in counters
