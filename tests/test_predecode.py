"""Pre-decoded fast-engine tests.

The fast engine must be bit- and cycle-exact with the checked reference
path on every CHStone-style workload, and its load-time verifier must
catch every structural violation the per-cycle checker catches (plus the
ones the per-cycle checker historically missed, like long-immediate
``extra_slots`` double-booking).
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro import build_machine, compile_for_machine, compile_source
from repro.backend.mop import Imm, LabelRef, MOp, PhysReg
from repro.backend.program import Move, Program, TTAInstr, VLIWInstr
from repro.isa.operations import OPS
from repro.isa.semantics import MASK32, evaluate
from repro.kernels import KERNELS, compile_kernel
from repro.sim import (
    MODES,
    SimError,
    TTASimulator,
    VLIWSimulator,
    run_compiled,
    verify_tta_program,
    verify_vliw_program,
)
from repro.sim.predecode import ALU_FUNCS, static_decode_tta, static_decode_vliw

#: one TTA and one VLIW design point; the checked/fast agreement is
#: style-level, not design-point-level, and this keeps runtime sane
DIFF_MACHINES = ("m-tta-2", "m-vliw-2")


# ---------------------------------------------------------------------------
# differential: every workload, both modes, every statistic
# ---------------------------------------------------------------------------


@pytest.mark.slow  # full kernel x machine differential matrix
@pytest.mark.parametrize("machine_name", DIFF_MACHINES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_identical_across_modes(machine_name, kernel):
    compiled = compile_for_machine(compile_kernel(kernel), build_machine(machine_name))
    checked = run_compiled(compiled, mode="checked")
    fast = run_compiled(compiled, mode="fast")
    assert asdict(fast) == asdict(checked), f"{machine_name}/{kernel} diverged"
    assert fast.exit_code == 0


def test_branchy_recursion_identical_across_modes():
    """Calls, returns and conditional branches in both modes on the design
    points the kernel sweep does not cover."""
    src = """
    int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); }
    int main(void){ return fib(12) - 144; }
    """
    for name in ("m-tta-1", "bm-tta-3", "p-vliw-3"):
        compiled = compile_for_machine(compile_source(src), build_machine(name))
        checked = run_compiled(compiled, mode="checked")
        fast = run_compiled(compiled, mode="fast")
        assert asdict(fast) == asdict(checked), name
        assert fast.exit_code == 0


def test_alu_funcs_agree_with_evaluate():
    """The pre-bound ALU table must be bit-exact with isa.semantics."""
    rng = random.Random(1234)
    interesting = [0, 1, 2, 31, 32, 0x7FFFFFFF, 0x80000000, MASK32]
    samples = interesting + [rng.getrandbits(32) for _ in range(200)]
    for op, fn in ALU_FUNCS.items():
        operands = OPS[op].operands
        for a in samples:
            b = rng.getrandbits(32)
            if operands == 2:
                assert fn(a, b) == evaluate(op, (a, b)), (op, a, b)
            else:
                assert fn(a) == evaluate(op, (a,)), (op, a)


# ---------------------------------------------------------------------------
# load-time verifier: structural violations caught before cycle 0
# ---------------------------------------------------------------------------


def _tta_prog(moves_lists, machine_name="m-tta-2"):
    machine = build_machine(machine_name)
    return Program(machine, "tta", [TTAInstr(moves) for moves in moves_lists])


class TestTTALoadTimeVerifier:
    def test_double_bus_use(self):
        prog = _tta_prog(
            [[Move(("imm", 0), ("rf", "RF0", 1), 0), Move(("imm", 1), ("rf", "RF0", 2), 0)]]
        )
        with pytest.raises(SimError, match="bus 0 used twice"):
            verify_tta_program(prog)
        with pytest.raises(SimError, match="bus 0 used twice"):
            TTASimulator(prog, mode="fast").run()

    def test_extra_slots_counted(self):
        # m-tta-1 has 3 buses: two moves plus two long-immediate slots
        # need four -- the seed verifier silently accepted this.
        prog = _tta_prog(
            [
                [
                    Move(("imm", 0x12345678), ("rf", "RF0", 1), 0, extra_slots=2),
                    Move(("imm", 1), ("op", "ALU0", "o1", None), 1),
                ]
            ],
            "m-tta-1",
        )
        with pytest.raises(SimError, match="bus oversubscription"):
            verify_tta_program(prog)
        with pytest.raises(SimError, match="bus oversubscription"):
            TTASimulator(prog, mode="checked").run()

    def test_extra_slots_fitting_accepted(self):
        prog = _tta_prog(
            [
                [Move(("imm", 0x12345678), ("rf", "RF0", 1), 0, extra_slots=2)],
                [Move(("imm", 0), ("op", "CU", "t", "halt"), 0)],
            ],
            "m-tta-1",
        )
        verify_tta_program(prog)

    def test_write_ports(self):
        prog = _tta_prog(
            [[Move(("imm", 0), ("rf", "RF0", 1), 0), Move(("imm", 1), ("rf", "RF0", 2), 1)]]
        )
        with pytest.raises(SimError, match="write ports"):
            verify_tta_program(prog)

    def test_connectivity_always_checked_in_fast_mode(self):
        # bm-tta-2 bus 3 cannot read from the register files; fast mode
        # rejects the move at load time.
        machine = build_machine("bm-tta-2")
        prog = Program(
            machine, "tta", [TTAInstr([Move(("rf", "RF0", 1), ("rf", "RF1", 1), 3)])]
        )
        with pytest.raises(SimError, match="not routable"):
            TTASimulator(prog, mode="fast").run()

    def test_unlinked_immediate_rejected_at_load(self):
        prog = _tta_prog([[Move(("imm", LabelRef("nowhere")), ("rf", "RF0", 1), 0)]])
        with pytest.raises(SimError, match="unlinked immediate"):
            verify_tta_program(prog)

    def test_trigger_without_opcode_rejected_at_load(self):
        prog = _tta_prog([[Move(("imm", 0), ("op", "ALU0", "t", None), 0)]])
        with pytest.raises(SimError, match="without opcode"):
            verify_tta_program(prog)

    def test_register_index_range_checked(self):
        prog = _tta_prog([[Move(("imm", 0), ("rf", "RF0", 9999), 0)]])
        with pytest.raises(SimError, match="out of range"):
            verify_tta_program(prog)

    def test_decode_is_cached_on_program(self):
        prog = _tta_prog([[Move(("imm", 0), ("op", "CU", "t", "halt"), 0)]])
        first = static_decode_tta(prog)
        assert static_decode_tta(prog) is first
        prog.invalidate_predecode()
        assert static_decode_tta(prog) is not first


class TestVLIWLoadTimeVerifier:
    def _prog(self, instrs, machine_name="m-vliw-2"):
        return Program(build_machine(machine_name), "vliw", instrs)

    def test_issue_width_enforced(self):
        machine = build_machine("m-vliw-2")
        regs = [PhysReg("RF0", i) for i in range(1, 6)]
        ops = [MOp("add", r, [Imm(1), Imm(2)]) for r in regs]
        prog = self._prog([VLIWInstr(ops)])
        assert len(ops) > machine.issue_width
        with pytest.raises(SimError, match="issue width"):
            verify_vliw_program(prog)

    def test_unresolved_operand_rejected_at_load(self):
        prog = self._prog(
            [VLIWInstr([MOp("add", PhysReg("RF0", 1), [LabelRef("x"), Imm(0)])])]
        )
        with pytest.raises(SimError, match="unresolved operand"):
            verify_vliw_program(prog)

    def test_missing_destination_rejected_at_load(self):
        prog = self._prog([VLIWInstr([MOp("add", None, [Imm(1), Imm(2)])])])
        with pytest.raises(SimError, match="lacks a destination"):
            verify_vliw_program(prog)

    def test_decode_is_cached_on_program(self):
        prog = self._prog([VLIWInstr([MOp("halt", None, [Imm(0)])])])
        first = static_decode_vliw(prog)
        assert static_decode_vliw(prog) is first


def _bad_register_sim(style, mode, rf, idx, access):
    """A simulator whose first instruction reads or writes ``rf[idx]``."""
    if style == "tta":
        move = (Move(("rf", rf, idx), ("rf", "RF0", 1), 0) if access == "read"
                else Move(("imm", 0), ("rf", rf, idx), 0))
        halt = Move(("imm", 0), ("op", "CU", "t", "halt"), 0)
        return TTASimulator(_tta_prog([[move], [halt]]), mode=mode)
    op = (MOp("add", PhysReg("RF0", 1), [PhysReg(rf, idx), Imm(0)]) if access == "read"
          else MOp("add", PhysReg(rf, idx), [Imm(1), Imm(2)]))
    prog = Program(build_machine("m-vliw-2"), "vliw",
                   [VLIWInstr([op]), VLIWInstr([MOp("halt", None, [Imm(0)])])])
    return VLIWSimulator(prog, mode=mode)


@pytest.mark.parametrize("access", ["read", "write"])
@pytest.mark.parametrize("idx", [99, -1])
@pytest.mark.parametrize("style", ["tta", "vliw"])
@pytest.mark.parametrize("mode", MODES)
def test_register_index_out_of_range_same_error_in_every_engine(mode, style, idx, access):
    sim = _bad_register_sim(style, mode, "RF0", idx, access)
    with pytest.raises(SimError) as err:
        sim.run()
    assert str(err.value) == f"register index RF0[{idx}] out of range at pc=0"


@pytest.mark.parametrize("access", ["read", "write"])
@pytest.mark.parametrize("style", ["tta", "vliw"])
@pytest.mark.parametrize("mode", MODES)
def test_unknown_register_file_same_error_in_every_engine(mode, style, access):
    """Every engine raises the load-time verifier's first error (a TTA
    write to an unknown file is unroutable before its file is looked up)."""
    sim = _bad_register_sim(style, mode, "RF9", 0, access)
    verify = verify_tta_program if style == "tta" else verify_vliw_program
    with pytest.raises(SimError) as want:
        verify(sim.program)
    with pytest.raises(SimError) as err:
        sim.run()
    assert str(err.value) == str(want.value)
    if (style, access) != ("tta", "write"):
        assert str(err.value) == "unknown register file 'RF9' at pc=0"


# ---------------------------------------------------------------------------
# fast-engine dynamic semantics
# ---------------------------------------------------------------------------


class TestFastEngineDynamics:
    def test_early_result_read_still_raises(self):
        prog = _tta_prog(
            [
                [
                    Move(("imm", 3), ("op", "ALU0", "o1", None), 0),
                    Move(("imm", 4), ("op", "ALU0", "t", "mul"), 1),
                ],
                [Move(("fu", "ALU0"), ("rf", "RF0", 1), 0)],
            ]
        )
        with pytest.raises(SimError, match="before the first result is due"):
            TTASimulator(prog, mode="fast").run()

    def test_never_triggered_read_diagnosed(self):
        prog = _tta_prog([[Move(("fu", "ALU0"), ("rf", "RF0", 1), 0)]])
        with pytest.raises(SimError, match="never triggered"):
            TTASimulator(prog, mode="fast").run()

    def test_semi_virtual_latching_multiple_inflight(self):
        moves = [
            [
                Move(("imm", 6), ("op", "ALU0", "o1", None), 0),
                Move(("imm", 7), ("op", "ALU0", "t", "mul"), 1),
            ],
            [],
            [
                Move(("imm", 2), ("op", "ALU0", "o1", None), 0),
                Move(("imm", 1), ("op", "ALU0", "t", "shl"), 1),
            ],
            [Move(("fu", "ALU0"), ("rf", "RF0", 1), 0)],
            [Move(("fu", "ALU0"), ("rf", "RF0", 2), 0)],
            [Move(("imm", 0), ("op", "CU", "t", "halt"), 0)],
        ]
        sim = TTASimulator(_tta_prog(moves), mode="fast")
        sim.run()
        assert sim.rfs["RF0"][1] == 42
        assert sim.rfs["RF0"][2] == 4

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
        sim = VLIWSimulator(prog, mode="fast")
        sim.run()
        assert sim.regs[r2] == 42

    def test_vliw_overlapping_control_rejected(self):
        machine = build_machine("m-vliw-2")
        instrs = [
            VLIWInstr([MOp("jump", None, [Imm(0)])]),
            VLIWInstr([MOp("jump", None, [Imm(0)])]),
            VLIWInstr([]),
            VLIWInstr([]),
        ]
        prog = Program(machine, "vliw", instrs)
        with pytest.raises(SimError, match="overlapping"):
            VLIWSimulator(prog, mode="fast").run()

    def test_unknown_mode_rejected(self):
        prog = _tta_prog([[Move(("imm", 0), ("op", "CU", "t", "halt"), 0)]])
        with pytest.raises(ValueError, match="unknown simulation mode"):
            TTASimulator(prog, mode="blazing")
        with pytest.raises(ValueError, match="unknown simulation mode"):
            VLIWSimulator(Program(build_machine("m-vliw-2"), "vliw", []), mode="blazing")


# ---------------------------------------------------------------------------
# regression: simulator state must not leak across instances
# ---------------------------------------------------------------------------


class TestSimulatorStateIsolation:
    def test_pending_redirect_is_instance_state(self):
        """``_pending_redirect`` used to be a class attribute; a pending
        branch latched through the class dict could leak into every other
        simulator in the process."""
        prog = _tta_prog([[Move(("imm", 0), ("op", "CU", "t", "halt"), 0)]])
        sim_a = TTASimulator(prog)
        sim_b = TTASimulator(prog)
        assert "_pending_redirect" in vars(sim_a)
        assert vars(sim_a)["_pending_redirect"] is None
        sim_a._pending_redirect = (5, 0)
        assert sim_b._pending_redirect is None
        assert not hasattr(TTASimulator, "_pending_redirect")

    def test_two_sims_in_one_process_agree(self):
        src = """
        int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); }
        int main(void){ return fib(9) - 34; }
        """
        compiled = compile_for_machine(compile_source(src), build_machine("m-tta-2"))
        sims = [
            TTASimulator(compiled.program, mode=mode) for mode in ("checked", "fast")
        ]
        for sim in sims:
            sim.preload(compiled.data_init)
        results = [sim.run() for sim in sims]
        assert asdict(results[0]) == asdict(results[1])
        assert results[0].exit_code == 0
