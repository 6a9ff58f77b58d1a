"""Simulator unit tests: memory, timing models, error detection."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro import build_machine, compile_for_machine, compile_source
from repro.backend.mop import Imm, LabelRef, MOp, PhysReg
from repro.backend.program import Move, Program, TTAInstr, VLIWInstr
from repro.sim import DataMemory, SimError, TTASimulator, VLIWSimulator, run_compiled
from repro.sim import MODES


class TestDataMemory:
    def test_word_roundtrip(self):
        mem = DataMemory(64)
        mem.store("stw", 8, 0xDEADBEEF)
        assert mem.load("ldw", 8) == 0xDEADBEEF

    def test_little_endian(self):
        mem = DataMemory(64)
        mem.store("stw", 0, 0x11223344)
        assert mem.load("ldqu", 0) == 0x44
        assert mem.load("ldqu", 3) == 0x11

    def test_sign_extension(self):
        mem = DataMemory(64)
        mem.store("stq", 0, 0x80)
        assert mem.load("ldq", 0) == 0xFFFFFF80
        assert mem.load("ldqu", 0) == 0x80
        mem.store("sth", 4, 0x8000)
        assert mem.load("ldh", 4) == 0xFFFF8000
        assert mem.load("ldhu", 4) == 0x8000

    def test_truncating_stores(self):
        mem = DataMemory(64)
        mem.store("stq", 0, 0x1FF)
        assert mem.load("ldqu", 0) == 0xFF

    def test_bounds_checked(self):
        mem = DataMemory(16)
        with pytest.raises(SimError):
            mem.load("ldw", 14)
        with pytest.raises(SimError):
            mem.store("stw", 100, 1)

    def test_preload(self):
        mem = DataMemory(16)
        mem.preload(4, b"\x2a\x00\x00\x00")
        assert mem.load("ldw", 4) == 42

    def test_boundary_accesses_exact_fit(self):
        # The last legal address for each width is size - width.
        mem = DataMemory(16)
        mem.store("stw", 12, 0xAABBCCDD)
        assert mem.load("ldw", 12) == 0xAABBCCDD
        mem.store("sth", 14, 0x1234)
        assert mem.load("ldhu", 14) == 0x1234
        mem.store("stq", 15, 0x7F)
        assert mem.load("ldqu", 15) == 0x7F

    def test_boundary_accesses_one_past(self):
        mem = DataMemory(16)
        with pytest.raises(SimError):
            mem.load("ldw", 13)
        with pytest.raises(SimError):
            mem.load("ldhu", 15)
        with pytest.raises(SimError):
            mem.load("ldqu", 16)
        with pytest.raises(SimError):
            mem.store("sth", 15, 0)
        with pytest.raises(SimError):
            mem.store("stq", 16, 0)

    def test_negative_address_wraps_then_bounds_checked(self):
        # Addresses are masked to 32 bits first, so -4 becomes 0xFFFFFFFC,
        # which is out of range for any small memory -- not a Python
        # negative-index read of the tail of the bytearray.
        mem = DataMemory(64)
        with pytest.raises(SimError):
            mem.load("ldw", -4)
        with pytest.raises(SimError):
            mem.store("stw", -4, 1)

    def test_negative_address_error_reports_premask_value(self):
        # The error carries the address the program produced (-0x4), not
        # the 32-bit wrapped form (0xfffffffc) -- the raw value is what a
        # user can grep for in their source.
        mem = DataMemory(64)
        with pytest.raises(SimError, match=r"-0x4\+4"):
            mem.load("ldw", -4)
        with pytest.raises(SimError, match=r"-0x8\+2"):
            mem.store("sth", -8, 1)
        with pytest.raises(SimError, match=r"-0x1\+4"):
            mem.preload(-1, b"\x00\x00\x00\x00")

    def test_preload_bounds_checked(self):
        mem = DataMemory(8)
        with pytest.raises(SimError):
            mem.preload(6, b"\x00\x00\x00\x00")

    def test_preload_uses_same_address_normalization(self):
        # preload wraps addresses through the same path as load/store, so
        # a value just past 2**32 lands back inside the memory image.
        mem = DataMemory(16)
        mem.preload((1 << 32) + 8, b"\x2a\x00\x00\x00")
        assert mem.load("ldw", 8) == 42

    def test_store_masks_wide_values(self):
        # Values wider than the access size are truncated, and values wider
        # than 32 bits are masked before the width truncation.
        mem = DataMemory(64)
        mem.store("stw", 0, 0x1_2345_6789)
        assert mem.load("ldw", 0) == 0x2345_6789
        mem.store("sth", 8, 0xABCD_1234)
        assert mem.load("ldhu", 8) == 0x1234
        mem.store("stq", 12, 0xFF02)
        assert mem.load("ldqu", 12) == 0x02

    def test_sign_extension_positive_values_unchanged(self):
        # Sub-word loads of values with the sign bit clear agree between
        # the signed and unsigned variants.
        mem = DataMemory(16)
        mem.store("stq", 0, 0x7F)
        assert mem.load("ldq", 0) == mem.load("ldqu", 0) == 0x7F
        mem.store("sth", 2, 0x7FFF)
        assert mem.load("ldh", 2) == mem.load("ldhu", 2) == 0x7FFF

    def test_unknown_ops_rejected(self):
        mem = DataMemory(16)
        with pytest.raises(SimError):
            mem.load("ldx", 0)
        with pytest.raises(SimError):
            mem.store("stx", 0, 1)
        with pytest.raises(SimError):
            mem.load("stw", 0)
        with pytest.raises(SimError):
            mem.store("ldw", 0, 1)
        with pytest.raises(SimError, match="unknown memory operation"):
            mem.accessor("add")

    @pytest.mark.parametrize("op, width", [
        ("ldw", 4), ("ldh", 2), ("ldhu", 2), ("ldq", 1), ("ldqu", 1),
        ("stw", 4), ("sth", 2), ("stq", 1),
    ])
    def test_accessor_is_the_dispatched_access(self, op, width):
        """The per-opcode accessor the fast engines bind reads and writes
        exactly what :meth:`load`/:meth:`store` do, with the same fault
        text (unwrapped address)."""
        mem = DataMemory(16)
        mem.preload(0, bytes(range(0x80, 0x90)))
        access = mem.accessor(op)
        if op.startswith("ld"):
            assert [access(a) for a in range(16 - width + 1)] == \
                [mem.load(op, a) for a in range(16 - width + 1)]
        else:
            access(4, 0x1_8283_8485)
            other = DataMemory(16)
            other.preload(0, bytes(range(0x80, 0x90)))
            other.store(op, 4, 0x1_8283_8485)
            assert mem.data == other.data
        args = (-3,) if op.startswith("ld") else (-3, 0)
        with pytest.raises(SimError, match=rf"^memory access out of range: -0x3\+{width}$"):
            access(*args)
        args = (17 - width,) if op.startswith("ld") else (17 - width, 0)
        with pytest.raises(SimError, match=rf"out of range: {17 - width:#x}\+{width}$"):
            access(*args)


class TestNegativeAddressAcrossSimulators:
    """A negative array index wraps through 32-bit address arithmetic to
    an address far beyond the data memory; every simulator must reject
    it with the out-of-range error, never read a wrapped-around byte."""

    NEG_SRC = """
    int g[2] = {1, 2};
    int main(void) { int i = -300000; return g[i]; }
    """

    @pytest.mark.parametrize("machine_name", ["m-tta-2", "m-vliw-2", "mblaze-3"])
    def test_negative_index_out_of_range(self, machine_name):
        compiled = compile_for_machine(
            compile_source(self.NEG_SRC), build_machine(machine_name)
        )
        with pytest.raises(SimError, match="out of range"):
            run_compiled(compiled)

    @pytest.mark.parametrize("mode", ["checked", "fast", "turbo"])
    def test_all_engines_agree_on_the_error(self, mode):
        for machine_name in ("m-tta-2", "m-vliw-2"):
            compiled = compile_for_machine(
                compile_source(self.NEG_SRC), build_machine(machine_name)
            )
            with pytest.raises(SimError, match="out of range"):
                run_compiled(compiled, mode=mode)


class TestScalarTiming:
    def _cycles(self, src: str, machine_name: str) -> int:
        compiled = compile_for_machine(compile_source(src), build_machine(machine_name))
        result = run_compiled(compiled)
        assert result.exit_code == 0
        return result.cycles

    def test_load_stall_charged_on_3_stage(self):
        src = """
        int g[32];
        int main(void){ int i; int s=0; for(i=0;i<32;i++) s+=g[i]; return s; }
        """
        assert self._cycles(src, "mblaze-3") > self._cycles(src, "mblaze-5")

    def test_branches_cost_more_taken(self):
        loop = "int main(void){ int i; int s=0; for(i=0;i<50;i++) s+=1; return s-50; }"
        straight = "int main(void){ int s=0;" + "s+=1;" * 50 + "return s-50; }"
        assert self._cycles(loop, "mblaze-3") > self._cycles(straight, "mblaze-3")


class TestTTAVerifier:
    def _machine_prog(self, moves_lists):
        machine = build_machine("m-tta-2")
        instrs = [TTAInstr(moves) for moves in moves_lists]
        return Program(machine, "tta", instrs)

    def test_double_bus_use_detected(self):
        prog = self._machine_prog(
            [[Move(("imm", 0), ("rf", "RF0", 1), 0), Move(("imm", 1), ("rf", "RF0", 2), 0)]]
        )
        with pytest.raises(SimError, match="bus 0 used twice"):
            TTASimulator(prog).run()

    def test_write_port_oversubscription_detected(self):
        prog = self._machine_prog(
            [[Move(("imm", 0), ("rf", "RF0", 1), 0), Move(("imm", 1), ("rf", "RF0", 2), 1)]]
        )
        with pytest.raises(SimError, match="write ports"):
            TTASimulator(prog).run()

    def test_early_result_read_detected(self):
        # trigger a mul (latency 3) and read the result the next cycle
        prog = self._machine_prog(
            [
                [
                    Move(("imm", 3), ("op", "ALU0", "o1", None), 0),
                    Move(("imm", 4), ("op", "ALU0", "t", "mul"), 1),
                ],
                [Move(("fu", "ALU0"), ("rf", "RF0", 1), 0)],
            ]
        )
        with pytest.raises(SimError, match="read at"):
            TTASimulator(prog).run()

    def test_connectivity_check(self):
        # bm-tta-2 bus 3 cannot read from the register files
        machine = build_machine("bm-tta-2")
        prog = Program(
            machine,
            "tta",
            [TTAInstr([Move(("rf", "RF0", 1), ("rf", "RF1", 1), 3)])],
        )
        with pytest.raises(SimError, match="not routable"):
            TTASimulator(prog).run()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(("bus", "message"), [
        # bm-tta-2 bus 3 cannot read from the register files
        (3, "move [b3] ('rf', 'RF0', 1) -> ('rf', 'RF1', 1) not routable on bus 3"),
        (9, "unknown bus 9 at pc=0"),
    ])
    def test_unroutable_move_rejected_by_every_engine(self, mode, bus, message):
        # checked routes every executed move; the others reject the
        # program at load time -- with the same message
        machine = build_machine("bm-tta-2")
        prog = Program(machine, "tta", [
            TTAInstr([Move(("rf", "RF0", 1), ("rf", "RF1", 1), bus)]),
            TTAInstr([Move(("imm", 0), ("op", "CU", "t", "halt"), 0)]),
        ])
        with pytest.raises(SimError) as excinfo:
            TTASimulator(prog, mode=mode).run()
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("mode", MODES)
    def test_unresolved_operand_names_its_pc_in_every_engine(self, mode):
        # checked meets the operand when it executes it; the others reject
        # the program at load time -- with the same message
        tta = self._machine_prog([
            [Move(("imm", LabelRef("x")), ("rf", "RF0", 1), 0)],
            [Move(("imm", 0), ("op", "CU", "t", "halt"), 0)],
        ])
        vliw = Program(build_machine("m-vliw-2"), "vliw", [
            VLIWInstr([MOp("add", PhysReg("RF0", 1), [PhysReg("RF0", 2), LabelRef("x")])]),
            VLIWInstr([MOp("halt", None, [Imm(0)])]),
        ])
        for sim, message in (
            (TTASimulator(tta, mode=mode), "unlinked immediate &x at pc=0"),
            (VLIWSimulator(vliw, mode=mode), "unresolved operand &x at pc=0"),
        ):
            with pytest.raises(SimError) as excinfo:
                sim.run()
            assert str(excinfo.value) == message

    def test_semi_virtual_latching_multiple_inflight(self):
        # mul at cycle 0 (due 3), shl at cycle 2 (due 4): a read at cycle 3
        # must return the mul result, a read at 4 the shl result.
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
            [
                Move(("imm", 0), ("op", "CU", "t", "halt"), 0),
            ],
        ]
        prog = self._machine_prog(moves)
        sim = TTASimulator(prog)
        sim.run()
        assert sim.rfs["RF0"][1] == 42  # mul result
        assert sim.rfs["RF0"][2] == 4  # 1 << 2


class TestVLIWTiming:
    def test_delayed_writeback_visible_late(self):
        machine = build_machine("m-vliw-2")
        r1 = PhysReg("RF0", 1)
        r2 = PhysReg("RF0", 2)
        instrs = [
            VLIWInstr([MOp("add", r1, [Imm(40), Imm(2)])]),  # wb at cycle 1
            VLIWInstr([MOp("add", r2, [r1, Imm(0)])]),  # reads OLD r1 (0)
            VLIWInstr([MOp("add", r2, [r1, Imm(0)])]),  # now reads 42
            VLIWInstr([MOp("halt", None, [Imm(0)])]),
        ]
        prog = Program(machine, "vliw", instrs)
        sim = VLIWSimulator(prog)
        sim.run()
        # the second bundle executed before r1's write-back was visible
        assert sim.regs[r2] == 42

    def test_overlapping_control_rejected(self):
        machine = build_machine("m-vliw-2")
        instrs = [
            VLIWInstr([MOp("jump", None, [Imm(0)])]),
            VLIWInstr([MOp("jump", None, [Imm(0)])]),
            VLIWInstr([]),
            VLIWInstr([]),
        ]
        prog = Program(machine, "vliw", instrs)
        with pytest.raises(SimError, match="overlapping"):
            VLIWSimulator(prog).run()


class TestRunCompiled:
    def test_exit_code_plumbed(self):
        compiled = compile_for_machine(
            compile_source("int main(void){ return 123; }"), build_machine("m-tta-1")
        )
        assert run_compiled(compiled).exit_code == 123

    def test_data_preloaded(self):
        src = """
        int magic[2] = {1000, 337};
        int main(void){ return magic[0] + magic[1]; }
        """
        compiled = compile_for_machine(compile_source(src), build_machine("mblaze-3"))
        assert run_compiled(compiled).exit_code == 1337

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("machine_name", ("m-tta-2", "mblaze-3"))
    def test_repeat_run_starts_from_pristine_image(self, machine_name, mode):
        """Every run starts from the pristine data image: the program
        overwrites its globals, and a second run of the same compiled
        program (native: on its cached shared object) equals the first."""
        src = """
        int magic[2] = {1000, 337};
        int main(void){ magic[0] = magic[0] + magic[1]; magic[1] = 0; return magic[0]; }
        """
        compiled = compile_for_machine(compile_source(src), build_machine(machine_name))
        first = run_compiled(compiled, mode=mode)
        assert first.exit_code == 1337
        assert asdict(run_compiled(compiled, mode=mode)) == asdict(first)
