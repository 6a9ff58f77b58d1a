"""Linker and program-container tests."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro import build_machine, compile_for_machine, compile_source, obs
from repro.backend.asmprint import format_program
from repro.backend.compile import _shared_half
from repro.kernels import load
from repro.machine import preset_names
from repro.machine.components import RegisterFile
from repro.backend.mop import Imm, LabelRef, MOp
from repro.backend.program import Program, ScheduledBlock, VLIWInstr, link_blocks
from repro.machine.machine import MachineStyle


class TestLinker:
    def test_addresses_are_cumulative(self):
        machine = build_machine("m-vliw-2")
        blocks = [
            ScheduledBlock("a", 3, [VLIWInstr(), VLIWInstr(), VLIWInstr()]),
            ScheduledBlock("b", 2, [VLIWInstr(), VLIWInstr()]),
        ]
        program = link_blocks(machine, "vliw", blocks)
        assert program.labels == {"a": 0, "b": 3}
        assert program.instruction_count == 5

    def test_label_refs_patched(self):
        machine = build_machine("m-vliw-2")
        jump = MOp("jump", None, [LabelRef("b")])
        blocks = [
            ScheduledBlock("a", 1, [VLIWInstr([jump])]),
            ScheduledBlock("b", 1, [VLIWInstr()]),
        ]
        program = link_blocks(machine, "vliw", blocks)
        assert program.instrs[0].ops[0].srcs[0] == Imm(1)
        # the scheduled operation is shared by every design point with
        # this register-file layout, so the linker patches a copy
        assert jump.srcs[0] == LabelRef("b")

    def test_aliases(self):
        machine = build_machine("m-vliw-2")
        blocks = [ScheduledBlock("f:entry", 1, [VLIWInstr()])]
        program = link_blocks(machine, "vliw", blocks, aliases={"f": "f:entry"})
        assert program.address_of("f") == 0


class TestWholeProgramLayout:
    def test_start_is_at_address_zero(self):
        compiled = compile_for_machine(
            compile_source("int main(void){ return 1; }"), build_machine("m-tta-1")
        )
        assert compiled.program.labels["_start"] == 0
        assert compiled.program.labels["main"] > 0

    def test_every_block_label_resolves(self):
        src = """
        int f(int a){ if (a > 2) return a; return f(a + 1); }
        int main(void){ return f(0); }
        """
        compiled = compile_for_machine(compile_source(src), build_machine("m-vliw-3"))
        count = compiled.program.instruction_count
        for label, address in compiled.program.labels.items():
            assert 0 <= address <= count, label

    def test_scalar_extra_imm_words_counted(self):
        src = "int main(void){ unsigned a = 0xDEADBEEF; return (int)(a >> 24); }"
        compiled = compile_for_machine(compile_source(src), build_machine("mblaze-3"))
        assert compiled.program.extra_imm_words >= 1
        assert compiled.instruction_count > len(compiled.program.instrs)


def _listing(compiled) -> tuple:
    return (
        format_program(compiled.program),
        compiled.data_init,
        compiled.symbols,
    )


class TestSharedBackendHalf:
    """Design points with one register-file layout schedule from one
    lowered, register-allocated module (``compile_for_machine``); that
    sharing must never show in a program."""

    KERNELS = ("mips", "adpcm", "sha")

    @staticmethod
    def _machines():
        machines = [build_machine(name) for name in preset_names()]
        # m-vliw-2's register file with two read ports and one write port:
        # longer blocks, so every label address differs from m-vliw-2's
        # and a linker that patched the shared operations in place would
        # hand one machine the other's addresses
        narrow = replace(
            build_machine("m-vliw-2"),
            name="m-vliw-2-2r1w",
            register_files=(RegisterFile("RF0", 64, 2, 1),),
        )
        machines.insert(machines.index(build_machine("m-vliw-2")) + 1, narrow)
        # m-tta-2 with a shorter jump latency: the same register-file
        # layout, so the same shared half, but different dependence
        # graphs (a DDG keyed on the layout alone would be reused here)
        short_jumps = replace(build_machine("m-tta-2"), name="m-tta-2-jl1", jump_latency=1)
        machines.insert(machines.index(build_machine("m-tta-2")) + 1, short_jumps)
        return machines

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_programs_do_not_depend_on_compile_order(self, kernel):
        source = load(kernel)
        module = compile_source(source, module_name=kernel)
        pickled = pickle.dumps(module)
        machines = self._machines()
        forward = {m.name: _listing(compile_for_machine(module, m)) for m in machines}
        backward = {
            m.name: _listing(compile_for_machine(module, m)) for m in reversed(machines)
        }
        fresh = {
            m.name: _listing(
                compile_for_machine(compile_source(source, module_name=kernel), m)
            )
            for m in machines
        }
        for name in forward:
            assert forward[name] == fresh[name], name
            assert backward[name] == fresh[name], name
        assert fresh["m-vliw-2"][0] != fresh["m-vliw-2-2r1w"][0]
        assert pickle.dumps(module) == pickled

    def test_layout_reuse_is_counted(self):
        module = compile_source(load("mips"), module_name="mips")
        with obs.tracing() as tracer:
            for name in ("m-tta-2", "m-vliw-2", "mblaze-3", "mblaze-5"):
                compile_for_machine(module, build_machine(name))
        assert tracer.counters["backend.layout_reuse"] == 2
        # m-vliw-2 has m-tta-2's layout and jump latency: it reuses the
        # DDG of every block of the module; the scalar cores build none
        half = _shared_half(module, build_machine("m-tta-2"))
        n_blocks = sum(len(mfunc.blocks) for mfunc in half.mfuncs.values())
        assert tracer.counters["backend.ddg_reuse"] == n_blocks


class TestDeepCalls:
    def test_recursion_depth(self):
        src = """
        int depth(int n){ if (n == 0) return 0; return 1 + depth(n - 1); }
        int main(void){ return depth(40); }
        """
        for name in ("mblaze-3", "m-vliw-2", "m-tta-2"):
            compiled = compile_for_machine(compile_source(src), build_machine(name))
            from repro.sim import run_compiled

            assert run_compiled(compiled).exit_code == 40, name

    def test_stack_args_across_styles(self):
        src = """
        int weigh(int a, int b, int c, int d, int e, int f, int g){
            return a + b*2 + c*3 + d*4 + e*5 + f*6 + g*7;
        }
        int main(void){ return weigh(1, 1, 1, 1, 1, 1, 1); }
        """
        for name in ("mblaze-5", "p-vliw-3", "p-tta-2"):
            compiled = compile_for_machine(compile_source(src), build_machine(name))
            from repro.sim import run_compiled

            assert run_compiled(compiled).exit_code == 28, name
