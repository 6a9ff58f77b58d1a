"""Scheduler tests: correctness across machines plus TTA-specific
invariants (the checked simulator itself verifies structural
constraints, bus routing included, on every executed instruction)."""

from __future__ import annotations

import pytest

from repro import build_machine, compile_for_machine, compile_source
from repro.backend.program import TTAInstr
from repro.ir import Interpreter
from repro.sim import run_compiled

SNIPPETS = {
    "chain": """
        int main(void){
            int a = 3; int i;
            for (i = 0; i < 20; i++) a = a * 5 + 1;
            return a & 0xFF;
        }
    """,
    "memory": """
        int buf[16];
        int main(void){
            int i; int s = 0;
            for (i = 0; i < 16; i++) buf[i] = i * i;
            for (i = 15; i >= 0; i--) s += buf[i];
            return s & 0xFF;
        }
    """,
    "branchy": """
        int main(void){
            int i; int s = 0;
            for (i = 0; i < 40; i++) {
                if (i % 3 == 0) s += i;
                else if (i % 3 == 1) s -= i;
                else s ^= i;
            }
            return s & 0xFF;
        }
    """,
    "calls": """
        int twice(int v){ return v * 2; }
        int offset(int v){ return twice(v) + 1; }
        int main(void){
            int i; int s = 0;
            for (i = 0; i < 10; i++) s += offset(i);
            return s & 0xFF;
        }
    """,
    "wide_constants": """
        int main(void){
            unsigned a = 0xDEADBEEF;
            unsigned b = 0x12345678;
            return (int)((a ^ b) & 0xFF);
        }
    """,
}


@pytest.mark.parametrize("snippet", sorted(SNIPPETS))
def test_scheduled_result_matches_interpreter(core_machine, snippet):
    src = SNIPPETS[snippet]
    expected = Interpreter(compile_source(src)).run()
    compiled = compile_for_machine(compile_source(src), core_machine)
    result = run_compiled(compiled, max_cycles=2_000_000)
    assert result.exit_code == expected


class TestTTAScheduleProperties:
    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_for_machine(
            compile_source(SNIPPETS["chain"]), build_machine("m-tta-2")
        )

    def test_at_most_one_move_per_bus(self, compiled):
        for instr in compiled.program.instrs:
            assert isinstance(instr, TTAInstr)
            buses = [m.bus for m in instr.moves]
            assert len(buses) == len(set(buses))

    def test_moves_respect_connectivity(self, compiled):
        from repro.sim.predecode import dst_endpoint, src_endpoint

        buses = {bus.index: bus for bus in compiled.machine.buses}
        for instr in compiled.program.instrs:
            for move in instr.moves:
                bus = buses[move.bus]
                src_ep = src_endpoint(move)
                dst_ep = dst_endpoint(move)
                if move.src[0] == "imm" and not isinstance(move.src[1], int):
                    continue
                assert bus.connects(src_ep, dst_ep), move

    def test_rf_ports_statically_respected(self, compiled):
        machine = compiled.machine
        limits_r = {rf.name: rf.read_ports for rf in machine.register_files}
        limits_w = {rf.name: rf.write_ports for rf in machine.register_files}
        for instr in compiled.program.instrs:
            reads: dict[str, int] = {}
            writes: dict[str, int] = {}
            for move in instr.moves:
                if move.src[0] == "rf":
                    reads[move.src[1]] = reads.get(move.src[1], 0) + 1
                if move.dst[0] == "rf":
                    writes[move.dst[1]] = writes.get(move.dst[1], 0) + 1
            for rf, n in reads.items():
                assert n <= limits_r[rf]
            for rf, n in writes.items():
                assert n <= limits_w[rf]

    def test_bypassing_happens(self, compiled):
        result = run_compiled(compiled)
        assert result.bypass_reads > 0, "dependence chain must use software bypassing"

    def test_dead_result_elimination_reduces_rf_writes(self, compiled):
        # The chain writes far fewer RF results than it triggers operations.
        result = run_compiled(compiled)
        assert result.rf_writes < result.triggers


class TestVLIWScheduleProperties:
    def test_issue_width_respected(self):
        compiled = compile_for_machine(
            compile_source(SNIPPETS["memory"]), build_machine("m-vliw-2")
        )
        for instr in compiled.program.instrs:
            assert len(instr.ops) <= 2

    def test_vliw3_uses_parallelism(self):
        compiled = compile_for_machine(
            compile_source(SNIPPETS["memory"]), build_machine("m-vliw-3")
        )
        widths = [len(instr.ops) for instr in compiled.program.instrs]
        assert max(widths) >= 2, "schedule should find some ILP"


class TestCycleShape:
    """The headline comparative effects the paper reports."""

    def test_tta_beats_vliw_on_dependence_chain(self):
        src = SNIPPETS["chain"]
        vliw = run_compiled(
            compile_for_machine(compile_source(src), build_machine("m-vliw-2"))
        )
        tta = run_compiled(
            compile_for_machine(compile_source(src), build_machine("m-tta-2"))
        )
        assert tta.exit_code == vliw.exit_code
        assert tta.cycles < vliw.cycles

    def test_mblaze5_beats_mblaze3(self):
        src = SNIPPETS["memory"]
        m3 = run_compiled(compile_for_machine(compile_source(src), build_machine("mblaze-3")))
        m5 = run_compiled(compile_for_machine(compile_source(src), build_machine("mblaze-5")))
        assert m5.cycles < m3.cycles

    def test_3_issue_not_slower_than_2_issue(self):
        src = SNIPPETS["memory"]
        w2 = run_compiled(compile_for_machine(compile_source(src), build_machine("m-vliw-2")))
        w3 = run_compiled(compile_for_machine(compile_source(src), build_machine("m-vliw-3")))
        assert w3.cycles <= w2.cycles * 1.05
