"""Pre-decoded fast-engine tests.

The fast engine must be bit- and cycle-exact with the checked reference
path on every CHStone-style workload, and its load-time verifier must
catch every structural violation the per-cycle checker catches (plus the
ones the per-cycle checker historically missed, like long-immediate
``extra_slots`` double-booking).
"""

from __future__ import annotations

import functools
import random
import warnings
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
from repro.sim.native import find_compiler
from repro.sim.predecode import ALU_FUNCS, static_decode_tta, static_decode_vliw

requires_cc = pytest.mark.skipif(find_compiler() is None, reason="no C compiler on PATH")

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
# dynamic semantics: every engine against the checked reference
# ---------------------------------------------------------------------------

#: every engine; native needs a C compiler (without one it would only
#: degrade to fast)
ENGINES = tuple(
    pytest.param(mode, marks=requires_cc) if mode == "native" else mode for mode in MODES
)


def _imm(value, dst, bus):
    return Move(("imm", value), dst, bus)


def _run(make_prog, mode):
    """``(outcome, state)`` of one run of a fresh ``make_prog()`` (the
    engines cache on the program): the exit code and cycles or the exact
    error text, then the register files and, on a TTA core, each unit's
    operand latch, result register and pending results."""
    prog = make_prog()
    if prog.style == "tta":
        sim = TTASimulator(prog, mode=mode, max_cycles=10_000)
    else:
        sim = VLIWSimulator(prog, mode=mode, max_cycles=10_000)
    with warnings.catch_warnings():
        # a native run that degraded to fast would hide a missing cc
        warnings.simplefilter("error")
        try:
            result = sim.run()
            outcome = ("ok", result.exit_code, result.cycles)
        except (SimError, ValueError) as exc:
            outcome = (type(exc).__name__, str(exc))
    if prog.style == "tta":
        fus = [
            (name, fu.o1, fu.result, fu.has_result, fu.pending)
            for name, fu in sorted(sim.fus.items())
        ]
        return outcome, (sim.rfs, fus)
    return outcome, {
        rf.name: [sim.regs.get(PhysReg(rf.name, i), 0) for i in range(rf.size)]
        for rf in prog.machine.register_files
    }


@functools.lru_cache(maxsize=None)
def _kernel_program(kernel, machine_name):
    return compile_for_machine(compile_kernel(kernel), build_machine(machine_name))


@functools.lru_cache(maxsize=None)
def _fast_kernel_run(kernel, machine_name):
    """``(statistics, hit vector)`` of the fast engine on one pair."""
    compiled = _kernel_program(kernel, machine_name)
    sim = TTASimulator(compiled.program, mode="fast")
    sim.preload(compiled.data_init)
    return asdict(sim.run()), sim._last_hits


@pytest.mark.parametrize("mode", ENGINES)
class TestEngineDynamics:
    """Data-dependent behaviour no load-time check can rule out: each
    scenario must give the checked reference's outcome, exact error text
    included, and leave the same registers and FU state."""

    def _diff(self, make_prog, mode):
        checked = _run(make_prog, "checked")
        assert _run(make_prog, mode) == checked
        return checked

    def test_early_result_read(self, mode):
        (kind, text), _ = self._diff(
            lambda: _tta_prog(
                [
                    [
                        _imm(3, ("op", "ALU0", "o1", None), 0),
                        _imm(4, ("op", "ALU0", "t", "mul"), 1),
                    ],
                    [Move(("fu", "ALU0"), ("rf", "RF0", 1), 0)],
                ]
            ),
            mode,
        )
        assert kind == "SimError" and "before the first result is due" in text

    def test_never_triggered_read(self, mode):
        (kind, text), _ = self._diff(
            lambda: _tta_prog([[Move(("fu", "ALU0"), ("rf", "RF0", 1), 0)]]), mode
        )
        assert kind == "SimError" and "never triggered" in text

    def test_non_monotonic_result_push(self, mode):
        # mul (latency 3) then add (latency 1): the second result would
        # be due before the first, which the reference's FU rejects
        (kind, text), _ = self._diff(
            lambda: _tta_prog(
                [
                    [
                        _imm(3, ("op", "ALU0", "o1", None), 0),
                        _imm(4, ("op", "ALU0", "t", "mul"), 1),
                    ],
                    [_imm(1, ("op", "ALU0", "t", "add"), 0)],
                ]
            ),
            mode,
        )
        assert (kind, text) == ("ValueError", "ALU0: result due 2 not after pending 3")

    def test_semi_virtual_latching_multiple_inflight(self, mode):
        outcome, (rfs, _fus) = self._diff(
            lambda: _tta_prog(
                [
                    [
                        _imm(6, ("op", "ALU0", "o1", None), 0),
                        _imm(7, ("op", "ALU0", "t", "mul"), 1),
                    ],
                    [],
                    [
                        _imm(2, ("op", "ALU0", "o1", None), 0),
                        _imm(1, ("op", "ALU0", "t", "shl"), 1),
                    ],
                    [Move(("fu", "ALU0"), ("rf", "RF0", 1), 0)],
                    [Move(("fu", "ALU0"), ("rf", "RF0", 2), 0)],
                    [_imm(0, ("op", "CU", "t", "halt"), 0)],
                ]
            ),
            mode,
        )
        assert outcome[0] == "ok"
        assert (rfs["RF0"][1], rfs["RF0"][2]) == (42, 4)

    def test_register_swap_in_one_instruction(self, mode):
        # both RF moves read the registers as they were before the cycle
        outcome, (rfs, _fus) = self._diff(
            lambda: _tta_prog(
                [
                    [_imm(5, ("rf", "RF0", 1), 0), _imm(9, ("rf", "RF1", 1), 1)],
                    [
                        Move(("rf", "RF0", 1), ("rf", "RF1", 1), 0),
                        Move(("rf", "RF1", 1), ("rf", "RF0", 1), 1),
                    ],
                    [_imm(0, ("op", "CU", "t", "halt"), 0)],
                ],
                "p-tta-2",
            ),
            mode,
        )
        assert outcome[0] == "ok"
        assert (rfs["RF0"][1], rfs["RF1"][1]) == (9, 5)

    def test_memory_fault_discards_the_cycles_register_writes(self, mode):
        # the fault in cycle 2's trigger comes before its RF commit: the
        # FU read commits ALU0's result, but RF0[1] keeps its old value
        outcome, (rfs, fus) = self._diff(
            lambda: _tta_prog(
                [
                    [
                        _imm(3, ("op", "ALU0", "o1", None), 0),
                        _imm(4, ("op", "ALU0", "t", "add"), 1),
                        _imm(99, ("rf", "RF0", 1), 2),
                    ],
                    [],
                    [
                        Move(("fu", "ALU0"), ("rf", "RF0", 1), 0),
                        _imm(0x7FFFFFFF, ("op", "LSU0", "t", "ldw"), 1),
                    ],
                    [_imm(0, ("op", "CU", "t", "halt"), 0)],
                ]
            ),
            mode,
        )
        assert "memory access out of range: 0x7fffffff+4" in outcome[1]
        assert rfs["RF0"][1] == 99
        assert ("ALU0", 3, 7, True, []) in fus

    def test_failing_fu_read_leaves_the_operand_latch(self, mode):
        # the reference samples LSU0 (never triggered) before it latches
        # ALU0's operand, so the error leaves ALU0.o1 unwritten
        (kind, text), (_rfs, fus) = self._diff(
            lambda: _tta_prog(
                [
                    [
                        _imm(9, ("op", "ALU0", "o1", None), 0),
                        Move(("fu", "LSU0"), ("op", "ALU0", "t", "add"), 1),
                    ]
                ]
            ),
            mode,
        )
        assert kind == "SimError" and "LSU0 result read at 0" in text
        assert ("ALU0", 0, 0, False, []) in fus

    def test_fu_reads_sampled_in_move_order(self, mode):
        # a trigger's read of ALU0 comes before an RF move's failing read
        # of LSU0 in move order: ALU0 commits its result first
        (kind, text), (_rfs, fus) = self._diff(
            lambda: _tta_prog(
                [
                    [
                        _imm(3, ("op", "ALU0", "o1", None), 0),
                        _imm(4, ("op", "ALU0", "t", "add"), 1),
                    ],
                    [],
                    [
                        Move(("fu", "ALU0"), ("op", "LSU0", "t", "ldw"), 0),
                        Move(("fu", "LSU0"), ("rf", "RF0", 1), 1),
                    ],
                ]
            ),
            mode,
        )
        assert kind == "SimError" and "LSU0 result read at 2" in text
        assert ("ALU0", 3, 7, True, []) in fus

    def test_failing_read_ahead_of_a_forwarded_read(self, mode):
        # inside one block: the failing read of LSU0 comes first in move
        # order, so ALU0's result, due this cycle, stays pending
        (kind, text), (_rfs, fus) = self._diff(
            lambda: _tta_prog(
                [
                    [
                        _imm(3, ("op", "ALU0", "o1", None), 0),
                        _imm(4, ("op", "ALU0", "t", "add"), 1),
                    ],
                    [
                        Move(("fu", "LSU0"), ("op", "ALU0", "t", "add"), 0),
                        Move(("fu", "ALU0"), ("rf", "RF0", 1), 1),
                    ],
                ]
            ),
            mode,
        )
        assert kind == "SimError" and "LSU0 result read at 1" in text
        assert ("ALU0", 3, 0, False, [(1, 7)]) in fus

    def test_forwarded_read_sampled_before_a_faulting_trigger(self, mode):
        # ALU0's result is forwarded to the second trigger, but the
        # reference reads it before the first trigger faults, so ALU0
        # has committed it
        (kind, text), (_rfs, fus) = self._diff(
            lambda: _tta_prog(
                [
                    [
                        _imm(3, ("op", "ALU0", "o1", None), 0),
                        _imm(4, ("op", "ALU0", "t", "add"), 1),
                    ],
                    [
                        _imm(0x7FFFFFFF, ("op", "LSU0", "t", "ldw"), 0),
                        Move(("fu", "ALU0"), ("op", "CU", "t", "setra"), 1),
                    ],
                ]
            ),
            mode,
        )
        assert kind == "SimError" and "0x7fffffff+4" in text
        assert ("ALU0", 3, 7, True, []) in fus

    def test_overlapping_control_transfers(self, mode):
        (kind, text), _ = self._diff(
            lambda: _tta_prog(
                [
                    [_imm(0, ("op", "CU", "t", "jump"), 0)],
                    [_imm(0, ("op", "CU", "t", "jump"), 0)],
                    [],
                    [],
                ]
            ),
            mode,
        )
        assert (kind, text) == ("SimError", "overlapping control transfers")

    def test_second_jump_in_flight_skips_a_later_store(self, mode):
        # a jump is in flight when pc=1 triggers a second one and then a
        # store in a later move: the overlap raises at the second jump,
        # so the store never writes
        def make_prog():
            return _tta_prog(
                [
                    [_imm(0, ("op", "CU", "t", "jump"), 0)],
                    [
                        _imm(0x55, ("op", "LSU0", "o1", None), 0),
                        _imm(0, ("op", "CU", "t", "jump"), 1),
                        _imm(0x100, ("op", "LSU0", "t", "stw"), 2),
                    ],
                    [],
                    [],
                ]
            )

        (kind, text), _ = self._diff(make_prog, mode)
        assert (kind, text) == ("SimError", "overlapping control transfers")
        sim = TTASimulator(make_prog(), mode=mode, max_cycles=10_000)
        with pytest.raises(SimError):
            sim.run()
        assert sim.fus["LSU0"].o1 == 0x55
        assert bytes(sim.memory.data[0x100:0x104]) == bytes(4)

    def test_redirect_lands_inside_an_empty_run(self, mode):
        # the jump (jump latency 3) fires at cycle 4, inside the run of
        # empty pcs 1-6, and lands on pc 3 of that run, so pc 3 runs twice
        def make_prog():
            return _tta_prog(
                [[_imm(3, ("op", "CU", "t", "jump"), 0)]]
                + [[] for _ in range(6)]
                + [[_imm(7, ("rf", "RF0", 1), 0)], [_imm(0, ("op", "CU", "t", "halt"), 0)]]
            )

        outcome, _ = self._diff(make_prog, mode)
        assert outcome == ("ok", 7, 10)
        if mode != "checked":
            sim = TTASimulator(make_prog(), mode=mode)
            sim.run()
            assert sim._last_hits == [1, 1, 1, 2, 1, 1, 1, 1, 1]

    def test_budget_runs_out_inside_an_empty_run(self, mode):
        # the 10-cycle budget runs out inside the run of empty pcs 1-20
        def make_prog():
            return _tta_prog(
                [[_imm(7, ("rf", "RF0", 1), 0)]]
                + [[] for _ in range(20)]
                + [[_imm(0, ("op", "CU", "t", "halt"), 0)]]
            )

        outcomes = []
        for engine in ("checked", mode):
            sim = TTASimulator(make_prog(), mode=engine, max_cycles=10)
            with pytest.raises(SimError) as err:
                sim.run()
            outcomes.append((str(err.value), sim.rfs))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "cycle budget exceeded (runaway program?)"

    @pytest.mark.parametrize("machine_name", ["m-tta-2", "bm-tta-3"])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_paper_kernel_hits_agree(self, mode, kernel, machine_name):
        """fast, turbo and native count every pc's executions alike (the
        fast engine advances runs of empty instructions at once); the
        checked engine keeps no hit vector, so there the counters fast
        derives from its hits must equal the reference's."""
        fast_stats, fast_hits = _fast_kernel_run(kernel, machine_name)
        assert sum(fast_hits) == fast_stats["cycles"]
        if mode == "fast":
            return
        compiled = _kernel_program(kernel, machine_name)
        sim = TTASimulator(compiled.program, mode=mode)
        sim.preload(compiled.data_init)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = asdict(sim.run())
        assert stats == fast_stats
        if mode != "checked":
            assert sim._last_hits == fast_hits

    def test_vliw_overlapping_control_transfers(self, mode):
        (kind, text), _ = self._diff(
            lambda: Program(
                build_machine("m-vliw-2"),
                "vliw",
                [
                    VLIWInstr([MOp("jump", None, [Imm(0)])]),
                    VLIWInstr([MOp("jump", None, [Imm(0)])]),
                    VLIWInstr([]),
                    VLIWInstr([]),
                ],
            ),
            mode,
        )
        assert (kind, text) == ("SimError", "overlapping control transfers")

    def test_vliw_delayed_writeback(self, mode):
        r1, r2, r3 = (PhysReg("RF0", i) for i in (1, 2, 3))
        outcome, regs = self._diff(
            lambda: Program(
                build_machine("m-vliw-2"),
                "vliw",
                [
                    VLIWInstr([MOp("add", r1, [Imm(40), Imm(2)])]),
                    VLIWInstr([MOp("add", r2, [r1, Imm(0)])]),  # reads OLD r1 (0)
                    # a mul due at cycle 5 and an add pushed later but due
                    # the same cycle: the later push wins
                    VLIWInstr([MOp("mul", r3, [r1, Imm(2)]), MOp("add", r2, [r1, Imm(0)])]),
                    VLIWInstr([]),
                    VLIWInstr([MOp("add", r3, [Imm(1), Imm(0)])]),
                    VLIWInstr([]),
                    VLIWInstr([MOp("halt", None, [Imm(0)])]),
                ],
            ),
            mode,
        )
        assert outcome[0] == "ok"
        assert (regs["RF0"][2], regs["RF0"][3]) == (42, 1)


# ---------------------------------------------------------------------------
# memory access widths: every load and store opcode, misaligned and at the
# end of memory, in every engine
# ---------------------------------------------------------------------------

#: data memory of the width programs (small, so all of it is compared)
WIDTH_MEM = 4096

_WIDTH = {"ldw": 4, "ldh": 2, "ldhu": 2, "ldq": 1, "ldqu": 1, "stw": 4, "sth": 2, "stq": 1}

#: the width programs' in-range accesses, in program order: every opcode
#: at an odd address and at the last address its width allows, storing
#: (and truncating to) the sign-bit patterns 0x8000 and 0x80
WIDTH_STORES = (
    ("stw", 0x101, 0x80018002),
    ("sth", 0x105, 0x18000),
    ("stq", 0x107, 0x180),
    ("stw", WIDTH_MEM - 4, 0x12345678),
    ("sth", WIDTH_MEM - 2, 0x8000),
    ("stq", WIDTH_MEM - 1, 0x80),
)
WIDTH_LOADS = (
    ("ldw", 0x101, 0x80018002),
    ("ldh", 0x103, 0xFFFF8001),
    ("ldhu", 0x103, 0x8001),
    ("ldh", 0x105, 0xFFFF8000),
    ("ldhu", 0x105, 0x8000),
    ("ldq", 0x107, 0xFFFFFF80),
    ("ldqu", 0x107, 0x80),
    ("ldw", WIDTH_MEM - 4, 0x80005678),
    ("ldh", WIDTH_MEM - 2, 0xFFFF8000),
    ("ldhu", WIDTH_MEM - 2, 0x8000),
    ("ldq", WIDTH_MEM - 1, 0xFFFFFF80),
    ("ldqu", WIDTH_MEM - 1, 0x80),
)


def width_program(style, fault_op=None):
    """The width program of *style* (m-tta-2 or m-vliw-2): the stores,
    then each load into ``RF0[1..]``, then, with *fault_op*, that opcode
    one byte past the end of memory (storing all ones), then halt."""
    accesses = [*WIDTH_STORES, *((op, addr, None) for op, addr, _want in WIDTH_LOADS)]
    if fault_op is not None:
        accesses.append((fault_op, WIDTH_MEM - _WIDTH[fault_op] + 1, 0xFFFFFFFF))
    if style == "tta":
        instrs = []
        reg = 0
        for op, addr, value in accesses:
            trigger = _imm(addr, ("op", "LSU0", "t", op), 0)
            if op.startswith("st"):
                instrs.append([trigger, _imm(value, ("op", "LSU0", "o1", None), 1)])
                continue
            reg += 1
            # the load's result is read at its latency, as the scheduler would
            instrs += [[trigger], [], []]
            instrs.append([Move(("fu", "LSU0"), ("rf", "RF0", reg), 0)])
        instrs.append([_imm(0, ("op", "CU", "t", "halt"), 0)])
        return _tta_prog(instrs)
    bundles = []
    reg = 0
    for op, addr, value in accesses:
        if op.startswith("st"):
            bundles.append(VLIWInstr([MOp(op, None, [Imm(addr), Imm(value)])]))
        else:
            reg += 1
            bundles.append(VLIWInstr([MOp(op, PhysReg("RF0", reg), [Imm(addr)])]))
    bundles += [VLIWInstr([]), VLIWInstr([]), VLIWInstr([MOp("halt", None, [Imm(0)])])]
    return Program(build_machine("m-vliw-2"), "vliw", bundles)


def run_width_program(prog, mode):
    """``(outcome, RF0, memory)`` of one run of *prog* in *mode*."""
    cls = TTASimulator if prog.style == "tta" else VLIWSimulator
    sim = cls(prog, mode=mode, memory_size=WIDTH_MEM, max_cycles=10_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a native run must not degrade
        try:
            result = sim.run()
            outcome = ("ok", result.exit_code, result.cycles)
        except (SimError, ValueError) as exc:
            outcome = (type(exc).__name__, str(exc))
    if prog.style == "tta":
        regs = list(sim.rfs["RF0"])
    else:
        size = prog.machine.register_files[0].size
        regs = [sim.regs.get(PhysReg("RF0", i), 0) for i in range(size)]
    return outcome, regs, bytes(sim.memory.data)


@pytest.mark.parametrize("mode", ENGINES)
@pytest.mark.parametrize("style", ["tta", "vliw"])
class TestMemoryAccessWidths:
    """Loads and stores of every width agree with the checked reference
    on registers, every memory byte and the exact fault text (no catalogue
    kernel's native code uses every width, so these pin the C macros)."""

    def test_in_range_accesses(self, style, mode):
        want = run_width_program(width_program(style), "checked")
        assert run_width_program(width_program(style), mode) == want
        outcome, regs, memory = want
        assert outcome[0] == "ok"
        assert regs[1 : len(WIDTH_LOADS) + 1] == [value for _op, _addr, value in WIDTH_LOADS]
        assert memory[0x101:0x108] == bytes([0x02, 0x80, 0x01, 0x80, 0x00, 0x80, 0x80])
        assert memory[-4:] == bytes([0x78, 0x56, 0x00, 0x80])

    @pytest.mark.parametrize("fault_op", sorted(_WIDTH))
    def test_access_one_byte_past_the_end(self, style, mode, fault_op):
        want = run_width_program(width_program(style, fault_op), "checked")
        assert run_width_program(width_program(style, fault_op), mode) == want
        width = _WIDTH[fault_op]
        assert want[0] == (
            "SimError",
            f"memory access out of range: {WIDTH_MEM - width + 1:#x}+{width}",
        )
        assert want[2][-4:] == bytes([0x78, 0x56, 0x00, 0x80])


def test_unknown_mode_rejected():
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
