"""Lowering IR functions to machine operations.

Lowering is style-independent: the same machine code (modulo register
allocation) feeds the TTA, VLIW and scalar schedulers, mirroring the
paper's methodology of using one compiler for every design point.

Code layout decisions made here:

* block labels become globally unique (``func:block``);
* conditional branches pick ``cjump``/``cjumpz`` so that the fall-through
  edge targets the next block in layout order whenever possible;
* calls expand to argument moves into the ABI registers (plus stack
  stores for arguments beyond four), and non-leaf functions capture the
  control unit's return address into an ordinary register (``getra``)
  at entry and restore it (``setra``) before returning.
"""

from __future__ import annotations

from repro.backend.abi import NUM_ARG_REGS, arg_regs, return_value_reg, stack_pointer
from repro.backend.mop import FrameRef, Imm, LabelRef, MBlock, MFunction, MOp, Src
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Call,
    CJump,
    Const,
    Copy,
    FrameAddr,
    Jump,
    Load,
    Operand,
    Ret,
    Store,
    Sym,
    UnOp,
    VReg,
)
from repro.machine.machine import Machine

_MASK32 = 0xFFFFFFFF


def block_label(function_name: str, block_name: str) -> str:
    return f"{function_name}:{block_name}"


class _Lowerer:
    """Lowers one function without modifying it.

    Vregs the lowering needs (return-address capture, stack-argument
    addresses) come from a private counter that continues where the IR
    function's own numbering stops, so one optimised module can be
    lowered for any number of machines and always yields the same code.
    """

    def __init__(self, fn: Function, machine: Machine, symbols: dict[str, int]) -> None:
        self.fn = fn
        self._next_vreg = fn._next_vreg
        self.machine = machine
        self.symbols = symbols
        self.sp = stack_pointer(machine)
        self.args = arg_regs(machine)
        self.rv = return_value_reg(machine)
        self.has_calls = any(
            isinstance(instr, Call)
            for block in fn.ordered_blocks()
            for instr in block.instrs
        )
        self.ra_vreg: VReg | None = self.new_vreg() if self.has_calls else None
        self.mfunc = MFunction(
            fn.name,
            frame_slots={
                name: (slot.size, slot.align) for name, slot in fn.frame_slots.items()
            },
            has_calls=self.has_calls,
        )

    def new_vreg(self) -> VReg:
        reg = VReg(self._next_vreg)
        self._next_vreg += 1
        return reg

    # ---- operand conversion ---------------------------------------------

    def src(self, operand: Operand) -> Src:
        if isinstance(operand, VReg):
            return operand
        if isinstance(operand, Const):
            return Imm(operand.value & _MASK32)
        if isinstance(operand, Sym):
            return Imm(self.symbols[operand.name])
        raise TypeError(f"bad operand {operand!r}")

    # ---- driver --------------------------------------------------------------

    def run(self) -> MFunction:
        order = self.fn.block_order
        for position, name in enumerate(order):
            block = self.fn.blocks[name]
            mblock = MBlock(block_label(self.fn.name, name))
            self.mfunc.blocks.append(mblock)
            if position == 0:
                self._emit_entry(mblock)
            for instr in block.instrs:
                self._lower_instr(mblock, instr)
            next_name = order[position + 1] if position + 1 < len(order) else None
            self._lower_terminator(mblock, block.terminator, next_name)
        return self.mfunc

    def _emit_entry(self, mblock: MBlock) -> None:
        if self.ra_vreg is not None:
            mblock.ops.append(MOp("getra", self.ra_vreg, [Imm(0)]))
        for index, param in enumerate(self.fn.params):
            if index < NUM_ARG_REGS:
                mblock.ops.append(MOp("copy", param, [self.args[index]]))
            else:
                # Incoming stack argument: above this function's frame.
                slot = f"@inarg{index - NUM_ARG_REGS}"
                addr = self.new_vreg()
                mblock.ops.append(MOp("add", addr, [self.sp, FrameRef(slot)]))
                mblock.ops.append(MOp("ldw", param, [addr]))

    # ---- instructions -------------------------------------------------------------

    def _lower_instr(self, mblock: MBlock, instr) -> None:
        if isinstance(instr, BinOp):
            mblock.ops.append(MOp(instr.op, instr.dest, [self.src(instr.a), self.src(instr.b)]))
        elif isinstance(instr, UnOp):
            mblock.ops.append(MOp(instr.op, instr.dest, [self.src(instr.a)]))
        elif isinstance(instr, Copy):
            mblock.ops.append(MOp("copy", instr.dest, [self.src(instr.src)]))
        elif isinstance(instr, Load):
            mblock.ops.append(MOp(instr.op, instr.dest, [self.src(instr.addr)]))
        elif isinstance(instr, Store):
            mblock.ops.append(
                MOp(instr.op, None, [self.src(instr.addr), self.src(instr.value)])
            )
        elif isinstance(instr, FrameAddr):
            mblock.ops.append(MOp("add", instr.dest, [self.sp, FrameRef(instr.slot)]))
        elif isinstance(instr, Call):
            self._lower_call(mblock, instr)
        else:
            raise TypeError(f"cannot lower {instr!r}")

    def _lower_call(self, mblock: MBlock, instr: Call) -> None:
        stack_args = instr.args[NUM_ARG_REGS:]
        outgoing = len(stack_args) * 4
        if outgoing:
            mblock.ops.append(MOp("sub", self.sp, [self.sp, Imm(outgoing)]))
            for index, arg in enumerate(stack_args):
                addr = self.new_vreg()
                mblock.ops.append(MOp("add", addr, [self.sp, Imm(index * 4)]))
                mblock.ops.append(MOp("stw", None, [addr, self.src(arg)]))
        used_arg_regs = []
        for index, arg in enumerate(instr.args[:NUM_ARG_REGS]):
            mblock.ops.append(MOp("copy", self.args[index], [self.src(arg)]))
            used_arg_regs.append(self.args[index])
        mblock.ops.append(MOp("call", self.rv, [LabelRef(instr.callee), *used_arg_regs]))
        if outgoing:
            mblock.ops.append(MOp("add", self.sp, [self.sp, Imm(outgoing)]))
        if instr.dest is not None:
            mblock.ops.append(MOp("copy", instr.dest, [self.rv]))

    # ---- terminators -----------------------------------------------------------------

    def _lower_terminator(self, mblock: MBlock, term, next_name: str | None) -> None:
        label = lambda name: LabelRef(block_label(self.fn.name, name))  # noqa: E731
        if isinstance(term, Jump):
            if term.target != next_name:
                mblock.ops.append(MOp("jump", None, [label(term.target)]))
        elif isinstance(term, CJump):
            cond = self.src(term.cond)
            if term.false_target == next_name:
                mblock.ops.append(MOp("cjump", None, [cond, label(term.true_target)]))
            elif term.true_target == next_name:
                mblock.ops.append(MOp("cjumpz", None, [cond, label(term.false_target)]))
            else:
                mblock.ops.append(MOp("cjump", None, [cond, label(term.true_target)]))
                mblock.ops.append(MOp("jump", None, [label(term.false_target)]))
        elif isinstance(term, Ret):
            if term.value is not None:
                mblock.ops.append(MOp("copy", self.rv, [self.src(term.value)]))
            if self.ra_vreg is not None:
                mblock.ops.append(MOp("setra", None, [self.ra_vreg]))
            mblock.ops.append(MOp("ret", None, [Imm(0)]))
        else:
            raise TypeError(f"cannot lower terminator {term!r}")


def lower_function(fn: Function, machine: Machine, symbols: dict[str, int]) -> MFunction:
    """Lower one IR function for *machine* (symbols: global address map).

    *fn* is only read, never modified.
    """
    return _Lowerer(fn, machine, symbols).run()
