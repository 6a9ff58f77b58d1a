"""Scalar (MicroBlaze-like) core simulator.

Executes one operation per instruction in program order and charges the
pipeline stall model of the design point (:class:`ScalarTiming`): extra
cycles for loads/shifts/multiplies without forwarding, taken-branch
bubbles, and IMM-prefix words for constants wider than 16 bits.

One driver serves every engine.  ``mode="checked"`` steps every
operation through the reference interpreter.  ``fast``, ``turbo`` and
``native`` run the block engine: straight-line blocks compiled to Python
by :func:`repro.sim.blockcompile.scalar_blocks` and chained through a
dispatch table keyed on the entry pc.  There is no C engine for the
scalar core, so ``native`` runs the same Python blocks.  The driver
hands a block's work back to the interpreter whenever it cannot prove
the block static: an unresolved operand or unknown opcode ends the block
before it, an out-of-range or computed pc without a block is stepped,
and so is every block whose worst-case cost could cross the cycle
budget.  Results, final register state and every :class:`SimError` text
are therefore the same in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.abi import MEMORY_SIZE, return_value_reg
from repro.backend.mop import Imm, MOp, PhysReg
from repro.backend.program import Program
from repro.isa.semantics import MASK32, evaluate
from repro.machine.encoding import immediate_slot_cost
from repro.sim.errors import SimError
from repro.sim.memory import DataMemory
from repro.sim.modes import DEFAULT_MODE, check_mode
from repro.sim.predecode import _BUDGET_MSG, _CONTROL_OPS, _LOADS, _STORES

#: a pc the block table has not looked at yet
_ABSENT = object()

#: operations that end a scalar basic block
ENDS_BLOCK = _CONTROL_OPS | {"halt"}


def static_cost(op: MOp, machine) -> int:
    """Cycles *op* costs whatever the data: the issue cycle, one fetch
    cycle per IMM-prefixed immediate operand and its class's stall
    extra.  A conditional branch's taken/untaken extra is the only
    dynamic part of the stall model; ``halt`` charges nothing."""
    timing = machine.scalar_timing
    cost = 1
    for src in op.srcs:
        if isinstance(src, Imm):
            cost += min(immediate_slot_cost(machine, src.value), 1)
    name = op.op
    if name in ("call", "ret"):
        cost += timing.call_extra
    elif name == "jump":
        cost += timing.taken_branch_extra
    elif name in _LOADS:
        cost += timing.load_extra
    elif name in _STORES:
        cost += timing.store_extra
    elif name == "mul":
        cost += timing.mul_extra
    elif name in ("shl", "shr", "shru"):
        cost += timing.shift_extra
    return cost


@dataclass
class ScalarResult:
    exit_code: int
    cycles: int
    instructions: int
    loads: int = 0
    stores: int = 0
    taken_branches: int = 0


@dataclass
class ScalarSimulator:
    """Executes a scalar program with a stall-model cost per op."""

    program: Program
    memory_size: int = MEMORY_SIZE
    max_cycles: int = 500_000_000
    #: one of :data:`repro.sim.modes.MODES` (see the module docstring)
    mode: str = DEFAULT_MODE
    memory: DataMemory = field(init=False)

    def __post_init__(self) -> None:
        check_mode(self.mode)
        self.memory = DataMemory(self.memory_size)
        self.rfs: dict[str, list[int]] = {
            rf.name: [0] * rf.size for rf in self.program.machine.register_files
        }
        self.ra = 0

    @property
    def regs(self) -> dict[PhysReg, int]:
        """A snapshot of every register's value."""
        return {
            PhysReg(name, idx): value
            for name, values in self.rfs.items()
            for idx, value in enumerate(values)
        }

    def preload(self, data_init: list[tuple[int, bytes]]) -> None:
        for address, blob in data_init:
            self.memory.preload(address, blob)

    def _file(self, reg: PhysReg) -> list[int]:
        values = self.rfs.get(reg.rf)
        if values is None or not 0 <= reg.idx < len(values):
            raise SimError(f"register {reg!r} is not on {self.program.machine.name}")
        return values

    def _read(self, src) -> int:
        if isinstance(src, Imm):
            return src.value & MASK32
        if isinstance(src, PhysReg):
            return self._file(src)[src.idx]
        raise SimError(f"unresolved operand {src!r}")

    def _write(self, dest, value: int) -> None:
        if not isinstance(dest, PhysReg):
            raise SimError(f"unresolved destination {dest!r}")
        self._file(dest)[dest.idx] = value

    def run(self) -> ScalarResult:
        from repro import obs
        from repro.sim.counters import record_run

        with obs.span(
            "sim.run",
            machine=self.program.machine.name,
            style="scalar",
            mode=self.mode,
        ):
            result = self._run_engine()
        record_run(result, "scalar")
        return result

    def _run_engine(self) -> ScalarResult:
        machine = self.program.machine
        timing = machine.scalar_timing
        assert timing is not None
        instrs = self.program.instrs
        n_instrs = len(instrs)
        max_cycles = self.max_cycles
        read = self._read
        get_block = materialize = finish = None
        if self.mode != "checked":
            from repro.sim.blockcompile import scalar_blocks

            blocks, materialize, finish = scalar_blocks(self)
            get_block = blocks.get
        pc = 0
        cycles = 0
        executed = loads = stores = taken_branches = 0
        while True:
            if get_block is not None and 0 <= pc < n_instrs:
                blk = get_block(pc, _ABSENT)
                if blk is _ABSENT:
                    blk = materialize(pc)
                if blk is not None and cycles + blk[0] <= max_cycles:
                    pc, cycles = blk[1](cycles)
                    if pc is None:
                        break
                    continue
            # precise step, the reference interpreter: pcs without a block,
            # out-of-range pcs and blocks that could cross the budget
            if pc < 0 or pc >= n_instrs:
                raise SimError(f"PC out of range: {pc}")
            op: MOp = instrs[pc]
            executed += 1
            cost = static_cost(op, machine)
            name = op.op
            next_pc = pc + 1
            if name in ENDS_BLOCK:
                if name == "halt":
                    break
                if name in ("cjump", "cjumpz"):
                    pred = read(op.srcs[0])
                    target = read(op.srcs[1])
                    if (pred != 0) if name == "cjump" else (pred == 0):
                        next_pc = target
                        cost += timing.taken_branch_extra
                        if next_pc != pc + 1:
                            taken_branches += 1
                    else:
                        cost += timing.untaken_branch_extra
                elif name == "ret":
                    next_pc = self.ra
                else:
                    next_pc = read(op.srcs[0])
                    if name == "call":
                        self.ra = pc + 1
            elif name in _LOADS:
                address = read(op.srcs[0])
                self._write(op.dest, self.memory.load(name, address))
                loads += 1
            elif name in _STORES:
                address = read(op.srcs[0])
                value = read(op.srcs[1])
                self.memory.store(name, address, value)
                stores += 1
            elif name == "copy":
                self._write(op.dest, read(op.srcs[0]))
            elif name == "getra":
                self._write(op.dest, self.ra)
            elif name == "setra":
                self.ra = read(op.srcs[0])
            else:
                self._write(op.dest, evaluate(name, [read(s) for s in op.srcs]))
            cycles += cost
            if cycles > max_cycles:
                raise SimError(_BUDGET_MSG)
            pc = next_pc
        if finish is not None:
            block_ops, block_loads, block_stores, block_taken = finish()
            executed += block_ops
            loads += block_loads
            stores += block_stores
            taken_branches += block_taken
        rv = return_value_reg(machine)
        return ScalarResult(
            exit_code=self.rfs[rv.rf][rv.idx],
            cycles=cycles,
            instructions=executed,
            loads=loads,
            stores=stores,
            taken_branches=taken_branches,
        )
