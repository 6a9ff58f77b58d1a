"""VLIW simulator with exposed write-back timing.

Each instruction word (bundle) takes one cycle.  Operations read their
register operands from the state at the start of their issue cycle and
write results back ``latency`` cycles later; the scheduler guarantees no
consumer reads early, and the simulator's delayed-write queue makes a
violation produce the stale value (caught by differential tests) rather
than silently matching the interpreter.

Control transfers redirect fetch ``jump_latency + 1`` instructions after
the trigger (exposed delay slots).

Three engines run it, under four mode names (the default is
:data:`repro.sim.modes.DEFAULT_MODE`): ``"fast"`` validates every
bundle once at load time and steps the pre-decoded program of
:mod:`repro.sim.predecode` in Python (``"turbo"`` is a name for it);
``"native"`` runs the program in one call of the prebuilt C engine of
:mod:`repro.sim.native` (degrading to fast when no C compiler is
available); ``"checked"`` is the per-cycle reference implementation.
Fast and native share one driver (:func:`repro.sim.predecode.run_vliw`).
Differential tests assert all modes agree bit- and cycle-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import heapq
import itertools

from repro.backend.abi import MEMORY_SIZE, return_value_reg
from repro.backend.mop import Imm, MOp, PhysReg
from repro.backend.program import Program, VLIWInstr
from repro.isa.semantics import MASK32, evaluate
from repro.sim.errors import SimError
from repro.sim.memory import DataMemory
from repro.sim.modes import DEFAULT_MODE, check_mode
from repro.sim.predecode import VLIW_NO_DEST, check_register, run_vliw


@dataclass
class VLIWResult:
    exit_code: int
    cycles: int
    bundles: int
    ops: int = 0


@dataclass
class VLIWSimulator:
    program: Program
    memory_size: int = MEMORY_SIZE
    max_cycles: int = 500_000_000
    #: one of :data:`repro.sim.modes.MODES` (see the module docstring)
    mode: str = DEFAULT_MODE
    memory: DataMemory = field(init=False)

    def __post_init__(self) -> None:
        check_mode(self.mode)
        self.memory = DataMemory(self.memory_size)
        self.regs: dict[PhysReg, int] = {}
        self.ra = 0
        #: delayed register writes: (due_cycle, seq, reg, value)
        self.pending_writes: list[tuple[int, int, PhysReg, int]] = []
        #: the shared driver's delayed writes: (due_cycle, seq, rf_list, idx, value)
        self._pending_slot_writes: list = []
        #: the ``seq`` of both write queues: a write pushed later pops
        #: later among writes due the same cycle
        self._seq = itertools.count(1)

    def preload(self, data_init: list[tuple[int, bytes]]) -> None:
        for address, blob in data_init:
            self.memory.preload(address, blob)

    def _read(self, src, pc: int) -> int:
        if isinstance(src, Imm):
            return src.value & MASK32
        if isinstance(src, PhysReg):
            return self.regs.get(src, 0)
        raise SimError(f"unresolved operand {src!r} at pc={pc}")

    def _write_later(self, cycle: int, reg: PhysReg, value: int) -> None:
        heapq.heappush(self.pending_writes, (cycle, next(self._seq), reg, value))

    def _sync_regs_from_fast(self, rfs: dict[str, list[int]]) -> None:
        """Mirror the shared driver's final register state into ``self.regs``
        so callers observe the same post-run API in every mode."""
        for rf_name, values in rfs.items():
            for idx, value in enumerate(values):
                self.regs[PhysReg(rf_name, idx)] = value

    def _commit_due(self, cycle: int) -> None:
        """Commit writes whose write-back cycle has passed (visible now)."""
        while self.pending_writes and self.pending_writes[0][0] < cycle:
            _, _, reg, value = heapq.heappop(self.pending_writes)
            self.regs[reg] = value

    def run(self) -> VLIWResult:
        from repro import obs
        from repro.sim.counters import record_run

        with obs.span(
            "sim.run",
            machine=self.program.machine.name,
            style="vliw",
            mode=self.mode,
        ):
            if self.mode == "checked":
                result = self._run_checked()
            else:
                result = run_vliw(self)
        record_run(result, "vliw")
        return result

    def _run_checked(self) -> VLIWResult:
        """Reference implementation; the pre-decoded fast engine must agree
        with this path bit- and cycle-exactly."""
        machine = self.program.machine
        jl = machine.jump_latency
        instrs = self.program.instrs
        pc = 0
        cycle = 0
        ops_executed = 0
        redirect: tuple[int, int] | None = None  # (cycle, target)
        result = VLIWResult(0, 0, 0)
        while True:
            self._commit_due(cycle)
            if redirect is not None and cycle == redirect[0]:
                pc = redirect[1]
                redirect = None
            if pc < 0 or pc >= len(instrs):
                raise SimError(f"PC out of range: {pc}")
            bundle: VLIWInstr = instrs[pc]
            for op in bundle.ops:  # in static_decode_vliw's order
                dest = () if op.op in VLIW_NO_DEST else (op.dest,)
                for reg in (*op.srcs, *dest):
                    if isinstance(reg, PhysReg):
                        check_register(machine, reg.rf, reg.idx, pc)
            halted = False
            # Sample all reads before applying any effect of this bundle.
            sampled = [
                (op, [self._read(s, pc) for s in op.srcs]) for op in bundle.ops
            ]
            for op, values in sampled:
                ops_executed += 1
                name = op.op
                if name == "halt":
                    halted = True
                elif name in ("jump", "call"):
                    if redirect is not None:
                        raise SimError("overlapping control transfers")
                    redirect = (cycle + jl + 1, values[0])
                    if name == "call":
                        self.ra = pc + jl + 1
                elif name == "ret":
                    if redirect is not None:
                        raise SimError("overlapping control transfers")
                    redirect = (cycle + jl + 1, self.ra)
                elif name in ("cjump", "cjumpz"):
                    taken = (values[0] != 0) if name == "cjump" else (values[0] == 0)
                    if taken:
                        if redirect is not None:
                            raise SimError("overlapping control transfers")
                        redirect = (cycle + jl + 1, values[1])
                elif name in ("ldw", "ldh", "ldq", "ldqu", "ldhu"):
                    value = self.memory.load(name, values[0])
                    self._write_later(cycle + op.latency, op.dest, value)
                elif name in ("stw", "sth", "stq"):
                    self.memory.store(name, values[0], values[1])
                elif name == "copy":
                    self._write_later(cycle + op.latency, op.dest, values[0])
                elif name == "getra":
                    self._write_later(cycle + op.latency, op.dest, self.ra)
                elif name == "setra":
                    self.ra = values[0]
                else:
                    self._write_later(cycle + op.latency, op.dest, evaluate(name, values))
            if halted:
                # Flush in-flight writes so the exit code is final.
                self._commit_due(1 << 62)
                result.exit_code = self.regs.get(return_value_reg(machine), 0)
                break
            cycle += 1
            pc += 1
            if cycle > self.max_cycles:
                raise SimError("cycle budget exceeded (runaway program?)")
        result.cycles = cycle + 1
        result.bundles = cycle + 1
        result.ops = ops_executed
        return result
