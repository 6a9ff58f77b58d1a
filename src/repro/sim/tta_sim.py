"""Transport-triggered (TTA) simulator.

Executes move code with the semi-virtual time-latching FU model of the
paper's Fig. 3: transporting an operand to a trigger port starts the
operation; the result is readable from the unit's result register once
the latency has elapsed and until the next operation on the same unit
overwrites it.

Four execution modes are offered (the default is
:data:`repro.sim.modes.DEFAULT_MODE`):

* ``"fast"`` -- all structural properties (bus exclusivity including
  long-immediate ``extra_slots`` reservations, RF port limits, full
  connectivity routing, resolved immediates, known opcodes) are verified
  **once per static instruction** at load time by
  :mod:`repro.sim.predecode`, which also pre-decodes each instruction
  into flat sampler/writer/trigger closures consumed by a lean inner
  loop.  Dynamic violations (early result reads, overlapping control
  transfers) still raise.
* ``"turbo"`` -- :mod:`repro.sim.blockcompile` additionally compiles
  basic blocks of the pre-decoded program into specialized Python code
  chained through a per-pc dispatch table; anything it cannot prove
  static is stepped exactly as in fast mode.
* ``"native"`` -- :mod:`repro.sim.native` compiles the same basic
  blocks to C (one shared object per program, persistently cached in
  the artifact store) and drives them through the same dispatch;
  degrades to turbo with a one-time warning when no C compiler is
  available.
* ``"checked"`` -- the reference implementation: every check, bus
  routing included, is re-run on every executed cycle.  The
  differential tests assert all modes agree bit- and cycle-exactly on
  every workload.

Fast, turbo and native run one stepping driver
(:func:`repro.sim.predecode.run_tta`) and differ only in where its
compiled blocks come from.

In every mode the simulator doubles as a schedule verifier:

* reading a result before it is due raises :class:`SimError`;
* two moves on one bus in one instruction raise, as does a
  long-immediate move whose extra bus slots cannot be satisfied;
* register-file port over-subscription raises;
* a move over a bus that does not connect its endpoints raises (at
  load time in fast, turbo and native; per executed cycle in checked).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.abi import MEMORY_SIZE, return_value_reg
from repro.backend.program import Move, Program, TTAInstr
from repro.isa.operations import OPS, OpKind
from repro.isa.semantics import MASK32, evaluate
from repro.sim.errors import SimError
from repro.sim.memory import DataMemory
from repro.sim.modes import DEFAULT_MODE, check_mode
from repro.sim.predecode import (
    block_source_for,
    check_register,
    check_tta_slots,
    dst_endpoint,
    run_tta,
    src_endpoint,
)


@dataclass
class _FU:
    """One function unit: operand latch plus the result register.

    Semi-virtual time latching: a result becomes visible in the result
    register at its due cycle and stays readable until a later-due result
    lands, so several operations can be in flight (e.g. a 3-cycle mul
    followed two cycles later by a 2-cycle shift).
    """

    name: str
    o1: int = 0
    result: int = 0
    has_result: bool = False
    #: in-flight results as (due_cycle, value), strictly increasing due
    pending: list = field(default_factory=list)

    def commit(self, cycle: int) -> None:
        while self.pending and self.pending[0][0] <= cycle:
            _, value = self.pending.pop(0)
            self.result = value
            self.has_result = True

    def read(self, cycle: int):
        """Result-register value, or None when no result is readable yet
        (either the first result is still in flight or the unit was never
        triggered -- :func:`fu_unavailable_error` tells the two apart)."""
        self.commit(cycle)
        return self.result if self.has_result else None

    def push(self, due: int, value: int) -> None:
        if self.pending and due <= self.pending[-1][0]:
            raise push_order_error(self, due)
        self.pending.append((due, value))


def push_order_error(fu: _FU, due: int) -> ValueError:
    """The error of a result pushed due no later than *fu*'s last pending
    one (results must complete in trigger order on each unit)."""
    return ValueError(f"{fu.name}: result due {due} not after pending {fu.pending[-1][0]}")


def fu_unavailable_error(fu: _FU, cycle: int) -> SimError:
    """Diagnose a read of an FU result register that holds no result yet,
    distinguishing a schedule that reads too early from one that reads a
    unit that was never triggered."""
    if fu.pending:
        return SimError(
            f"schedule violation: {fu.name} result read at {cycle} before "
            f"the first result is due at {fu.pending[0][0]} "
            f"(pending: {fu.pending})"
        )
    return SimError(
        f"schedule violation: {fu.name} result read at {cycle} but the "
        f"unit was never triggered"
    )


@dataclass
class TTAResult:
    exit_code: int
    cycles: int
    moves: int = 0
    triggers: int = 0
    rf_reads: int = 0
    rf_writes: int = 0
    bypass_reads: int = 0


@dataclass
class TTASimulator:
    program: Program
    memory_size: int = MEMORY_SIZE
    max_cycles: int = 500_000_000
    #: one of :data:`repro.sim.modes.MODES` (see the module docstring)
    mode: str = DEFAULT_MODE
    memory: DataMemory = field(init=False)

    def __post_init__(self) -> None:
        check_mode(self.mode)
        machine = self.program.machine
        self.memory = DataMemory(self.memory_size)
        self.rfs: dict[str, list[int]] = {
            rf.name: [0] * rf.size for rf in machine.register_files
        }
        self.fus: dict[str, _FU] = {fu.name: _FU(fu.name) for fu in machine.all_units}
        self.ra = 0
        self.buses = {bus.index: bus for bus in machine.buses}
        #: control transfer latched by the current instruction's trigger,
        #: (redirect_cycle, target); instance state -- two simulators in
        #: one process must never share a pending branch
        self._pending_redirect: tuple[int, int] | None = None

    def preload(self, data_init: list[tuple[int, bytes]]) -> None:
        for address, blob in data_init:
            self.memory.preload(address, blob)

    # ------------------------------------------------------------------

    def _sample(self, move: Move, cycle: int, pc: int, stats: TTAResult) -> int:
        kind = move.src[0]
        if kind == "imm":
            value = move.src[1]
            if not isinstance(value, int):
                raise SimError(f"unlinked immediate {value!r} at pc={pc}")
            return value & MASK32
        if kind == "rf":
            _, rf, idx = move.src
            stats.rf_reads += 1
            return self.rfs[rf][idx]
        if kind == "fu":
            fu = self.fus[move.src[1]]
            value = fu.read(cycle)
            if value is None:
                raise fu_unavailable_error(fu, cycle)
            stats.bypass_reads += 1
            return value
        raise SimError(f"bad move source {move.src!r}")

    def run(self) -> TTAResult:
        from repro import obs
        from repro.sim.counters import record_run

        with obs.span(
            "sim.run",
            machine=self.program.machine.name,
            style="tta",
            mode=self.mode,
        ):
            if self.mode == "checked":
                result = self._run_checked()
            else:
                result = run_tta(self, *block_source_for(self))
        record_run(result, "tta")
        return result

    def _run_checked(self) -> TTAResult:
        """Reference implementation: re-verify every structural property on
        every executed cycle (the pre-decoded fast engine must agree with
        this path bit- and cycle-exactly)."""
        machine = self.program.machine
        jl = machine.jump_latency
        instrs = self.program.instrs
        rv = return_value_reg(machine)
        stats = TTAResult(0, 0)
        pc = 0
        cycle = 0
        redirect: tuple[int, int] | None = None
        bus_count = len(machine.buses)
        read_limits = {rf.name: rf.read_ports for rf in machine.register_files}
        write_limits = {rf.name: rf.write_ports for rf in machine.register_files}

        while True:
            if redirect is not None and cycle == redirect[0]:
                pc = redirect[1]
                redirect = None
            if pc < 0 or pc >= len(instrs):
                raise SimError(f"PC out of range: {pc}")
            instr: TTAInstr = instrs[pc]

            # --- structural checks -------------------------------------
            # bus exclusivity, including long-immediate extra_slots
            check_tta_slots(instr, pc, bus_count)
            reads: dict[str, int] = {}
            writes: dict[str, int] = {}
            for move in instr.moves:  # in static_decode_tta's order
                bus = self.buses.get(move.bus)
                if bus is None:
                    raise SimError(f"unknown bus {move.bus} at pc={pc}")
                if move.src[0] == "rf":
                    check_register(machine, move.src[1], move.src[2], pc)
                    reads[move.src[1]] = reads.get(move.src[1], 0) + 1
                if not bus.connects(src_endpoint(move), dst_endpoint(move)):
                    raise SimError(f"move {move!r} not routable on bus {move.bus}")
                if move.dst[0] == "rf":
                    check_register(machine, move.dst[1], move.dst[2], pc)
                    writes[move.dst[1]] = writes.get(move.dst[1], 0) + 1
            for rf, count in reads.items():
                if count > read_limits[rf]:
                    raise SimError(f"{rf} read ports oversubscribed at pc={pc}")
            for rf, count in writes.items():
                if count > write_limits[rf]:
                    raise SimError(f"{rf} write ports oversubscribed at pc={pc}")

            # --- phase 1: sample all sources ----------------------------
            sampled = [
                (move, self._sample(move, cycle, pc, stats)) for move in instr.moves
            ]
            stats.moves += len(sampled)

            # --- phase 2: operand-port writes ---------------------------
            triggers: list[tuple[str, str, int]] = []
            rf_writes: list[tuple[str, int, int]] = []
            for move, value in sampled:
                if move.dst[0] == "rf":
                    rf_writes.append((move.dst[1], move.dst[2], value))
                else:
                    _, fu_name, port, opcode = move.dst
                    if port == "o1":
                        self.fus[fu_name].o1 = value
                    else:
                        triggers.append((fu_name, opcode, value))

            # --- phase 3: triggers ---------------------------------------
            halted = False
            for fu_name, opcode, value in triggers:
                stats.triggers += 1
                fu = self.fus[fu_name]
                if opcode is None:
                    raise SimError(f"trigger move without opcode on {fu_name}")
                halted |= self._execute(
                    fu, opcode, value, cycle, pc, jl, stats
                )
                if self._pending_redirect is not None:
                    if redirect is not None:
                        raise SimError("overlapping control transfers")
                    redirect = self._pending_redirect
                    self._pending_redirect = None

            # --- phase 4: RF write commit ---------------------------------
            for rf, idx, value in rf_writes:
                self.rfs[rf][idx] = value
                stats.rf_writes += 1

            if halted:
                stats.exit_code = self.rfs[rv.rf][rv.idx]
                break
            cycle += 1
            pc += 1
            if cycle > self.max_cycles:
                raise SimError("cycle budget exceeded (runaway program?)")

        stats.cycles = cycle + 1
        return stats

    def _execute(
        self,
        fu: _FU,
        opcode: str,
        trigger_value: int,
        cycle: int,
        pc: int,
        jl: int,
        stats: TTAResult,
    ) -> bool:
        """Execute *opcode* on *fu*; returns True on halt."""
        if opcode == "halt":
            return True
        if opcode == "getra":
            fu.push(cycle + 1, self.ra)
            return False
        if opcode == "setra":
            self.ra = trigger_value
            return False
        if opcode == "jump":
            self._pending_redirect = (cycle + jl + 1, trigger_value)
            return False
        if opcode == "call":
            self.ra = pc + jl + 1
            self._pending_redirect = (cycle + jl + 1, trigger_value)
            return False
        if opcode == "ret":
            self._pending_redirect = (cycle + jl + 1, self.ra)
            return False
        if opcode in ("cjump", "cjumpz"):
            taken = (trigger_value != 0) if opcode == "cjump" else (trigger_value == 0)
            if taken:
                self._pending_redirect = (cycle + jl + 1, fu.o1)
            return False
        spec = OPS[opcode]
        if spec.kind is OpKind.LSU:
            if spec.writes_mem:
                self.memory.store(opcode, trigger_value, fu.o1)
                return False
            fu.push(cycle + spec.latency, self.memory.load(opcode, trigger_value))
            return False
        operands = (trigger_value, fu.o1) if spec.operands == 2 else (trigger_value,)
        fu.push(cycle + spec.latency, evaluate(opcode, operands))
        return False
