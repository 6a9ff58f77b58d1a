"""Operation-triggered (VLIW) list scheduler.

This is "the same compiler with the TTA freedoms turned off": operations
are bundled into issue slots; every operand is read from a register file
at the issue cycle and every result is written back ``latency`` cycles
later, becoming visible to consumers one cycle after write-back (these
lightweight soft-core datapaths have no forwarding network -- the paper
notes its VLIW implementations omit forward-resolution logic).

Resource model per cycle: ``issue_width`` slots (wide immediates consume
extension slots, like the MicroBlaze IMM prefix), one operation per
function unit, and the per-RF read/write port limits of the design point.
"""

from __future__ import annotations

from repro.backend.ddg import DDG, build_ddg
from repro.backend.mop import Imm, LabelRef, MBlock, MFunction, MOp, PhysReg
from repro.backend.program import ScheduledBlock, VLIWInstr
from repro.isa.operations import OPS, OpKind
from repro.machine.encoding import immediate_slot_cost
from repro.machine.machine import Machine

_SEARCH_HORIZON = 4096


class ScheduleError(RuntimeError):
    """Raised when a block cannot be scheduled (resource model too tight)."""


#: resource pool per operation name, filled on first use
_pool_memo: dict[str, str] = {}


def _fu_pool(machine: Machine, op: str) -> str:
    """Resource pool key for an operation."""
    pool = _pool_memo.get(op)
    if pool is None:
        if op in ("copy",):
            pool = "alu"
        elif op in ("getra", "setra", "halt", "jump", "cjump", "cjumpz", "call", "ret"):
            pool = "cu"
        else:
            pool = {OpKind.ALU: "alu", OpKind.LSU: "lsu", OpKind.CU: "cu"}[OPS[op].kind]
        _pool_memo[op] = pool
    return pool


def _imm_extra(machine: Machine, op: MOp) -> int:
    extra = 0
    for src in op.srcs:
        if isinstance(src, Imm):
            extra += immediate_slot_cost(machine, src.value)
        elif isinstance(src, LabelRef):
            extra += 1  # code addresses fit 16 bits in all measured programs
    # An extension slot carries a full issue slot's worth of bits (>= 24),
    # so one extension suffices for a 32-bit constant on 2-issue machines.
    return min(extra, max(machine.issue_width - 1, 1))


class _BlockScheduler:
    def __init__(self, block: MBlock, machine: Machine, ddg: DDG) -> None:
        self.block = block
        self.machine = machine
        self.jl = machine.jump_latency
        self.ddg = ddg
        self.pools = {
            "alu": sum(1 for fu in machine.function_units if fu.kind is OpKind.ALU),
            "lsu": sum(1 for fu in machine.function_units if fu.kind is OpKind.LSU),
            "cu": 1,
        }
        self.rf_reads = {rf.name: rf.read_ports for rf in machine.register_files}
        self.rf_writes = {rf.name: rf.write_ports for rf in machine.register_files}
        # per-cycle usage
        self.issue_used: dict[int, int] = {}
        self.pool_used: dict[tuple[int, str], int] = {}
        self.read_used: dict[tuple[int, str], int] = {}
        self.write_used: dict[tuple[int, str], int] = {}
        self.placement: dict[int, int] = {}  # uid -> cycle
        self.completion: dict[int, int] = {}  # uid -> cycle after last effect
        self.call_cycles: list[int] = []
        self.widths: dict[int, int] = {}  # uid -> issue slots

    # ---- resource checks --------------------------------------------------

    def _width(self, op: MOp) -> int:
        """Issue slots *op* takes: one plus its immediate extensions."""
        width = self.widths.get(op.uid)
        if width is None:
            width = self.widths[op.uid] = 1 + _imm_extra(self.machine, op)
        return width

    def _fits(self, op: MOp, t: int) -> bool:
        width = self._width(op)
        if self.issue_used.get(t, 0) + width > self.machine.issue_width:
            return False
        pool = _fu_pool(self.machine, op.op)
        if self.pool_used.get((t, pool), 0) + 1 > self.pools[pool]:
            return False
        reads: dict[str, int] = {}
        # A call's register sources are ABI bookkeeping (the callee reads
        # the argument registers later); they cost no ports at the trigger.
        port_srcs = op.srcs if op.op != "call" else op.srcs[:1]
        for src in port_srcs:
            if isinstance(src, PhysReg):
                reads[src.rf] = reads.get(src.rf, 0) + 1
        for rf, count in reads.items():
            if self.read_used.get((t, rf), 0) + count > self.rf_reads[rf]:
                return False
        if isinstance(op.dest, PhysReg):
            wb = t + op.latency
            if self.write_used.get((wb, op.dest.rf), 0) + 1 > self.rf_writes[op.dest.rf]:
                return False
        completion = self._completion_of(op, t)
        if not self._fits_call_windows(t, completion):
            return False
        if op.op == "call" and not self._call_placeable(t):
            return False
        return True

    def _completion_of(self, op: MOp, t: int) -> int:
        if isinstance(op.dest, PhysReg):
            return t + op.latency + 1
        return t + 1

    def _fits_call_windows(self, trigger: int, completion: int) -> bool:
        for tc in self.call_cycles:
            if trigger <= tc + self.jl and completion - 1 > tc + self.jl:
                return False
        return True

    def _call_placeable(self, tc: int) -> bool:
        # Every already-scheduled op must be either fully complete by the
        # redirect cycle or belong entirely to the post-return stream.
        for uid, trigger in self.placement.items():
            completion = self.completion[uid]
            if trigger <= tc + self.jl and completion - 1 > tc + self.jl:
                return False
        return True

    def _commit(self, op: MOp, t: int) -> None:
        width = self._width(op)
        self.issue_used[t] = self.issue_used.get(t, 0) + width
        pool = _fu_pool(self.machine, op.op)
        self.pool_used[(t, pool)] = self.pool_used.get((t, pool), 0) + 1
        for src in op.srcs if op.op != "call" else op.srcs[:1]:
            if isinstance(src, PhysReg):
                self.read_used[(t, src.rf)] = self.read_used.get((t, src.rf), 0) + 1
        if isinstance(op.dest, PhysReg):
            wb = t + op.latency
            self.write_used[(wb, op.dest.rf)] = self.write_used.get((wb, op.dest.rf), 0) + 1
        self.placement[op.uid] = t
        self.completion[op.uid] = self._completion_of(op, t)
        if op.op == "call":
            self.call_cycles.append(t)

    # ---- main loop --------------------------------------------------------------

    def _earliest(self, op: MOp) -> int:
        earliest = 0
        for edge in self.ddg.preds.get(op.uid, []):
            pred_t = self.placement[edge.pred]
            gap = edge.min_gap if edge.min_gap is not None else 0
            earliest = max(earliest, pred_t + gap)
        return earliest

    def run(self) -> ScheduledBlock:
        ops = list(self.block.ops)
        terminators: list[MOp] = []
        while ops and ops[-1].is_control and ops[-1].op != "call":
            terminators.insert(0, ops.pop())

        unscheduled = {op.uid: op for op in ops}
        pred_count = {
            op.uid: sum(1 for e in self.ddg.preds.get(op.uid, []) if e.pred in unscheduled)
            for op in ops
        }
        order_index = {op.uid: i for i, op in enumerate(self.block.ops)}
        ready = [op for op in ops if pred_count[op.uid] == 0]

        while unscheduled:
            if not ready:
                raise ScheduleError(f"dependence cycle in block {self.block.name}")
            ready.sort(
                key=lambda o: (-self.ddg.height.get(o.uid, 0), order_index[o.uid])
            )
            op = ready.pop(0)
            earliest = self._earliest(op)
            t = earliest
            while not self._fits(op, t):
                t += 1
                if t - earliest > _SEARCH_HORIZON:
                    raise ScheduleError(
                        f"cannot place {op!r} in block {self.block.name}"
                    )
            self._commit(op, t)
            del unscheduled[op.uid]
            for edge in self.ddg.succs.get(op.uid, []):
                if edge.succ in unscheduled:
                    pred_count[edge.succ] -= 1
                    if pred_count[edge.succ] == 0:
                        ready.append(unscheduled[edge.succ])

        # Terminators, in order, as late-but-overlapping as allowed.
        last_ctrl = None
        for op in terminators:
            earliest = self._earliest(op)
            floor = 0
            if self.completion:
                floor = max(self.completion.values()) - self.jl - 1
            t = max(earliest, floor, 0)
            if last_ctrl is not None:
                t = max(t, last_ctrl + self.jl + 1)
            while not self._fits(op, t):
                t += 1
            self._commit(op, t)
            last_ctrl = t

        if last_ctrl is not None:
            length = last_ctrl + self.jl + 1
        elif self.completion:
            length = max(self.completion.values())
        else:
            length = 0
        # Calls keep their delay slots inside the block (the return
        # address points just past them).
        for tc in self.call_cycles:
            length = max(length, tc + self.jl + 1)

        instrs = [VLIWInstr() for _ in range(length)]
        for op in self.block.ops:
            instrs[self.placement[op.uid]].ops.append(op)
        return ScheduledBlock(self.block.name, length, instrs)


def schedule_vliw_function(
    mfunc: MFunction, machine: Machine, ddg_of=build_ddg
) -> list[ScheduledBlock]:
    """Schedule every block of *mfunc* for a VLIW design point;
    ``ddg_of(block, machine)`` gives each block's dependence graph."""
    return [
        _BlockScheduler(block, machine, ddg_of(block, machine)).run()
        for block in mfunc.blocks
    ]
