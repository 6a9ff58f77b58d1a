"""Exposed-datapath (TTA) move scheduler.

Implements the TTA programming freedoms the paper evaluates:

* **software bypassing** -- a consumer's operand move can read the
  producer's FU result port directly (``latency`` cycles after trigger),
  skipping the register file entirely;
* **dead-result-move elimination** -- the RF write-back of a value is
  placed lazily, only when some consumer must read it from the RF or the
  value is live out of its block; fully-bypassed block-local values never
  touch the RF;
* **operand sharing** -- an FU input-port register keeps its value, so a
  repeated operand needs no transport;
* **semi-virtual time latching** -- an FU result stays readable until the
  unit triggers again, letting result reads be postponed.

Resources tracked per cycle: one move per bus (with per-bus connectivity,
so merged-bus machines really pay their pruning), long-immediate template
slots, RF read/write port counts, one trigger and one operand-port write
per FU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.ddg import DDG, build_ddg
from repro.backend.mop import Imm, LabelRef, MBlock, MFunction, MOp, PhysReg
from repro.backend.program import Move, ScheduledBlock, TTAInstr
from repro.backend.regalloc import machine_liveness
from repro.backend.abi import caller_saved, ret_preserved_regs, scratch_regs
from repro.isa.operations import OPS, OpKind
from repro.machine.encoding import immediate_slot_cost
from repro.machine.machine import Machine

_SEARCH_HORIZON = 4096


class ScheduleError(RuntimeError):
    """Raised when a block cannot be scheduled on the given machine."""


@dataclass
class _Value:
    """State of one produced value (one static definition)."""

    uid: int
    reg: PhysReg | None
    fu: str | None  # producing FU (None: value only ever lives in the RF)
    trigger: int
    ready: int
    wb: int | None = None
    last_fu_read: int = -1
    pending: int = 0
    live_out: bool = False

    @property
    def in_rf_only(self) -> bool:
        return self.fu is None


@dataclass
class _FUState:
    current: _Value | None = None
    #: (descriptor, write_cycle) of the latest operand-port write
    o1_holds: tuple | None = None


class _BlockScheduler:
    def __init__(
        self,
        block: MBlock,
        machine: Machine,
        live_out_regs: set[PhysReg],
        ddg: DDG,
        clobbers: set[PhysReg],
    ) -> None:
        self.block = block
        self.machine = machine
        self.jl = machine.jump_latency
        self.ddg = ddg
        self.live_out_regs = live_out_regs
        #: the registers a call clobbers
        self.clobbers = clobbers
        # last static def per register decides live-out attribution
        self.last_def_uid: dict[PhysReg, int] = {}
        for op in block.ops:
            if op.op == "call":
                for reg in clobbers:
                    self.last_def_uid[reg] = op.uid
            if isinstance(op.dest, PhysReg):
                self.last_def_uid[op.dest] = op.uid
        # raw-consumer counts per producing op
        self.consumers: dict[int, int] = {}
        for pred, out in ddg.succs.items():
            count = sum(
                1 for edge in out if edge.kind in ("raw", "callout") and edge.reg is not None
            )
            if count:
                self.consumers[pred] = count

        # ---- dynamic state ----
        self.fu_state: dict[str, _FUState] = {
            fu.name: _FUState() for fu in machine.all_units
        }
        self.trigger_used: dict[tuple[int, str], bool] = {}
        self.o1_used: dict[tuple[int, str], bool] = {}
        self.bus_used: dict[int, set[int]] = {}  # cycle -> busy bus indices
        self.read_used: dict[tuple[int, str], int] = {}
        self.write_used: dict[tuple[int, str], int] = {}
        self.reg_version: dict[PhysReg, _Value] = {}
        self.reg_last_read: dict[PhysReg, int] = {}
        self.reg_wb: dict[PhysReg, int] = {}
        self.values: dict[int, _Value] = {}
        self.placement: dict[int, int] = {}
        self.moves: list[tuple[int, Move]] = []
        self.call_cycles: list[int] = []
        self.max_move_cycle = -1
        #: per-FU operand-port occupancy windows (write_cycle, hold_until)
        self.fu_o1_windows: dict[str, list[tuple[int, int]]] = {}
        #: per-FU latest trigger cycle (triggers must stay monotone so
        #: results complete in trigger order on each unit)
        self.fu_last_trigger: dict[str, int] = {}
        #: per-FU protection watermark: the latest cycle at which ANY
        #: previously scheduled value on the unit is still read (ready
        #: cycle, committed bypass reads, write-back moves).  A new
        #: result may only land strictly after it.  Unlike the
        #: ``current`` pointer this survives call clobbers, closing the
        #: window where a later-scheduled op could overwrite a result
        #: before an already-committed read.
        self.fu_protect: dict[str, int] = {}
        self.op_by_uid: dict[int, MOp] = {op.uid: op for op in block.ops}
        self.routes = machine.bus_routes
        self.read_ports = {rf.name: rf.read_ports for rf in machine.register_files}
        self.write_ports = {rf.name: rf.write_ports for rf in machine.register_files}

    # ------------------------------------------------------------------
    # resource primitives
    # ------------------------------------------------------------------

    def _free_bus(
        self, cycle: int, src_ep: str, dst_ep: str, taken: set[int] = frozenset()
    ) -> int | None:
        """The first bus connecting *src_ep* to *dst_ep* that is free at
        *cycle* and not in *taken*."""
        busy = self.bus_used.get(cycle, ())
        for index in self.routes[src_ep, dst_ep]:
            if index not in busy and index not in taken:
                return index
        return None

    def _free_extra_buses(self, cycle: int, count: int, excluding: set[int]) -> list[int] | None:
        busy = self.bus_used.get(cycle, set()) | excluding
        free = [b.index for b in self.machine.buses if b.index not in busy]
        if len(free) < count:
            return None
        return free[:count]

    def _rf_read_ok(self, cycle: int, rf: str, count: int = 1) -> bool:
        return self.read_used.get((cycle, rf), 0) + count <= self.read_ports[rf]

    def _rf_write_ok(self, cycle: int, rf: str) -> bool:
        return self.write_used.get((cycle, rf), 0) < self.write_ports[rf]

    def _imm_extra(self, value) -> int:
        if isinstance(value, LabelRef):
            return 1
        return immediate_slot_cost(self.machine, value)

    def _spans_call(self, early: int, late: int) -> bool:
        """True when a callee executes between cycles *early* and *late*
        (the callee clobbers all FU ports, pipelines and result registers,
        so no FU-resident state may cross such a boundary)."""
        if not self.call_cycles:
            return False
        return any(early <= tc + self.jl < late for tc in self.call_cycles)

    def _window_deadline(self, trigger: int) -> int | None:
        """Latest cycle by which an op triggered at *trigger* must be
        fully transported, imposed by already-placed calls."""
        if not self.call_cycles:
            return None
        deadline = None
        for tc in self.call_cycles:
            if trigger <= tc + self.jl:
                limit = tc + self.jl
                deadline = limit if deadline is None else min(deadline, limit)
        return deadline

    # ------------------------------------------------------------------
    # write-back placement (lazy; this is dead-result elimination)
    # ------------------------------------------------------------------

    def _place_wb(self, value: _Value, by: int | None = None, commit: bool = True) -> int | None:
        """Find (and optionally commit) an RF write-back for *value*.

        Returns the write-back cycle, or None if impossible within *by*.
        """
        if value.wb is not None:
            return value.wb
        assert value.fu is not None and value.reg is not None
        if self.fu_state[value.fu].current is not value:
            # The producing unit has been retriggered; the result register
            # no longer holds this value (scheduler invariant violation if
            # the value was still needed -- refuse rather than emit a
            # wrong move).
            return None
        reg = value.reg
        fu = self.machine.fu_by_name[value.fu]
        rf = reg.rf
        start = max(
            value.ready,
            self.reg_last_read.get(reg, -1) + 1,
            self.reg_wb.get(reg, -1) + 1,
        )
        deadline = self._window_deadline(value.trigger)
        if by is not None:
            deadline = by if deadline is None else min(deadline, by)
        limit = start + _SEARCH_HORIZON if deadline is None else deadline
        cycle = start
        while cycle <= limit:
            if self._spans_call(value.trigger, cycle):
                return None  # the callee will have clobbered the result
            bus = self._free_bus(cycle, fu.result_port, f"{rf}.write")
            if bus is not None and self._rf_write_ok(cycle, rf):
                if commit:
                    self._commit_move(
                        cycle,
                        Move(("fu", value.fu), ("rf", rf, reg.idx), bus),
                    )
                    value.wb = cycle
                    value.last_fu_read = max(value.last_fu_read, cycle)
                    self._bump_protect(value.fu, cycle)
                    self.reg_wb[reg] = cycle
                return cycle
            cycle += 1
        return None

    def _bump_protect(self, fu_name: str, cycle: int) -> None:
        self.fu_protect[fu_name] = max(self.fu_protect.get(fu_name, -1), cycle)

    def _commit_move(self, cycle: int, move: Move) -> None:
        self.bus_used.setdefault(cycle, set()).add(move.bus)
        if move.dst[0] == "rf":
            self.write_used[(cycle, move.dst[1])] = (
                self.write_used.get((cycle, move.dst[1]), 0) + 1
            )
        if move.src[0] == "rf":
            self.read_used[(cycle, move.src[1])] = (
                self.read_used.get((cycle, move.src[1]), 0) + 1
            )
        self.moves.append((cycle, move))
        self.max_move_cycle = max(self.max_move_cycle, cycle)

    # ------------------------------------------------------------------
    # operand access planning
    # ------------------------------------------------------------------

    def _plan_src(
        self,
        src,
        dst_ep: str,
        cycle: int,
        taken_buses: set[int],
        taken_reads: dict[str, int] | None = None,
    ):
        """Plan the transport of *src* into *dst_ep* at *cycle*.

        Returns (move, extra_bus_list, descriptor) or None.  ``move`` is
        None when the value already sits in the port (operand sharing,
        handled by the caller) -- here a None return means infeasible.
        """
        if isinstance(src, (Imm, LabelRef)):
            value = src.value if isinstance(src, Imm) else src
            extra = self._imm_extra(src.value if isinstance(src, Imm) else src)
            bus = self._free_bus(cycle, "IMM", dst_ep, taken_buses)
            if bus is None:
                return None
            extra_buses = []
            if extra:
                found = self._free_extra_buses(cycle, extra, taken_buses | {bus})
                if found is None:
                    return None
                extra_buses = found
            move = Move(("imm", value), self._dst_tuple(dst_ep), bus, extra_slots=extra)
            descriptor = ("imm", value if not isinstance(value, LabelRef) else value.name)
            return move, extra_buses, descriptor

        assert isinstance(src, PhysReg)
        value = self.reg_version.get(src)
        descriptor = ("val", value.uid if value is not None else ("livein", src))
        # 1) software bypass from the producing FU's result port
        if value is not None and value.fu is not None:
            fu_current = self.fu_state[value.fu].current
            if (
                fu_current is value
                and value.ready <= cycle
                and not self._spans_call(value.trigger, cycle)
            ):
                fu = self.machine.fu_by_name[value.fu]
                bus = self._free_bus(cycle, fu.result_port, dst_ep, taken_buses)
                if bus is not None:
                    move = Move(("fu", value.fu), self._dst_tuple(dst_ep), bus)
                    return move, [], descriptor
        # 2) read from the register file
        if value is not None and not value.in_rf_only and value.wb is None:
            wb = self._place_wb(value, by=cycle - 1, commit=False)
            if wb is None:
                return None
            self._place_wb(value, by=cycle - 1, commit=True)
        if value is not None and value.wb is not None and value.wb > cycle - 1:
            return None
        pending = (taken_reads or {}).get(src.rf, 0)
        if not self._rf_read_ok(cycle, src.rf, 1 + pending):
            return None
        bus = self._free_bus(cycle, f"{src.rf}.read", dst_ep, taken_buses)
        if bus is None:
            return None
        move = Move(("rf", src.rf, src.idx), self._dst_tuple(dst_ep), bus)
        return move, [], descriptor

    @staticmethod
    def _dst_tuple(dst_ep: str):
        unit, port = dst_ep.split(".", 1)
        if port in ("t", "o1"):
            return ("op", unit, port, None)
        return ("rf", unit, None)  # idx filled by caller for RF writes

    # ------------------------------------------------------------------
    # op scheduling
    # ------------------------------------------------------------------

    def _units_for(self, op: MOp):
        if op.op in ("getra", "setra", "halt", "jump", "cjump", "cjumpz", "call", "ret"):
            return (self.machine.control_unit,)
        return self.machine.units_for_op[op.op]

    def _earliest(self, op: MOp) -> int:
        earliest = 0
        for edge in self.ddg.preds.get(op.uid, []):
            pred_t = self.placement[edge.pred]
            if edge.kind == "raw":
                value = self.values.get(edge.pred)
                if value is not None:
                    earliest = max(earliest, value.ready)
                elif edge.min_gap is not None:
                    earliest = max(earliest, pred_t + edge.min_gap)
            elif edge.kind in ("war", "waw"):
                pred_op = self.op_by_uid.get(edge.pred)
                if pred_op is not None and pred_op.op == "call" and edge.min_gap is not None:
                    # The callee owns clobbered registers until it returns.
                    earliest = max(earliest, pred_t + edge.min_gap)
                else:
                    earliest = max(earliest, pred_t)
            elif edge.min_gap is not None:
                earliest = max(earliest, pred_t + edge.min_gap)
        return earliest

    def _try_schedule(self, op: MOp, cycle: int) -> bool:
        if op.op == "copy":
            return self._try_copy(op, cycle)
        for fu in self._units_for(op):
            if self._try_on_fu(op, fu, cycle):
                return True
        return False

    def _try_copy(self, op: MOp, cycle: int) -> bool:
        """A copy is a bare transport into the destination register."""
        dest = op.dest
        assert isinstance(dest, PhysReg)
        if not self._rf_write_ok(cycle, dest.rf):
            return False
        if self.reg_last_read.get(dest, -1) >= cycle or self.reg_wb.get(dest, -1) >= cycle:
            return False
        planned = self._plan_src(op.srcs[0], f"{dest.rf}.write", cycle, set())
        if planned is None:
            return False
        move, extra_buses, _descriptor = planned
        move.dst = ("rf", dest.rf, dest.idx)
        deadline = self._window_deadline(cycle)
        if deadline is not None and cycle > deadline:
            return False
        self._commit_move(cycle, move)
        for bus in extra_buses:
            self.bus_used.setdefault(cycle, set()).add(bus)
        if move.src[0] == "fu":
            source_value = self.fu_state[move.src[1]].current
            if source_value is not None:
                source_value.last_fu_read = max(source_value.last_fu_read, cycle)
            self._bump_protect(move.src[1], cycle)
        self._note_src_consumption(op.srcs[0], cycle)
        value = _Value(
            op.uid, dest, None, cycle, cycle, wb=cycle,
            pending=self.consumers.get(op.uid, 0),
            live_out=self._is_live_out(op),
        )
        self._install_value(dest, value, cycle)
        self.placement[op.uid] = cycle
        return True

    def _is_live_out(self, op: MOp) -> bool:
        return (
            isinstance(op.dest, PhysReg)
            and op.dest in self.live_out_regs
            and self.last_def_uid.get(op.dest) == op.uid
        )

    def _install_value(self, reg: PhysReg, value: _Value, cycle: int) -> None:
        self.reg_version[reg] = value
        if value.wb is not None:
            self.reg_wb[reg] = value.wb
        self.values[value.uid] = value

    def _note_src_consumption(self, src, cycle: int, consumed: set | None = None) -> None:
        if isinstance(src, PhysReg):
            value = self.reg_version.get(src)
            if value is not None:
                if consumed is None or value.uid not in consumed:
                    value.pending = max(0, value.pending - 1)
                    if consumed is not None:
                        consumed.add(value.uid)
            if value is None or value.wb is not None:
                # an RF read may have occurred at `cycle`
                self.reg_last_read[src] = max(self.reg_last_read.get(src, -1), cycle)

    def _try_on_fu(self, op: MOp, fu, cycle: int) -> bool:
        spec_latency = op.latency
        name = fu.name
        if self.trigger_used.get((cycle, name)):
            return False
        # Triggers on one unit must be placed in increasing time: the
        # semi-virtual latching model (and the result pipeline) requires
        # in-order completion per FU.
        if cycle <= self.fu_last_trigger.get(name, -1):
            return False
        # The new result must land strictly after every committed use of
        # any earlier result on this unit.
        if cycle + spec_latency <= self.fu_protect.get(name, -1):
            return False
        state = self.fu_state[name]
        current = state.current
        # Retriggering overwrites the FU result at cycle+latency: the old
        # value must be flushed/consumed by then.  The flush write-back is
        # committed up front so its bus/port reservations are visible to
        # the move planning below (a committed write-back is semantically
        # safe even if this op ends up placed elsewhere).
        if current is not None:
            overwrite = cycle + spec_latency
            if current.last_fu_read >= overwrite:
                return False
            # Results on one unit must complete in trigger order, strictly
            # separated: two results landing in the result register on the
            # same cycle would be a hardware write conflict.
            if overwrite <= current.ready:
                return False
            needs_flush = current.wb is None and (current.pending > 0 or current.live_out)
            if needs_flush:
                wb = self._place_wb(current, by=overwrite - 1, commit=False)
                if wb is None:
                    return False
                self._place_wb(current, by=overwrite - 1, commit=True)
            if current.wb is not None and current.wb >= overwrite:
                return False
        deadline = self._window_deadline(cycle)
        if deadline is not None and cycle > deadline:
            return False

        if op.op == "call":
            boundary = cycle + self.jl
            # No committed FU-resident state may straddle the redirect:
            # operand-port holds, bypass reads or write-backs scheduled
            # after the boundary for values triggered before it.
            for windows in self.fu_o1_windows.values():
                if any(w <= boundary < h for (w, h) in windows):
                    return False
            for value in self.values.values():
                if value.fu is None or value.trigger > boundary:
                    continue
                if value.last_fu_read > boundary:
                    return False
                if value.wb is not None and value.wb > boundary:
                    return False
                if value.ready > boundary and (value.pending > 0 or value.live_out):
                    return False
            # The callee clobbers every FU pipeline: any value still only
            # in an FU result register but needed later (or live out of
            # the block) must be written back before the redirect.
            flushes = [
                s.current
                for s in self.fu_state.values()
                if s.current is not None
                and s.current.wb is None
                and (s.current.pending > 0 or s.current.live_out)
            ]
            for value in flushes:
                if self._place_wb(value, by=cycle + self.jl, commit=False) is None:
                    return False
            for value in flushes:
                if self._place_wb(value, by=cycle + self.jl, commit=True) is None:
                    return False

        value_needed = (
            isinstance(op.dest, PhysReg)
            and op.op != "call"
            and (self.consumers.get(op.uid, 0) > 0 or self._is_live_out(op))
        )
        if deadline is not None and value_needed:
            # The op executes in a call's delay window; the callee will
            # clobber the FU, so the result must reach the RF inside the
            # window.  Check a write-back slot exists before committing.
            fu_result = fu.result_port
            rf_name = op.dest.rf
            feasible = any(
                self._rf_write_ok(w, rf_name)
                and self._free_bus(w, fu_result, f"{rf_name}.write") is not None
                for w in range(cycle + spec_latency, deadline + 1)
            )
            if not feasible:
                return False

        taken: set[int] = set()
        taken_reads: dict[str, int] = {}
        #: planned transports as (move_cycle, move, extra_buses)
        planned_moves: list[tuple[int, Move, list[int]]] = []
        # operand 1 -> o1 port: operand sharing if the port already holds
        # the value, else a transport at the trigger cycle or -- using the
        # input-port storage -- at an earlier free cycle.
        o1_commit: tuple | None = None  # (o1_cycle, descriptor) when a move is made
        shared = False
        if len(op.srcs) >= 2 and op.op != "call":
            src1 = op.srcs[1]
            descriptor = self._descriptor_of(src1)
            windows = self.fu_o1_windows.setdefault(name, [])
            held = state.o1_holds  # (descriptor, write_cycle) of latest write
            if (
                held is not None
                and held[0] == descriptor
                and held[1] <= cycle
                and not self._spans_call(held[1], cycle)
            ):
                shared = True  # port already holds the operand
            else:
                placed = False
                floor = max(cycle - 12, 0)
                for o1_cycle in range(cycle, floor - 1, -1):
                    if self._spans_call(o1_cycle, cycle):
                        break  # earlier cycles all cross the call boundary
                    if self.o1_used.get((o1_cycle, name)):
                        continue
                    # Our write must not clobber a held operand, and no
                    # existing write may clobber ours before the trigger.
                    if any(w < o1_cycle <= h or o1_cycle < w <= cycle for w, h in windows):
                        continue
                    same = o1_cycle == cycle
                    o1_taken: set[int] = set(taken) if same else set()
                    o1_reads: dict[str, int] = dict(taken_reads) if same else {}
                    planned = self._plan_src(
                        src1,
                        fu.operand_port,
                        o1_cycle,
                        o1_taken,
                        o1_reads if same else None,
                    )
                    if planned is None:
                        continue
                    move, extra, descriptor = planned
                    if same:
                        o1_taken.add(move.bus)
                        o1_taken.update(extra)
                        if move.src[0] == "rf":
                            o1_reads[move.src[1]] = o1_reads.get(move.src[1], 0) + 1
                    # The trigger transport must also fit, given this
                    # operand placement; otherwise try an earlier cycle.
                    trig = self._plan_src(
                        op.srcs[0],
                        fu.trigger_port,
                        cycle,
                        o1_taken if same else taken,
                        o1_reads if same else taken_reads,
                    )
                    if trig is None:
                        continue
                    planned_moves.append((o1_cycle, move, extra))
                    o1_commit = (o1_cycle, descriptor)
                    trigger_move, trigger_extra, _ = trig
                    trigger_move.dst = ("op", name, "t", op.op)
                    planned_moves.append((cycle, trigger_move, trigger_extra))
                    placed = True
                    break
                if not placed:
                    return False
        if not planned_moves or planned_moves[-1][1].dst[:3] != ("op", name, "t"):
            # No operand move was needed (unary op, call, or shared
            # operand): plan the trigger transport now.
            planned = self._plan_src(op.srcs[0], fu.trigger_port, cycle, taken, taken_reads)
            if planned is None:
                return False
            trigger_move, trigger_extra, _ = planned
            trigger_move.dst = ("op", name, "t", op.op)
            planned_moves.append((cycle, trigger_move, trigger_extra))

        # ---- commit ----
        for move_cycle, move, extra in planned_moves:
            self._commit_move(move_cycle, move)
            for bus in extra:
                self.bus_used.setdefault(move_cycle, set()).add(bus)
            if move.src[0] == "fu":
                source_value = self.fu_state[move.src[1]].current
                if source_value is not None:
                    source_value.last_fu_read = max(source_value.last_fu_read, move_cycle)
                self._bump_protect(move.src[1], move_cycle)
        self.trigger_used[(cycle, name)] = True
        self.fu_last_trigger[name] = max(self.fu_last_trigger.get(name, -1), cycle)
        if o1_commit is not None:
            o1_cycle, descriptor = o1_commit
            self.o1_used[(o1_cycle, name)] = True
            self.fu_o1_windows.setdefault(name, []).append((o1_cycle, cycle))
            if state.o1_holds is None or o1_cycle >= state.o1_holds[1]:
                state.o1_holds = (descriptor, o1_cycle)
        elif shared and state.o1_holds is not None:
            # extend the hold window of the shared operand
            windows = self.fu_o1_windows.setdefault(name, [])
            for index, (w, h) in enumerate(windows):
                if w == state.o1_holds[1]:
                    windows[index] = (w, max(h, cycle))
                    break
        # Consume each distinct source value exactly once.
        consumed: set[int] = set()
        op_srcs = op.srcs if op.op != "call" else op.srcs[:1]
        for src_index, src in enumerate(op_srcs):
            read_cycle = cycle
            if src_index == 1 and o1_commit is not None:
                read_cycle = o1_commit[0]
            self._note_src_consumption(src, read_cycle, consumed)

        self.placement[op.uid] = cycle
        if op.op == "call":
            self._commit_call_effects(op, cycle)
            return True
        if isinstance(op.dest, PhysReg):
            value = _Value(
                op.uid,
                op.dest,
                name,
                cycle,
                cycle + spec_latency,
                pending=self.consumers.get(op.uid, 0),
                live_out=self._is_live_out(op),
            )
            state.current = value
            self._install_value(op.dest, value, cycle)
            self._bump_protect(name, value.ready)
            if deadline is not None and value_needed:
                if self._place_wb(value, by=deadline, commit=True) is None:
                    raise ScheduleError(
                        f"write-back of {op!r} does not fit its call window"
                    )
        else:
            state.current = None
        return True

    def _descriptor_of(self, src):
        if isinstance(src, Imm):
            return ("imm", src.value)
        if isinstance(src, LabelRef):
            return ("imm", src.name)
        value = self.reg_version.get(src)
        return ("val", value.uid if value is not None else ("livein", src))

    def _commit_call_effects(self, op: MOp, cycle: int) -> None:
        self.call_cycles.append(cycle)
        # The callee clobbers every FU pipeline and input port.
        for state in self.fu_state.values():
            state.current = None
            state.o1_holds = None
        # Caller-saved registers now hold callee-defined values; the
        # return value lands in the RF before the callee returns.
        for reg in self.clobbers:
            value = _Value(
                op.uid if reg == op.dest else -op.uid,
                reg,
                None,
                cycle,
                cycle + self.jl,
                wb=cycle + self.jl,
                pending=self.consumers.get(op.uid, 0) if reg == op.dest else 0,
                live_out=self._is_live_out(op) if reg == op.dest else False,
            )
            self.reg_version[reg] = value
            self.reg_wb[reg] = cycle + self.jl
            self.reg_last_read[reg] = max(self.reg_last_read.get(reg, -1), cycle + self.jl)
        if isinstance(op.dest, PhysReg):
            self.values[op.uid] = self.reg_version[op.dest]

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

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
                raise ScheduleError(f"dependence cycle in {self.block.name}")
            ready.sort(key=lambda o: (-self.ddg.height.get(o.uid, 0), order_index[o.uid]))
            op = ready.pop(0)
            earliest = self._earliest(op)
            cycle = earliest
            while not self._try_schedule(op, cycle):
                cycle += 1
                if cycle - earliest > _SEARCH_HORIZON:
                    raise ScheduleError(f"cannot place {op!r} in {self.block.name}")
            del unscheduled[op.uid]
            for edge in self.ddg.succs.get(op.uid, []):
                if edge.succ in unscheduled:
                    pred_count[edge.succ] -= 1
                    if pred_count[edge.succ] == 0:
                        ready.append(unscheduled[edge.succ])

        # Flush values that were never written back but are still
        # needed: live out of the block, or carrying ABI-preserved state
        # the terminator's synthetic uses reference (restored callee-saved
        # registers, the stack pointer, the return value).
        for value in list(self.values.values()):
            needed = value.live_out or value.pending > 0
            if needed and value.wb is None:
                if self._place_wb(value) is None:
                    raise ScheduleError(
                        f"cannot write back needed value in {self.block.name}"
                    )

        # Terminators.
        last_ctrl = None
        for op in terminators:
            earliest = max(self._earliest(op), self.max_move_cycle - self.jl, 0)
            if last_ctrl is not None:
                earliest = max(earliest, last_ctrl + self.jl + 1)
            cycle = earliest
            while not self._try_schedule(op, cycle):
                cycle += 1
                if cycle - earliest > _SEARCH_HORIZON:
                    raise ScheduleError(f"cannot place {op!r} in {self.block.name}")
            last_ctrl = cycle

        if last_ctrl is not None:
            length = last_ctrl + self.jl + 1
        else:
            length = self.max_move_cycle + 1 if self.max_move_cycle >= 0 else 0
        # A call needs its delay slots inside this block: the return
        # address is call + jump_latency + 1 and must point past them.
        for tc in self.call_cycles:
            length = max(length, tc + self.jl + 1)

        instrs = [TTAInstr() for _ in range(length)]
        for cycle, move in self.moves:
            instrs[cycle].moves.append(move)
        return ScheduledBlock(self.block.name, length, instrs)


def schedule_tta_function(
    mfunc: MFunction, machine: Machine, ddg_of=build_ddg
) -> list[ScheduledBlock]:
    """Schedule every block of *mfunc* as TTA move code;
    ``ddg_of(block, machine)`` gives each block's dependence graph."""
    clobbers = caller_saved(machine) | set(scratch_regs(machine))
    _live_in, live_out = machine_liveness(mfunc, clobbers, ret_preserved_regs(machine))
    blocks = []
    for block in mfunc.blocks:
        # the scheduler only asks whether a PhysReg is live out
        out_regs = live_out[block.name]
        ddg = ddg_of(block, machine)
        blocks.append(_BlockScheduler(block, machine, out_regs, ddg, clobbers).run())
    return blocks
