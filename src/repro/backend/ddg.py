"""Data-dependence graphs over machine blocks (post-allocation).

Edges carry a *kind* and the information each scheduler needs to turn
them into timing constraints:

* ``raw``  -- true dependence through a register.  VLIW consumers wait
  for the write-back (``latency + 1``); the TTA scheduler may instead
  software-bypass at ``latency`` (Section III-B of the paper).
* ``war`` / ``waw`` -- anti/output dependences; order-only for the TTA
  scheduler (write-back placement enforces timing), numeric for VLIW.
* ``mem``  -- memory ordering (stores are barriers against loads/stores).
* ``ra``   -- ordering through the control unit's return-address state.
* ``ctrl`` -- ordering between control transfers (a second in-flight
  transfer must trigger after the first one's redirect).
* ``callout`` -- results/effects only valid after a call returns
  (``jump_latency + 1`` cycles after the call's trigger).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.backend.abi import caller_saved, ret_preserved_regs, scratch_regs, stack_pointer
from repro.backend.mop import CONTROL_OPS, MBlock, MOp, PhysReg
from repro.isa.operations import OPS
from repro.machine.machine import Machine


class Edge(NamedTuple):
    pred: int  # op uid
    succ: int
    kind: str
    #: minimum trigger-to-trigger distance (None = order-only)
    min_gap: int | None
    #: for raw edges: the register carrying the value
    reg: PhysReg | None = None


@dataclass
class DDG:
    """Dependence graph for one block.

    A graph depends on its block and on the machine only through the
    register-file layout and ``jump_latency``, so ``compile_for_machine``
    shares one between the design points that agree on both; it must
    never be modified after :func:`build_ddg` returns.
    """

    block: MBlock
    preds: dict[int, tuple[Edge, ...]] = field(default_factory=dict)
    succs: dict[int, tuple[Edge, ...]] = field(default_factory=dict)
    #: critical-path height per op uid (priority for list scheduling)
    height: dict[int, int] = field(default_factory=dict)


#: whether each memory operation writes memory
_MEMORY_WRITES = {
    name: spec.writes_mem for name, spec in OPS.items() if spec.reads_mem or spec.writes_mem
}
#: operations that read or write the control unit's return address
_RA_OPS = frozenset({"ret", "getra", "call", "setra"})
_RA_WRITERS = frozenset({"call", "setra"})


def build_ddg(block: MBlock, machine: Machine) -> DDG:
    """Build the dependence graph of *block* for *machine*."""
    ddg = DDG(block)
    preds = ddg.preds
    succs = ddg.succs
    jl = machine.jump_latency
    clobber_set = sorted(caller_saved(machine) | set(scratch_regs(machine)), key=str)
    sp = stack_pointer(machine)
    ret_uses = ret_preserved_regs(machine)

    last_def: dict[PhysReg, MOp] = {}
    reads_since_def: dict[PhysReg, list[MOp]] = {}
    last_store: MOp | None = None
    loads_since_store: list[MOp] = []
    last_ra_write: MOp | None = None
    ra_reads_since: list[MOp] = []
    last_ctrl: MOp | None = None
    seen: set[tuple[int, int, str]] = set()

    def add(pred: MOp, succ: MOp, kind: str, min_gap: int | None, reg: PhysReg | None = None):
        p, s = pred.uid, succ.uid
        if p == s:
            return
        key = (p, s, kind)
        if key in seen:
            return
        seen.add(key)
        edge = Edge(p, s, kind, min_gap, reg)
        if s in preds:
            preds[s].append(edge)
        else:
            preds[s] = [edge]
        if p in succs:
            succs[p].append(edge)
        else:
            succs[p] = [edge]

    for op in block.ops:
        name = op.op
        uses = [r for r in op.srcs if r.__class__ is PhysReg]
        defs = [op.dest] if op.dest.__class__ is PhysReg else []
        is_call = name == "call"
        if is_call:
            defs = defs + [r for r in clobber_set if r not in defs]
            # The callee addresses its frame (and any incoming stack
            # arguments) through the caller's stack pointer.
            if sp not in uses:
                uses = uses + [sp]
        if name in ("ret", "halt"):
            uses = uses + [r for r in ret_uses if r not in uses]

        # RAW: value producers -> this op.
        for reg in uses:
            producer = last_def.get(reg)
            if producer is not None:
                if producer.op == "call":
                    add(producer, op, "callout", jl + 1, reg)
                else:
                    add(producer, op, "raw", producer.latency + 1, reg)
            if reg in reads_since_def:
                reads_since_def[reg].append(op)
            else:
                reads_since_def[reg] = [op]

        # WAR: readers of the previous value -> this def.
        # WAW: previous def -> this def.
        if defs:
            latency = op.latency
            for reg in defs:
                for reader in reads_since_def.get(reg, ()):
                    gap = jl + 1 if reader.op == "call" else 1 - latency
                    add(reader, op, "war", gap)
                prev = last_def.get(reg)
                if prev is not None:
                    gap = jl + 1 if prev.op == "call" else prev.latency - latency + 1
                    add(prev, op, "waw", gap)
                last_def[reg] = op
                reads_since_def[reg] = []

        # Memory ordering.
        mem_writes = _MEMORY_WRITES.get(name)
        if mem_writes is not None or is_call:
            if last_store is not None:
                gap = jl + 1 if last_store.op == "call" else 1
                add(last_store, op, "mem", gap)
            if is_call or mem_writes:
                for load in loads_since_store:
                    add(load, op, "mem", 1)
                last_store = op
                loads_since_store = []
            else:
                loads_since_store.append(op)

        # Return-address state.
        if name in _RA_OPS:
            if last_ra_write is not None:
                gap = jl + 1 if last_ra_write.op == "call" else 1
            if name in _RA_WRITERS:
                for reader in ra_reads_since:
                    add(reader, op, "ra", 1)
                if last_ra_write is not None:
                    add(last_ra_write, op, "ra", gap)
                last_ra_write = op
                ra_reads_since = []
            else:
                if last_ra_write is not None:
                    add(last_ra_write, op, "ra", gap)
                ra_reads_since.append(op)

        # Control-transfer ordering.
        if name in CONTROL_OPS:
            if last_ctrl is not None:
                add(last_ctrl, op, "ctrl", jl + 1)
            last_ctrl = op

    # tuples hold the same edges in less memory, and a graph outlives
    # its build while ``compile_for_machine`` shares it
    for table in (preds, succs):
        for uid, edges in table.items():
            table[uid] = tuple(edges)
    _compute_heights(ddg, block)
    return ddg


def _compute_heights(ddg: DDG, block: MBlock) -> None:
    """Critical-path height: longest latency path to any DDG sink."""
    heights: dict[int, int] = {}
    for op in reversed(block.ops):
        best = op.latency
        for edge in ddg.succs.get(op.uid, []):
            gap = edge.min_gap if edge.min_gap is not None else 0
            best = max(best, gap + heights.get(edge.succ, 0))
        heights[op.uid] = best
    ddg.height = heights
