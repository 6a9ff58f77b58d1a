"""Program encoding for the native simulation engine (``mode="native"``).

The native engine is one fixed C interpreter, ``engine.c`` next to this
module, which :mod:`repro.sim.native` compiles once per (compiler,
flags).  A program reaches it as flat ``int32`` tables, built here by
:func:`build_native_program` from the static decode the fast stepper
runs (:func:`~repro.sim.predecode.static_decode_tta` /
``static_decode_vliw``), so the engine sees exactly the moves and
operations that stepper binds, in the same order.

Every operand is an index into one ``uint32`` value space, the engine's
``v[]``::

    [0, rf_total)            the register files, concatenated in machine
                             declaration order (:attr:`NativeProgram.rf_layout`)
    then (TTA)               one sample cell per FU, then the latch cells
    then                     the immediate pool (:attr:`NativeProgram.consts`)

``prog[]`` holds a header (the ``H_*`` slots of ``engine.c``), then one
record offset per pc, then the records:

* TTA: ``[n_reads, n_latches, n_o1, n_trigs, n_writes]``, then the FU
  index of each unit the instruction reads (once each, in move order:
  the reference samples them before it latches or triggers anything),
  ``(src, cell)`` per latched RF-write source (one that an earlier write
  of the same instruction overwrites), ``(src, fu)`` per operand move,
  ``(src, fu, opcode, latency)`` per trigger and ``(src, dst)`` per RF
  write, each group in move order;
* VLIW: ``[n_ops]``, then ``(opcode, src0, src1, dst, latency)`` per
  operation in issue order.

Instructions with equal records share one.  Opcode numbers are positions
in :data:`OPCODES`, the order of ``engine.c``'s ``enum opcode``.

Semantics notes pinned by ``tests/test_native.py``:

* the engine's ALU agrees bit-exactly with ``predecode._ALU_EXPR``
  (32-bit wrap, signed compares/shifts on two's-complement ``int32_t``);
* FU results commit lazily, as in the reference: pending results move to
  the result register only when the unit is read, so the ``(pending:
  ...)`` payload of an early-read error is unchanged.  The fixed-capacity
  ring commits its due entries when full; any commit sets
  ``has_result``, so such a unit can never raise the errors whose text
  shows the pending list, and only its state as synced back after a
  later error differs from the reference's;
* the VLIW write-back queue is kept sorted by (due, insertion order), so
  draining reproduces the reference heap's ``(due, seq)`` pop order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from repro.backend.program import Program
from repro.isa.operations import OPS
from repro.sim.predecode import _ALU_EXPR, static_decode_tta, static_decode_vliw

#: function exported by the engine
ENTRY_SYMBOL = "repro_native_run"

#: ``ctl[]`` slot indices shared with the driver
CTL_CYCLE = 0
CTL_PC = 1
CTL_RC = 2
CTL_RT = 3
CTL_RA = 4
CTL_MAX_CYCLES = 5
CTL_ERR_A = 6
CTL_ERR_B = 7
CTL_MEM_SIZE = 8
CTL_WB_LEN = 9
CTL_WORDS = 16

#: return statuses of the engine
ST_HALT = 3
ST_FU_READ = -1  # FU result read with no result available
ST_FU_PUSH = -2  # non-monotonic result completion (ValueError)
ST_OVERLAP = -3  # overlapping control transfers
ST_PC_RANGE = -4  # PC out of range
ST_MEM_RANGE = -5  # memory access out of range
ST_BUDGET = -6  # cycle budget exceeded
ST_INTERNAL = -9  # capacity invariant broken (unreachable by design)

#: the engine's opcodes, numbered by position; ends with the ALU, which
#: covers exactly ``_ALU_EXPR``
OPCODES = (
    "halt", "getra", "setra", "copy",
    "jump", "call", "ret", "cjump", "cjumpz",
    "ldw", "ldh", "ldhu", "ldq", "ldqu",
    "stw", "sth", "stq",
    "add", "sub", "mul", "and", "ior", "xor", "eq", "gt", "gtu",
    "shl", "shru", "shr", "sxhw", "sxqw",
)  # fmt: skip
_OPCODE = {name: i for i, name in enumerate(OPCODES)}
assert set(OPCODES[_OPCODE["add"] :]) == set(_ALU_EXPR)

#: ``prog[]`` header style codes (the header is: style, n_instrs, jump
#: latency + 1, TTA ring capacity, first FU sample cell in ``v[]``, VLIW
#: queue capacity)
_STYLES = {"tta": 0, "vliw": 1}

ENGINE_PATH = Path(__file__).with_name("engine.c")


@cache
def engine_source() -> str:
    """The engine's C source, the one translation unit native builds."""
    return ENGINE_PATH.read_text()


@dataclass
class NativeProgram:
    """One program encoded for the engine (see the module docstring)."""

    style: str
    #: the C source the program runs on (the engine's, for every program)
    source: str
    n_instrs: int
    #: the encoded program, ``prog[]``
    prog: array
    #: (rf_name, base_offset, size) in machine declaration order
    rf_layout: list
    rf_total: int
    #: size of ``v[]``; the immediate pool is its tail
    n_values: int
    consts: list
    #: TTA: FU names in ``fu32``/``pd``/``pv``/``fum`` index order
    fu_names: list
    #: TTA: per-FU pending-ring capacity (power of two)
    pcap: int
    #: VLIW: write-back queue capacity
    wcap: int


def _tta_pcap(decoded) -> int:
    """The engine's per-FU pending-ring capacity: a power of two above
    the longest result latency plus two (the due-window bound)."""
    maxlat = 1  # getra pushes at cycle + 1
    for _rf_moves, _o1_moves, trig_moves, _counts, _fu_reads in decoded:
        for _src, _fu, opcode in trig_moves:
            spec = OPS.get(opcode)
            if spec is not None and spec.latency > maxlat:
                maxlat = spec.latency
    pcap = 8
    while pcap < maxlat + 2:
        pcap *= 2
    return pcap


def _rf_layout(machine):
    layout = []
    base = 0
    for rf in machine.register_files:
        layout.append((rf.name, base, rf.size))
        base += rf.size
    return layout, base


class _Encoder:
    """Builds ``prog[]`` and the immediate pool, which starts at
    ``v[pool_base]``; equal records are stored once."""

    def __init__(self, header, n_instrs, pool_base):
        self.prog = array("i", header)
        self.index_at = len(self.prog)
        self.prog.extend([0] * n_instrs)
        self.records: dict[tuple, int] = {}
        self.pool: dict[int, int] = {}
        self.pool_base = pool_base

    def imm(self, value):
        """The ``v[]`` index holding *value*."""
        at = self.pool.get(value)
        if at is None:
            at = self.pool[value] = self.pool_base + len(self.pool)
        return at

    def record(self, pc, words):
        key = tuple(words)
        offset = self.records.get(key)
        if offset is None:
            offset = self.records[key] = len(self.prog)
            self.prog.extend(key)
        self.prog[self.index_at + pc] = offset


def _encode_tta(decoded, rf_off, fu_idx, cells, enc):
    """*cells* is ``v[]``'s first FU sample cell; the latch cells follow
    the sample cells."""
    latch_base = cells + len(fu_idx)

    def src(s):
        kind = s[0]
        if kind == "imm":
            return enc.imm(s[1])
        if kind == "rf":
            return rf_off[s[1]] + s[2]
        return cells + fu_idx[s[1]]

    for pc, (rf_moves, o1_moves, trig_moves, _counts, fu_reads) in enumerate(decoded):
        latches: list[int] = []
        writes: list[int] = []
        written: set = set()
        for s, rf, idx in rf_moves:
            at = src(s)
            if s[0] == "rf" and s[1:] in written:
                cell = latch_base + len(latches) // 2
                latches += (at, cell)
                at = cell
            writes += (at, rf_off[rf] + idx)
            written.add((rf, idx))
        words = [len(fu_reads), len(latches) // 2, len(o1_moves), len(trig_moves), len(rf_moves)]
        words += (fu_idx[fu] for fu in fu_reads)
        words += latches
        for s, fu in o1_moves:
            words += (src(s), fu_idx[fu])
        for s, fu, opcode in trig_moves:
            spec = OPS.get(opcode)
            latency = 1 if opcode == "getra" else spec.latency if spec else 0
            words += (src(s), fu_idx[fu], _OPCODE[opcode], latency)
        words += writes
        enc.record(pc, words)


def _encode_vliw(decoded, rf_off, enc):
    def src(s):
        if s[0] == "imm":
            return enc.imm(s[1])
        return rf_off[s[1]] + s[2]

    for pc, bundle in enumerate(decoded):
        words = [len(bundle)]
        for name, srcs, dest, latency in bundle:
            operands = [src(s) for s in srcs[:2]] or [0]
            dst = 0 if dest is None else rf_off[dest[0]] + dest[1]
            words += (_OPCODE[name], operands[0], operands[-1], dst, latency)
        enc.record(pc, words)


def build_native_program(program: Program) -> NativeProgram | None:
    """Encode *program* for the engine; ``None`` for a style the engine
    does not run (the scalar core) or an empty program."""
    style = program.style
    if style == "tta":
        decoded = static_decode_tta(program)
    elif style == "vliw":
        decoded = static_decode_vliw(program)
    else:
        return None
    n_instrs = len(decoded)
    if n_instrs == 0:
        return None
    machine = program.machine
    rf_layout, rf_total = _rf_layout(machine)
    rf_off = {name: base for name, base, _size in rf_layout}
    if style == "tta":
        pcap, wcap = _tta_pcap(decoded), 1
    else:
        # the longest write-back latency of a result-writing op bounds
        # how long a write stays queued
        maxlat = max(
            (op[3] for bundle in decoded for op in bundle if op[2] is not None),
            default=0,
        )
        pcap, wcap = 1, max(16, 4 * (maxlat + 2) * max(1, machine.issue_width))
    header = [_STYLES[style], n_instrs, machine.jump_latency + 1, pcap, rf_total, wcap]
    if style == "tta":
        fu_names = [fu.name for fu in machine.all_units]
        fu_idx = {name: i for i, name in enumerate(fu_names)}
        # sample cells, then at most one latch cell per RF write
        max_writes = max(len(instr[0]) for instr in decoded)
        enc = _Encoder(header, n_instrs, rf_total + len(fu_names) + max_writes)
        _encode_tta(decoded, rf_off, fu_idx, rf_total, enc)
    else:
        fu_names = []
        enc = _Encoder(header, n_instrs, rf_total)
        _encode_vliw(decoded, rf_off, enc)
    consts = [(at, value) for value, at in enc.pool.items()]
    return NativeProgram(
        style=style,
        source=engine_source(),
        n_instrs=n_instrs,
        prog=enc.prog,
        rf_layout=rf_layout,
        rf_total=rf_total,
        n_values=enc.pool_base + len(consts),
        consts=consts,
        fu_names=fu_names,
        pcap=pcap,
        wcap=wcap,
    )
