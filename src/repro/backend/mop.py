"""Machine-operation representation (post-lowering, pre-scheduling).

A machine operation names one Table I operation (plus the ``copy``
pseudo-op, which the TTA scheduler turns into a bare transport and the
VLIW/scalar backends execute on an ALU).  Register operands start as IR
virtual registers and become :class:`PhysReg` after allocation; immediate
operands are :class:`Imm` (resolved), :class:`LabelRef` (code address,
resolved at link time) or :class:`FrameRef` (stack offset, resolved after
frame layout).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.isa.operations import OPS
from repro.ir.instructions import VReg


@dataclass(frozen=True)
class PhysReg:
    """A physical register: file name plus index."""

    rf: str
    idx: int

    def __repr__(self) -> str:
        return f"{self.rf}[{self.idx}]"


@dataclass(frozen=True)
class Imm:
    """A resolved immediate operand."""

    value: int

    def __repr__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True)
class LabelRef:
    """A code-address operand, resolved by the linker."""

    name: str

    def __repr__(self) -> str:
        return f"&{self.name}"


@dataclass(frozen=True)
class FrameRef:
    """A frame-slot offset operand, resolved after frame layout."""

    slot: str

    def __repr__(self) -> str:
        return f"fp:{self.slot}"


Reg = Union[VReg, PhysReg]
Src = Union[VReg, PhysReg, Imm, LabelRef, FrameRef]

#: Pseudo-operations understood by the schedulers in addition to OPS.
PSEUDO_OPS = frozenset({"copy", "getra", "setra", "halt"})

#: Result latency of the pseudo ops (copy via ALU / bare move).
_PSEUDO_LATENCY = {"copy": 1, "getra": 1, "setra": 0, "halt": 0}


#: every control-transfer operation, ``halt`` included
CONTROL_OPS = frozenset({"jump", "cjump", "cjumpz", "call", "ret", "halt"})

#: result latency per operation name, filled on first use
_latency_memo: dict[str, int] = {}


def op_latency(op: str) -> int:
    latency = _latency_memo.get(op)
    if latency is None:
        if op in _PSEUDO_LATENCY:
            latency = _PSEUDO_LATENCY[op]
        else:
            latency = OPS[op].latency
        _latency_memo[op] = latency
    return latency


def op_is_control(op: str) -> bool:
    return op in CONTROL_OPS


def op_is_memory(op: str) -> bool:
    return op in OPS and (OPS[op].reads_mem or OPS[op].writes_mem)


_next_mop_id = 0


def _fresh_id() -> int:
    global _next_mop_id
    _next_mop_id += 1
    return _next_mop_id


@dataclass
class MOp:
    """One machine operation.

    Attributes:
        op: mnemonic (Table I op or pseudo).
        dest: destination register, or None.
        srcs: source operands in operand order (operand 0 is transported
            to the FU trigger port, operand 1 to the operand port).
        uid: unique id (for dependence graphs).
    """

    op: str
    dest: Reg | None
    srcs: list[Src]
    uid: int = field(default_factory=_fresh_id)

    def reg_srcs(self) -> list[Reg]:
        return [s for s in self.srcs if isinstance(s, (VReg, PhysReg))]

    @property
    def is_control(self) -> bool:
        return op_is_control(self.op)

    @property
    def latency(self) -> int:
        latency = _latency_memo.get(self.op)
        return op_latency(self.op) if latency is None else latency

    def __repr__(self) -> str:
        dest = f"{self.dest} = " if self.dest is not None else ""
        return f"{dest}{self.op} {', '.join(map(repr, self.srcs))}"


@dataclass
class MBlock:
    """A machine basic block: straight-line ops, control ops at the end."""

    name: str
    ops: list[MOp] = field(default_factory=list)

    def __repr__(self) -> str:
        return "\n".join([f"{self.name}:"] + [f"  {op!r}" for op in self.ops])


@dataclass
class MFunction:
    """A lowered machine function."""

    name: str
    blocks: list[MBlock] = field(default_factory=list)
    #: IR frame slots (name -> size, align) carried through for layout
    frame_slots: dict[str, tuple[int, int]] = field(default_factory=dict)
    has_calls: bool = False
    #: filled by the register allocator
    used_regs: set[PhysReg] = field(default_factory=set)
    #: filled by frame layout: total frame size in bytes
    frame_size: int = 0

    def all_ops(self):
        for block in self.blocks:
            yield from block.ops

    def __repr__(self) -> str:
        return "\n".join([f"mfunc {self.name}"] + [repr(b) for b in self.blocks])
