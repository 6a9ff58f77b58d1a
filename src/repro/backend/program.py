"""Scheduled-program containers and the linker.

All three program forms share the same linking model: scheduled blocks
are concatenated in layout order, every block label gets the absolute
instruction address of its first cycle, and ``LabelRef`` immediates are
patched to those addresses.  Instruction addresses are instruction-word
indices (Harvard organisation, as in the evaluated cores).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.backend.mop import Imm, LabelRef, MOp
from repro.machine.machine import Machine

# ---------------------------------------------------------------------------
# TTA moves
# ---------------------------------------------------------------------------

#: Move source: ("rf", rf, idx) | ("fu", fu) | ("imm", value-or-LabelRef)
MoveSrc = tuple
#: Move destination: ("rf", rf, idx) | ("op", fu, port, opcode-or-None)
MoveDst = tuple


@dataclass
class Move:
    """One data transport: src endpoint -> dst endpoint on some bus."""

    src: MoveSrc
    dst: MoveDst
    bus: int
    #: extra bus slots consumed by a long-immediate template
    extra_slots: int = 0

    def __repr__(self) -> str:
        return f"[b{self.bus}] {self.src} -> {self.dst}"


@dataclass
class TTAInstr:
    """One TTA instruction: parallel moves (at most one per bus)."""

    moves: list[Move] = field(default_factory=list)


@dataclass
class VLIWInstr:
    """One VLIW bundle: the operations triggered this cycle."""

    ops: list[MOp] = field(default_factory=list)


@dataclass
class ScheduledBlock:
    """A scheduled basic block of `length` instruction words."""

    label: str
    length: int
    instrs: list  # list[TTAInstr] or list[VLIWInstr]


Instr = Union[TTAInstr, VLIWInstr]


@dataclass
class Program:
    """A linked program for one machine.

    Attributes:
        machine: the design point this program is scheduled for.
        style: 'tta' | 'vliw' | 'scalar'.
        instrs: linked instruction stream.
        labels: label -> absolute instruction address.
        extra_imm_words: (scalar only) IMM-prefix words per address,
            counted into the program image size.
    """

    machine: Machine
    style: str
    instrs: list
    labels: dict[str, int] = field(default_factory=dict)
    extra_imm_words: int = 0
    #: load-time pre-decode artefacts keyed by engine name; filled lazily by
    #: :mod:`repro.sim.predecode` so repeated simulations of one program pay
    #: the structural verification and decode cost only once.
    predecode_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def instruction_count(self) -> int:
        """Instruction words in the program image."""
        return len(self.instrs) + self.extra_imm_words

    def address_of(self, label: str) -> int:
        return self.labels[label]

    def invalidate_predecode(self) -> None:
        """Drop cached pre-decoded forms (call after mutating ``instrs``)."""
        self.predecode_cache.clear()

    def __getstate__(self):
        # The predecode cache holds unpicklable engine artefacts (compiled
        # code objects, the native engine's FFI handles); it is a lazily
        # rebuilt derivative, so pickling drops it.
        state = self.__dict__.copy()
        state["predecode_cache"] = {}
        return state


def link_blocks(
    machine: Machine,
    style: str,
    blocks: list[ScheduledBlock],
    aliases: dict[str, str] | None = None,
) -> Program:
    """Concatenate scheduled blocks and resolve label references.

    *aliases* maps extra label names (function names) to block labels.
    Instruction words are patched in place (a TTA move's source, a VLIW
    bundle's operation list), but an operation is never modified: a VLIW
    or scalar operation holding a ``LabelRef`` is replaced by a patched
    copy, because design points that share a register-file layout
    schedule the same operations (see
    :func:`repro.backend.compile.compile_for_machine`).
    """
    labels: dict[str, int] = {}
    address = 0
    for block in blocks:
        labels[block.label] = address
        address += block.length
    for alias, target in (aliases or {}).items():
        labels[alias] = labels[target]
    instrs: list = []
    for block in blocks:
        instrs.extend(block.instrs)

    def patched(op: MOp) -> MOp:
        if not any(isinstance(s, LabelRef) for s in op.srcs):
            return op
        srcs = [Imm(labels[s.name]) if isinstance(s, LabelRef) else s for s in op.srcs]
        return MOp(op.op, op.dest, srcs, op.uid)

    if style == "tta":
        for instr in instrs:
            for move in instr.moves:
                if move.src[0] == "imm" and isinstance(move.src[1], LabelRef):
                    move.src = ("imm", labels[move.src[1].name])
    else:
        for index, instr in enumerate(instrs):
            if isinstance(instr, VLIWInstr):
                instr.ops = [patched(op) for op in instr.ops]
            else:
                instrs[index] = patched(instr)
    return Program(machine, style, instrs, labels)
