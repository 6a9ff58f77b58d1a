"""The full compilation driver: IR module -> linked machine program."""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro import obs
from repro.backend.abi import STACK_TOP, stack_pointer
from repro.backend.finalize import finalize_function
from repro.backend.lower import lower_function
from repro.backend.mop import Imm, LabelRef, MBlock, MFunction, MOp
from repro.backend.program import Program, ScheduledBlock, link_blocks
from repro.backend.regalloc import allocate_registers
from repro.backend.schedule_tta import schedule_tta_function
from repro.backend.schedule_vliw import _imm_extra, schedule_vliw_function
from repro.ir.module import Module
from repro.machine.machine import Machine, MachineStyle


@dataclass
class CompiledProgram:
    """A program compiled, scheduled and linked for one design point.

    Attributes:
        program: the linked instruction stream.
        machine: the target design point.
        symbols: global-variable address map (for simulator memory init).
        data_init: (address, bytes) pairs to preload into data memory.
    """

    program: Program
    machine: Machine
    symbols: dict[str, int]
    data_init: list[tuple[int, bytes]] = field(default_factory=list)

    @property
    def instruction_count(self) -> int:
        return self.program.instruction_count


def _build_start(machine: Machine, entry: str) -> MFunction:
    """Synthesise the startup stub: set SP, call the entry, halt."""
    sp = stack_pointer(machine)
    block = MBlock("_start:entry")
    block.ops.append(MOp("copy", sp, [Imm(STACK_TOP)]))
    block.ops.append(MOp("call", None, [LabelRef(entry)]))
    block.ops.append(MOp("halt", None, [Imm(0)]))
    mfunc = MFunction("_start", blocks=[block], has_calls=True)
    return mfunc


def _schedule_scalar(mfunc: MFunction) -> list[ScheduledBlock]:
    """Scalar cores execute the lowered ops in program order."""
    return [
        ScheduledBlock(block.name, len(block.ops), list(block.ops))
        for block in mfunc.blocks
    ]


def _record_schedule_counters(machine: Machine, program: Program) -> None:
    """Fold schedule-quality statistics into the active tracer.

    Only called when tracing is enabled — one pass over the linked
    instruction stream, entirely outside any measured simulation loop.

    * ``sched.instrs``       linked instruction words
    * ``sched.moves``        scheduled TTA transports
    * ``sched.bypass_moves`` FU→FU transports (RF read eliminated: the
      operand rides the transport network instead of touching a
      register file — the paper's core RF-traffic argument)
    * ``sched.rf_write_moves`` transports landing in a register file
    * ``sched.longimm_slots``  extra bus slots consumed by wide
      immediates
    * ``sched.ops``          scheduled VLIW/scalar operations
    * ``sched.nop_slots``    empty TTA bus slots / VLIW issue slots
    """
    from repro.backend.program import TTAInstr, VLIWInstr

    obs.count("sched.instrs", program.instruction_count)
    moves = bypass = rf_writes = longimm = ops = nops = 0
    for instr in program.instrs:
        if isinstance(instr, TTAInstr):
            moves += len(instr.moves)
            used = len(instr.moves)
            for move in instr.moves:
                used += move.extra_slots
                longimm += move.extra_slots
                if move.src[0] == "fu" and move.dst[0] == "op":
                    bypass += 1
                if move.dst[0] == "rf":
                    rf_writes += 1
            nops += len(machine.buses) - used
        elif isinstance(instr, VLIWInstr):
            ops += len(instr.ops)
            nops += machine.issue_width - len(instr.ops)
        else:
            ops += 1
    if moves:
        obs.count("sched.moves", moves)
        obs.count("sched.bypass_moves", bypass)
        obs.count("sched.rf_write_moves", rf_writes)
        obs.count("sched.longimm_slots", longimm)
    if ops:
        obs.count("sched.ops", ops)
    obs.count("sched.nop_slots", nops)


class _SharedHalf:
    """The machine-independent half of compiling one module for one
    register-file layout: the ``_start`` stub and every function lowered,
    register-allocated and frame-finalised.

    All of it depends on the machine only through :mod:`abi`, that is on
    the ``(name, size)`` of each register file, so every design point
    with that layout schedules from the same half.  Its operations are
    shared by those design points and must never be modified (the linker
    patches copies).
    """

    def __init__(self, module: Module, machine: Machine) -> None:
        module.verify()
        self.symbols = module.layout_globals()
        self.mfuncs: dict[str, MFunction] = {
            "_start": _build_start(machine, module.entry)
        }
        for name, function in module.functions.items():
            with obs.span("backend.lower", function=name):
                mfunc = lower_function(function, machine, self.symbols)
            with obs.span("backend.regalloc", function=name):
                allocate_registers(mfunc, machine)
            with obs.span("backend.finalize", function=name):
                finalize_function(mfunc, machine)
            self.mfuncs[name] = mfunc
        finalize_function(self.mfuncs["_start"], machine, synthetic=True)
        self.data_init = [
            (self.symbols[gname], gvar.init)
            for gname, gvar in module.globals.items()
            if gvar.init
        ]


#: the module whose shared halves are memoised (held, so no later
#: module can be allocated in its place) and its most recently used
#: halves, keyed by register-file layout; the lock keeps one thread's
#: module from being paired with another's halves
_shared_module: Module | None = None
_shared_halves: OrderedDict[tuple, _SharedHalf] = OrderedDict()
_shared_lock = threading.Lock()
#: halves kept: in preset order a kernel's design points alternate
#: between at most two layouts (m-vliw-2, p-vliw-2, m-tta-2, p-tta-2),
#: so two serve every reuse a sweep can make
_HALVES_MAX = 2


def _shared_half(module: Module, machine: Machine) -> _SharedHalf:
    """The shared half of *module* for *machine*'s register-file layout.

    Only the last module compiled and its two most recently used layouts
    are remembered, which bounds the memory the halves hold.
    """
    global _shared_module
    layout = tuple((rf.name, rf.size) for rf in machine.register_files)
    with _shared_lock:
        if module is not _shared_module:
            _shared_halves.clear()
            _shared_module = module
        half = _shared_halves.get(layout)
        if half is None:
            half = _shared_halves[layout] = _SharedHalf(module, machine)
            if len(_shared_halves) > _HALVES_MAX:
                _shared_halves.popitem(last=False)
        else:
            _shared_halves.move_to_end(layout)
            obs.count("backend.layout_reuse")
    return half


def compile_for_machine(module: Module, machine: Machine) -> CompiledProgram:
    """Compile an (optimised, verified) IR module for *machine*.

    The module is not modified, so one optimised module can be
    retargeted to every machine of a sweep.  The machine-independent
    half of the work (the ``_start`` stub, lowering, register
    allocation and frame finalisation) depends only on the register
    files' names and sizes.  It is remembered for the module compiled
    last, for its two most recently used register-file layouts: a
    compile that finds it counts ``backend.layout_reuse`` and only
    schedules and links.  Interleaving modules or layouts recomputes
    it, which costs time but never changes a program: each compile
    yields the program a compile from a fresh module would.  (The serial
    sweep runs each kernel's pairs back to back for this reason.)
    """
    half = _shared_half(module, machine)
    blocks: list[ScheduledBlock] = []
    aliases: dict[str, str] = {}
    extra_imm_words = 0
    for name, mfunc in half.mfuncs.items():
        if machine.style is MachineStyle.TTA:
            with obs.span("backend.schedule_tta", function=name):
                scheduled = schedule_tta_function(mfunc, machine)
        elif machine.style is MachineStyle.VLIW:
            with obs.span("backend.schedule_vliw", function=name):
                scheduled = schedule_vliw_function(mfunc, machine)
        else:
            scheduled = _schedule_scalar(mfunc)
            extra_imm_words += sum(
                _imm_extra(machine, op) for block in mfunc.blocks for op in block.ops
            )
        aliases[name] = scheduled[0].label
        blocks.extend(scheduled)

    with obs.span("backend.link"):
        program = link_blocks(machine, machine.style.value, blocks, aliases)
    program.extra_imm_words = extra_imm_words
    if obs.enabled():
        _record_schedule_counters(machine, program)
    return CompiledProgram(program, machine, dict(half.symbols), list(half.data_init))
