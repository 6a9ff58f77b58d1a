"""Calling convention shared by all design points.

* ``RF0[0]``  -- stack pointer (reserved).
* ``RF0[1]``  -- return value and first argument.
* ``RF0[1..4]`` -- argument registers; caller-saved (clobbered by calls).
* every other register -- callee-saved: a function saves/restores the
  ones it writes.  The return address is captured from the control unit
  into an ordinary register (``getra``) in non-leaf functions, so nested
  calls work without a dedicated link-register stack.
* arguments beyond four go on the stack: the caller decrements SP by the
  outgoing-area size, stores, calls, and restores SP; the callee reads
  them above its own frame.

The stack grows downward from the top of data memory.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

from repro.backend.mop import PhysReg
from repro.machine.machine import Machine

#: Number of register-passed arguments.
NUM_ARG_REGS = 4

#: Data memory size shared by the simulators and the interpreter.
MEMORY_SIZE = 1 << 20
#: Initial stack pointer.
STACK_TOP = MEMORY_SIZE - 16


def stack_pointer(machine: Machine) -> PhysReg:
    first_rf = machine.register_files[0].name
    return PhysReg(first_rf, 0)


def arg_regs(machine: Machine) -> list[PhysReg]:
    first_rf = machine.register_files[0].name
    return [PhysReg(first_rf, i + 1) for i in range(NUM_ARG_REGS)]


def return_value_reg(machine: Machine) -> PhysReg:
    first_rf = machine.register_files[0].name
    return PhysReg(first_rf, 1)


def caller_saved(machine: Machine) -> frozenset[PhysReg]:
    """Registers clobbered by a call (argument/return-value registers)."""
    return _caller_saved(machine.register_files)


def scratch_regs(machine: Machine) -> list[PhysReg]:
    """Two registers reserved for spill reload/store sequences."""
    last_rf = machine.register_files[-1].name
    size = machine.register_files[-1].size
    return [PhysReg(last_rf, size - 1), PhysReg(last_rf, size - 2)]


def ret_preserved_regs(machine: Machine) -> tuple[PhysReg, ...]:
    """Registers that must hold their ABI-mandated values when a function
    returns: the stack pointer, the return value, and every callee-saved
    register."""
    return _ret_preserved_regs(machine.register_files)


def allocatable_regs(machine: Machine) -> tuple[PhysReg, ...]:
    """All registers the allocator may hand out, in a round-robin order
    that interleaves the register files (spreads port pressure on the
    partitioned design points)."""
    return _allocatable_regs(machine.register_files)


# The three helpers above depend on the register files alone and the
# backend calls them per instruction, so they are memoised on
# ``machine.register_files`` (hashing that tuple is far cheaper than a
# machine digest).  Each memo entry computes on a stand-in machine that
# has only the register files.


@lru_cache(maxsize=256)
def _caller_saved(register_files) -> frozenset[PhysReg]:
    return frozenset(arg_regs(SimpleNamespace(register_files=register_files)))


@lru_cache(maxsize=256)
def _ret_preserved_regs(register_files) -> tuple[PhysReg, ...]:
    machine = SimpleNamespace(register_files=register_files)
    clobbered = caller_saved(machine) | set(scratch_regs(machine))
    preserved = [stack_pointer(machine), return_value_reg(machine)]
    for reg in allocatable_regs(machine):
        if reg not in clobbered:
            preserved.append(reg)
    return tuple(preserved)


@lru_cache(maxsize=256)
def _allocatable_regs(register_files) -> tuple[PhysReg, ...]:
    machine = SimpleNamespace(register_files=register_files)
    reserved = {stack_pointer(machine), *scratch_regs(machine)}
    regs: list[PhysReg] = []
    max_size = max(rf.size for rf in register_files)
    for idx in range(max_size):
        for rf in register_files:
            if idx < rf.size:
                reg = PhysReg(rf.name, idx)
                if reg not in reserved:
                    regs.append(reg)
    return tuple(regs)
