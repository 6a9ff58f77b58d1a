"""Byte-addressed data memory shared by all simulators."""

from __future__ import annotations

from repro.isa.semantics import MASK32
from repro.sim.errors import SimError


class DataMemory:
    """Little-endian byte-addressed memory with typed accessors.

    Every load and store opcode has one accessor bound to this memory
    (:meth:`accessor`): a loader ``(address) -> value`` or a storer
    ``(address, value)``.  The fast engines bind it once at decode time;
    :meth:`load` and :meth:`store` dispatch on the opcode for the
    reference interpreters.  Addresses wrap to the 32-bit space before
    the bounds check, whose error reports the address as the program
    produced it (a negative value stays negative), not the wrapped form.
    """

    def __init__(self, size: int) -> None:
        self.data = bytearray(size)
        self._loaders, self._storers = _bind_accessors(self.data)

    def preload(self, address: int, blob: bytes) -> None:
        wrapped = address & MASK32
        if wrapped + len(blob) > len(self.data):
            raise SimError(f"memory access out of range: {address:#x}+{len(blob)}")
        self.data[wrapped : wrapped + len(blob)] = blob

    def accessor(self, op: str):
        """The loader or storer of opcode *op*, bound to this memory."""
        access = self._loaders.get(op) or self._storers.get(op)
        if access is None:
            raise SimError(f"unknown memory operation {op}")
        return access

    def load(self, op: str, address: int) -> int:
        load = self._loaders.get(op)
        if load is None:
            raise SimError(f"unknown load {op}")
        return load(address)

    def store(self, op: str, address: int, value: int) -> None:
        store = self._storers.get(op)
        if store is None:
            raise SimError(f"unknown store {op}")
        store(address, value)


def _bind_accessors(data: bytearray) -> tuple[dict, dict]:
    """Opcode -> loader and opcode -> storer over *data* (whose size
    never changes)."""
    size = len(data)

    def _fault(address, width):
        return SimError(f"memory access out of range: {address:#x}+{width}")

    def ldw(address):
        a = address & MASK32
        if a + 4 > size:
            raise _fault(address, 4)
        return int.from_bytes(data[a : a + 4], "little")

    def ldh(address):
        a = address & MASK32
        if a + 2 > size:
            raise _fault(address, 2)
        return int.from_bytes(data[a : a + 2], "little", signed=True) & MASK32

    def ldhu(address):
        a = address & MASK32
        if a + 2 > size:
            raise _fault(address, 2)
        return int.from_bytes(data[a : a + 2], "little")

    def ldq(address):
        a = address & MASK32
        if a >= size:
            raise _fault(address, 1)
        v = data[a]
        return v | 0xFFFFFF00 if v & 0x80 else v

    def ldqu(address):
        a = address & MASK32
        if a >= size:
            raise _fault(address, 1)
        return data[a]

    def stw(address, value):
        a = address & MASK32
        if a + 4 > size:
            raise _fault(address, 4)
        data[a : a + 4] = (value & MASK32).to_bytes(4, "little")

    def sth(address, value):
        a = address & MASK32
        if a + 2 > size:
            raise _fault(address, 2)
        data[a : a + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def stq(address, value):
        a = address & MASK32
        if a >= size:
            raise _fault(address, 1)
        data[a] = value & 0xFF

    loaders = {"ldw": ldw, "ldh": ldh, "ldhu": ldhu, "ldq": ldq, "ldqu": ldqu}
    return loaders, {"stw": stw, "sth": sth, "stq": stq}
