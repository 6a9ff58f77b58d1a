"""Digest the compiled programs, the generated block code of the turbo
and scalar engines, and the native engine's encoded tables.

For every (kernel, machine) pair this prints three SHA-256 digests:
``asm`` over the compiled program itself (its ``format_program``
listing, data image and symbol table), ``py`` over the generated Python
block source at every start pc (``None`` where the block falls back to
precise stepping) -- turbo's on a TTA/VLIW preset, the scalar block
engine's on a scalar one -- and ``tables`` over the program as the
native engine reads it (``repro.sim.cgen.build_native_program``: its
``prog[]`` table, register layout, immediate pool, FU order, ``pcap``
and ``wcap``; ``native: none`` on a scalar preset, which has no C
engine), plus the Python source's size in bytes.  The last lines digest
all the pairs' ``asm``, ``py`` and ``tables`` digests and sum the Python
bytes (cold turbo cost grows with them).

A backend change that is meant to leave every program alone must print
the same ``asm`` digests as its parent.  A refactor of turbo's code
generator (``repro.sim.blockcompile``) or of the table encoder
(``repro.sim.cgen``) that is meant to leave its output alone must print
the same ``py`` or ``tables`` digests as its parent.  The native engine
itself is one fixed C source (``repro/sim/engine.c``), which the cached
shared object is keyed on; no program's tables are.

Run from the repository root (point ``PYTHONPATH`` at another checkout's
``src`` to digest that tree instead)::

    PYTHONPATH=src python scripts/codegen_digest.py
    PYTHONPATH=src python scripts/codegen_digest.py --kernels mips,aes \\
        --machines m-tta-2,m-vliw-2

Defaults: every catalogue kernel (built-ins and promoted) x every preset.
A tree without scalar blocks digests only the TTA/VLIW presets; compare
the two with ``--machines`` naming those.

``--pin`` instead rewrites ``tests/asm_pins.json``, the ``asm`` digest of
every (paper kernel, preset) pair that ``tests/test_asm_pins.py`` checks,
and names each pair whose digest it changed.  Re-pin only for a change
that is meant to change programs, and record it in CHANGES.md::

    PYTHONPATH=src python scripts/codegen_digest.py --pin
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.backend.asmprint import format_program
from repro.backend.compile import compile_for_machine
from repro.frontend import compile_source
from repro.kernels import KERNELS, catalog, load
from repro.machine import build_machine, preset_names
from repro.sim.blockcompile import tta_block_source
from repro.sim.cgen import build_native_program


def asm_digest(compiled) -> str:
    """SHA-256 over a compiled program's listing, data image and symbol
    table: equal digests mean the backend produced the same program."""
    digest = hashlib.sha256(format_program(compiled.program).encode())
    digest.update(f"\0{compiled.data_init!r}\0{compiled.symbols!r}".encode())
    return digest.hexdigest()


def pair_digest(module, machine) -> tuple[str, str, str, int, int]:
    """(program digest, Python digest, tables digest, number of start
    pcs, Python source bytes) of one compiled pair."""
    compiled = compile_for_machine(module, machine)
    program = compiled.program
    py, tables = hashlib.sha256(), hashlib.sha256()
    n_instrs = len(program.instrs)
    py_bytes = 0
    for pc in range(n_instrs):
        source = tta_block_source(program, pc)
        py.update(f"{pc}\n{source}\0".encode())
        py_bytes += len(source or "")
    nat = build_native_program(program)
    if nat is None:
        tables.update(b"native: none\0")
    else:
        tables.update(nat.prog.tobytes())
        layout = (nat.rf_layout, nat.n_values, nat.consts, nat.fu_names, nat.pcap, nat.wcap)
        tables.update(f"\0{layout!r}\0".encode())
    return asm_digest(compiled), py.hexdigest(), tables.hexdigest(), n_instrs, py_bytes


def _names(spec: str | None, known: tuple[str, ...], what: str) -> list[str]:
    if spec is None:
        return list(known)
    names = [n for n in spec.split(",") if n]
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(f"error: unknown {what} {', '.join(unknown)}")
    return names


#: the pinned ``asm`` digests of the paper kernels on every preset
PINS = Path(__file__).resolve().parents[1] / "tests" / "asm_pins.json"


def pin_asm() -> int:
    """Rewrite :data:`PINS` and name every pair whose digest changed."""
    old = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins = {}
    for kernel in KERNELS:
        module = compile_source(load(kernel), module_name=kernel)
        for name in preset_names():
            key = f"{kernel} {name}"
            pins[key] = asm_digest(compile_for_machine(module, build_machine(name)))
            if old.get(key) != pins[key]:
                print(f"re-pinned {key}: {old.get(key)} -> {pins[key]}")
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"{len(pins)} pairs pinned in {PINS.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernels", help="comma-separated kernel names")
    parser.add_argument("--machines", help="comma-separated presets")
    parser.add_argument(
        "--pin", action="store_true", help="re-pin the paper kernels' asm digests and exit"
    )
    args = parser.parse_args(argv)
    if args.pin:
        return pin_asm()
    kernels = _names(args.kernels, catalog(), "kernel")
    machines = _names(args.machines, preset_names(), "machine")
    total_asm, total_py, total_tables = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    n_blocks = total_bytes = 0
    for kernel in kernels:
        module = compile_source(load(kernel), module_name=kernel)
        for name in machines:
            asm, py, tables, n_pcs, py_bytes = pair_digest(module, build_machine(name))
            n_blocks += n_pcs
            total_bytes += py_bytes
            total_asm.update(f"{kernel} {name} {asm}\n".encode())
            total_py.update(f"{kernel} {name} {py}\n".encode())
            total_tables.update(f"{kernel} {name} {tables}\n".encode())
            print(
                f"{kernel} {name} asm={asm} py={py} tables={tables} py_bytes={py_bytes}",
                flush=True,
            )
    pairs = f"({len(kernels) * len(machines)} pairs, {n_blocks} start pcs)"
    print(f"total asm {total_asm.hexdigest()} {pairs}")
    print(f"total py {total_py.hexdigest()} {pairs}")
    print(f"total tables {total_tables.hexdigest()} {pairs}")
    print(f"total py_bytes {total_bytes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
