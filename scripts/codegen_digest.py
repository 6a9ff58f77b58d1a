"""Digest the compiled programs, the scalar block engine's generated
code and the native engine's encoded tables.

For every (kernel, machine) pair this prints SHA-256 digests: ``asm``
over the compiled program itself (its ``format_program`` listing, data
image and symbol table); on a scalar preset ``py`` over the scalar block
engine's generated Python source at every start pc (``None`` where the
interpreter steps that pc), with the source's size in bytes; and on a
TTA or VLIW preset ``tables`` over the program as the native engine
reads it (``repro.sim.cgen.build_native_program``: its ``prog[]``
table, register layout, immediate pool, FU order, ``pcap`` and
``wcap``).  A TTA or VLIW preset has no generated Python, and a scalar
one no C engine (``native: none``).  The last lines digest all the
pairs' ``asm``, ``py`` and ``tables`` digests and sum the Python bytes.

A backend change that is meant to leave every program alone must print
the same ``asm`` digests as its parent.  A refactor of the scalar block
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
Against a tree whose script also digested Python for TTA/VLIW presets,
compare ``total py`` with ``--machines mblaze-3,mblaze-5``.

``--pin`` instead rewrites the two pin files of every (paper kernel,
preset) pair and names each pair and field it changed:
``tests/asm_pins.json``, the ``asm`` digest that ``tests/test_asm_pins.py``
checks, and ``tests/sim_pins.json``, the simulated numbers (exit code,
cycles and every counter of the result, on the default engine) that
``tests/test_sim_pins.py`` checks.  Re-pin only for a change that is
meant to change programs or simulated numbers, and record it in
CHANGES.md::

    PYTHONPATH=src python scripts/codegen_digest.py --pin
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from repro.backend.asmprint import format_program
from repro.backend.compile import compile_for_machine
from repro.frontend import compile_source
from repro.kernels import KERNELS, catalog, load
from repro.machine import build_machine, preset_names
from repro.sim.blockcompile import scalar_block_source
from repro.sim import run_compiled
from repro.sim.cgen import build_native_program


def asm_digest(compiled) -> str:
    """SHA-256 over a compiled program's listing, data image and symbol
    table: equal digests mean the backend produced the same program."""
    digest = hashlib.sha256(format_program(compiled.program).encode())
    digest.update(f"\0{compiled.data_init!r}\0{compiled.symbols!r}".encode())
    return digest.hexdigest()


def pair_digest(module, machine) -> tuple[str, str | None, str, int, int]:
    """(program digest, Python digest or ``None`` on a TTA/VLIW preset,
    tables digest, number of start pcs, Python source bytes) of one
    compiled pair."""
    compiled = compile_for_machine(module, machine)
    program = compiled.program
    py, tables = hashlib.sha256(), hashlib.sha256()
    n_instrs = len(program.instrs)
    py_bytes = 0
    scalar = program.style == "scalar"
    for pc in range(n_instrs if scalar else 0):
        source = scalar_block_source(program, pc)
        py.update(f"{pc}\n{source}\0".encode())
        py_bytes += len(source or "")
    nat = build_native_program(program)
    if nat is None:
        tables.update(b"native: none\0")
    else:
        tables.update(nat.prog.tobytes())
        layout = (nat.rf_layout, nat.n_values, nat.consts, nat.fu_names, nat.pcap, nat.wcap)
        tables.update(f"\0{layout!r}\0".encode())
    digest = py.hexdigest() if scalar else None
    return asm_digest(compiled), digest, tables.hexdigest(), n_instrs, py_bytes


def _names(spec: str | None, known: tuple[str, ...], what: str) -> list[str]:
    if spec is None:
        return list(known)
    names = [n for n in spec.split(",") if n]
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(f"error: unknown {what} {', '.join(unknown)}")
    return names


def sim_numbers(compiled) -> dict:
    """Exit code, cycles and every counter of one run of *compiled* on
    the default engine."""
    return asdict(run_compiled(compiled))


_TESTS = Path(__file__).resolve().parents[1] / "tests"
#: the pinned ``asm`` digests of the paper kernels on every preset
PINS = _TESTS / "asm_pins.json"
#: the pinned simulated numbers of the same pairs
SIM_PINS = _TESTS / "sim_pins.json"


def paper_pairs():
    """``("kernel preset", compiled program)`` of every paper kernel on
    every preset, kernel by kernel."""
    for kernel in KERNELS:
        module = compile_source(load(kernel), module_name=kernel)
        for name in preset_names():
            yield f"{kernel} {name}", compile_for_machine(module, build_machine(name))


def pin() -> int:
    """Rewrite :data:`PINS` and :data:`SIM_PINS` and name every pair and
    field that changed."""
    old_asm = json.loads(PINS.read_text()) if PINS.exists() else {}
    old_sim = json.loads(SIM_PINS.read_text()) if SIM_PINS.exists() else {}
    pins, sim_pins = {}, {}
    for key, compiled in paper_pairs():
        pins[key] = asm_digest(compiled)
        if old_asm.get(key) != pins[key]:
            print(f"re-pinned {key} asm: {old_asm.get(key)} -> {pins[key]}")
        sim_pins[key] = sim_numbers(compiled)
        old = old_sim.get(key, {})
        for field, value in sim_pins[key].items():
            if old.get(field) != value:
                print(f"re-pinned {key} {field}: {old.get(field)} -> {value}")
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    SIM_PINS.write_text(json.dumps(sim_pins, indent=1) + "\n")
    print(f"{len(pins)} pairs pinned in {PINS.name} and {SIM_PINS.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernels", help="comma-separated kernel names")
    parser.add_argument("--machines", help="comma-separated presets")
    parser.add_argument(
        "--pin",
        action="store_true",
        help="re-pin the paper kernels' asm digests and simulated numbers and exit",
    )
    args = parser.parse_args(argv)
    if args.pin:
        return pin()
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
            if py is not None:
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
