"""Digest the generated block code of the turbo, native and scalar engines.

For every (kernel, machine) pair this prints two SHA-256 digests: ``py``
over the generated Python block source at every start pc (``None``
where the block falls back to precise stepping) -- turbo's on a
TTA/VLIW preset, the scalar block engine's on a scalar one -- and ``c``
over native's C translation unit together with its block entries,
``pcap`` and ``wcap`` (``native: none`` on a scalar preset, which has
no C engine), plus the Python source's size in bytes.  The last lines
digest all the pairs' ``py`` and ``c`` digests and sum the Python bytes
(cold turbo cost grows with them).

A refactor of the code generators (``repro.sim.blockcompile`` /
``repro.sim.cgen``) that is meant to leave their output alone must print
the same digests as its parent, and a change to one printer the same
digest of the other: the generated C is what the cached shared objects
are keyed on, so any byte of difference there re-keys them.

Run from the repository root (point ``PYTHONPATH`` at another checkout's
``src`` to digest that tree instead)::

    PYTHONPATH=src python scripts/codegen_digest.py
    PYTHONPATH=src python scripts/codegen_digest.py --kernels mips,aes \\
        --machines m-tta-2,m-vliw-2

Defaults: every catalogue kernel (built-ins and promoted) x every preset.
A tree without scalar blocks digests only the TTA/VLIW presets; compare
the two with ``--machines`` naming those.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from repro.backend.compile import compile_for_machine
from repro.frontend import compile_source
from repro.kernels import catalog, load
from repro.machine import build_machine, preset_names
from repro.sim.blockcompile import tta_block_source
from repro.sim.cgen import build_native_program


def pair_digest(module, machine) -> tuple[str, str, int, int]:
    """(Python digest, C digest, number of start pcs, Python source
    bytes) of one compiled pair."""
    program = compile_for_machine(module, machine).program
    py, c = hashlib.sha256(), hashlib.sha256()
    n_instrs = len(program.instrs)
    py_bytes = 0
    for pc in range(n_instrs):
        source = tta_block_source(program, pc)
        py.update(f"{pc}\n{source}\0".encode())
        py_bytes += len(source or "")
    nat = build_native_program(program)
    if nat is None:
        c.update(b"native: none\0")
    else:
        c.update(nat.source.encode())
        c.update(f"\0{nat.entries!r}\0{nat.pcap}\0{nat.wcap}\0".encode())
    return py.hexdigest(), c.hexdigest(), n_instrs, py_bytes


def _names(spec: str | None, known: tuple[str, ...], what: str) -> list[str]:
    if spec is None:
        return list(known)
    names = [n for n in spec.split(",") if n]
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(f"error: unknown {what} {', '.join(unknown)}")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernels", help="comma-separated kernel names")
    parser.add_argument("--machines", help="comma-separated presets")
    args = parser.parse_args(argv)
    kernels = _names(args.kernels, catalog(), "kernel")
    machines = _names(args.machines, preset_names(), "machine")
    total_py, total_c = hashlib.sha256(), hashlib.sha256()
    n_blocks = total_bytes = 0
    for kernel in kernels:
        module = compile_source(load(kernel), module_name=kernel)
        for name in machines:
            py, c, n_pcs, py_bytes = pair_digest(module, build_machine(name))
            n_blocks += n_pcs
            total_bytes += py_bytes
            total_py.update(f"{kernel} {name} {py}\n".encode())
            total_c.update(f"{kernel} {name} {c}\n".encode())
            print(f"{kernel} {name} py={py} c={c} py_bytes={py_bytes}", flush=True)
    pairs = f"({len(kernels) * len(machines)} pairs, {n_blocks} start pcs)"
    print(f"total py {total_py.hexdigest()} {pairs}")
    print(f"total c {total_c.hexdigest()} {pairs}")
    print(f"total py_bytes {total_bytes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
