"""Digest the generated block code of the turbo, native and scalar engines.

For every (kernel, machine) pair this prints one SHA-256 over the
generated Python block source at every start pc (``None`` where the
block falls back to precise stepping) -- turbo's on a TTA/VLIW preset,
the scalar block engine's on a scalar one -- and over native's C
translation unit together with its block entries, ``pcap`` and ``wcap``
(``native: none`` on a scalar preset, which has no C engine).  A last
``total`` line digests all the pair lines.

A refactor of the code generators (``repro.sim.blockcompile`` /
``repro.sim.cgen``) that is meant to leave their output alone must print
the same digests as its parent: generated code is what the cached shared
objects are keyed on, so any byte of difference is a behaviour change.

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


def pair_digest(module, machine) -> tuple[str, int]:
    """(hex digest, number of start pcs) of one compiled pair."""
    program = compile_for_machine(module, machine).program
    h = hashlib.sha256()
    n_instrs = len(program.instrs)
    for pc in range(n_instrs):
        source = tta_block_source(program, pc)
        h.update(f"{pc}\n{source}\0".encode())
    nat = build_native_program(program)
    if nat is None:
        h.update(b"native: none\0")
    else:
        h.update(nat.source.encode())
        h.update(f"\0{nat.entries!r}\0{nat.pcap}\0{nat.wcap}\0".encode())
    return h.hexdigest(), n_instrs


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
    total = hashlib.sha256()
    n_blocks = 0
    for kernel in kernels:
        module = compile_source(load(kernel), module_name=kernel)
        for name in machines:
            digest, n_pcs = pair_digest(module, build_machine(name))
            n_blocks += n_pcs
            line = f"{kernel} {name} {digest}"
            total.update(line.encode() + b"\n")
            print(line, flush=True)
    print(
        f"total {total.hexdigest()} "
        f"({len(kernels) * len(machines)} pairs, {n_blocks} start pcs)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
