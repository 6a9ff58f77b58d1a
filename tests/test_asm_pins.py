"""The compiled programs of the paper's kernels stay byte-identical.

``tests/asm_pins.json`` holds the ``asm`` digest (listing, data image and
symbol table) that ``scripts/codegen_digest.py`` prints for every (paper
kernel, preset) pair.  A backend change that moves one schedule by
one move fails here and names the pair.  Re-pin only for a change meant
to change programs (``scripts/codegen_digest.py --pin``), and record it
in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro import build_machine, compile_for_machine, compile_source
from repro.kernels import KERNELS, load
from repro.machine import preset_names

PINS = Path(__file__).with_name("asm_pins.json")
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "codegen_digest.py"


def _asm_digest():
    spec = importlib.util.spec_from_file_location("codegen_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.asm_digest


def test_paper_programs_match_their_pins():
    pins = json.loads(PINS.read_text())
    pairs = [f"{kernel} {name}" for kernel in KERNELS for name in preset_names()]
    assert sorted(pins) == sorted(pairs), "re-pin: the pinned pair set changed"
    asm_digest = _asm_digest()
    changed = []
    for kernel in KERNELS:
        module = compile_source(load(kernel), module_name=kernel)
        for name in preset_names():
            digest = asm_digest(compile_for_machine(module, build_machine(name)))
            if digest != pins[f"{kernel} {name}"]:
                changed.append(f"{kernel} on {name}")
    assert not changed, f"compiled program changed: {', '.join(changed)}"
