"""The compiled programs of the paper's kernels stay byte-identical.

``tests/asm_pins.json`` holds the ``asm`` digest (listing, data image and
symbol table) that ``scripts/codegen_digest.py`` prints for every (paper
kernel, preset) pair.  A backend change that moves one schedule by
one move fails here and names the pair.  Re-pin only for a change meant
to change programs (``scripts/codegen_digest.py --pin``), and record it
in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

from tests.conftest import load_codegen_digest

PINS = Path(__file__).with_name("asm_pins.json")


def test_paper_programs_match_their_pins(paper_programs):
    pins = json.loads(PINS.read_text())
    assert sorted(pins) == sorted(paper_programs), "re-pin: the pinned pair set changed"
    asm_digest = load_codegen_digest().asm_digest
    changed = [
        pair.replace(" ", " on ")
        for pair, compiled in paper_programs.items()
        if asm_digest(compiled) != pins[pair]
    ]
    assert not changed, f"compiled program changed: {', '.join(changed)}"
