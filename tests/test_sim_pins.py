"""The simulated numbers of the paper's kernels stay the same.

``tests/sim_pins.json`` holds, for every (paper kernel, preset) pair, the
exit code, cycles and every counter of one run on the default engine
(TTA: ``moves``, ``triggers``, ``rf_reads``, ``bypass_reads``,
``rf_writes``; VLIW: ``bundles``, ``ops``; scalar: ``instructions``,
``loads``, ``stores``, ``taken_branches``).  ``tests/test_asm_pins.py``
pins the programs; this pins what the simulators make of them, so a
change to a simulator that moves one cycle count fails here and names
the pair and the field.  The numbers are recomputed with the artifact
store disabled, so no stored result or engine can stand in for a run.
Re-pin only for a change meant to change programs or simulated numbers
(``scripts/codegen_digest.py --pin``), and record it in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.pipeline.store import NO_CACHE_ENV
from tests.conftest import load_codegen_digest

PINS = Path(__file__).with_name("sim_pins.json")


def test_paper_numbers_match_their_pins(paper_programs, monkeypatch):
    monkeypatch.setenv(NO_CACHE_ENV, "1")
    pins = json.loads(PINS.read_text())
    assert sorted(pins) == sorted(paper_programs), "re-pin: the pinned pair set changed"
    sim_numbers = load_codegen_digest().sim_numbers
    drift = []
    for pair, compiled in paper_programs.items():
        want = pins[pair]
        got = sim_numbers(compiled)
        for field in sorted(set(want) | set(got)):
            if want.get(field) != got.get(field):
                drift.append(
                    f"{pair.replace(' ', ' on ')}: {field}: pinned "
                    f"{want.get(field)}, observed {got.get(field)}"
                )
    assert not drift, "simulated numbers changed:\n" + "\n".join(drift)
