"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.machine import build_machine, preset_names

#: machines that exercise every scheduler/simulator style, kept small for
#: tests that sweep (the full 13-point sweep lives in the benchmarks)
CORE_MACHINES = ("mblaze-3", "mblaze-5", "m-tta-1", "m-vliw-2", "m-tta-2", "bm-tta-2", "m-vliw-3", "p-tta-3")


@pytest.fixture(scope="session")
def all_machine_names():
    return preset_names()


@pytest.fixture(scope="session", params=CORE_MACHINES)
def core_machine(request):
    return build_machine(request.param)


def load_codegen_digest():
    """``scripts/codegen_digest.py`` as a module (it computes and pins the
    paper pairs' asm digests and simulated numbers)."""
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parents[1] / "scripts" / "codegen_digest.py"
    spec = importlib.util.spec_from_file_location("codegen_digest", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def paper_programs():
    """Every (paper kernel, preset) pair compiled once per session, as
    ``{"kernel preset": CompiledProgram}`` (read-only: the pin tests
    digest and run them)."""
    return dict(load_codegen_digest().paper_pairs())
