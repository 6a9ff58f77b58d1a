"""The native C engine under sanitizers.

The native engine compiles with ``-w``, so nothing else would notice
undefined behaviour or an out-of-bounds access in it.  These tests build
the engine, one translation unit, once with UndefinedBehaviorSanitizer
(in process: the instrumented object pulls in ``libubsan`` itself) and
once with AddressSanitizer (in a subprocess, because ``libasan`` must be
preloaded into the interpreter), run every paper kernel on every TTA and
VLIW preset plus the in-range part of the memory-width programs of
``tests/test_predecode.py`` (every load and store width, misaligned and
up to the last byte of memory) on it, and require every kernel result to
equal its pinned numbers (``tests/sim_pins.json``) and every width
program to end as on the fast engine.  Any sanitizer report aborts the
run (``-fno-sanitize-recover=all``), so a finding fails loudly.

Sanitized objects never mix with normal ones: the compiler flags are
part of the shared-object key, and each test uses a throwaway store.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest

from repro import build_machine, compile_for_machine
from repro.kernels import KERNELS, compile_kernel
from repro.machine import preset_names
from repro.pipeline.store import CACHE_DIR_ENV, NO_CACHE_ENV
from repro.sim import native, run_compiled
from tests.test_predecode import run_width_program, width_program

#: every preset the engine runs (the scalar cores have no C engine)
MACHINES = tuple(name for name in preset_names() if build_machine(name).style.value != "scalar")
#: programs one matrix run runs natively: every (paper kernel, preset)
#: pair plus one width program per core style
N_RUNS = len(MACHINES) * len(KERNELS) + 2

#: the pinned numbers of every (paper kernel, preset) pair
SIM_PINS = Path(__file__).with_name("sim_pins.json")

UBSAN_FLAGS = ("-fsanitize=undefined", "-fno-sanitize-recover=all")
ASAN_FLAGS = ("-fsanitize=address", "-fno-omit-frame-pointer")

CC = native.find_compiler()

requires_cc = pytest.mark.skipif(CC is None, reason="no C compiler on PATH")


def check_matrix() -> tuple[int, int]:
    """Run every (paper kernel, preset) natively with the current
    compiler flags and compare against its pinned numbers, and each
    width program against fast; returns the number of programs run and
    of engine builds."""
    pins = json.loads(SIM_PINS.read_text())
    native._LIB_CACHE.clear()
    builds = []
    compile_so = native._compile_so

    def counting_compile(cc, source):
        builds.append(cc)
        return compile_so(cc, source)

    native._compile_so = counting_compile
    runs = 0
    try:
        for kernel in KERNELS:
            module = compile_kernel(kernel)
            for machine_name in MACHINES:
                compiled = compile_for_machine(module, build_machine(machine_name))
                with warnings.catch_warnings():
                    # a degradation to fast would not run the engine
                    warnings.simplefilter("error", RuntimeWarning)
                    result = run_compiled(compiled, mode="native")
                assert asdict(result) == pins[f"{kernel} {machine_name}"], (
                    machine_name,
                    kernel,
                )
                runs += 1
        for style in ("tta", "vliw"):
            want = run_width_program(width_program(style), "fast")
            assert run_width_program(width_program(style), "native") == want, style
            runs += 1
    finally:
        native._compile_so = compile_so
    return runs, len(builds)


def _flags_link() -> bool:
    """Can the compiler build a shared object with the current flags?"""
    try:
        native._compile_so(CC, "int repro_probe(int a) { return a + 1; }\n")
    except native._CcFailed:
        return False
    return True


@pytest.fixture
def throwaway_store(monkeypatch, tmp_path):
    monkeypatch.delenv(NO_CACHE_ENV, raising=False)
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(native, "_LIB_CACHE", {})
    return tmp_path


@requires_cc
@pytest.mark.slow  # every paper kernel on 11 presets on the UBSan engine
def test_engine_is_ubsan_clean(monkeypatch, throwaway_store):
    monkeypatch.setattr(native, "_CC_FLAGS", native._CC_FLAGS + UBSAN_FLAGS)
    if not _flags_link():
        pytest.skip("compiler cannot build UBSan shared objects")
    assert check_matrix() == (N_RUNS, 1)


def _libasan() -> str | None:
    try:
        out = subprocess.run(
            [CC, "-print-file-name=libasan.so"],
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return out if os.path.isabs(out) and os.path.exists(out) else None


@requires_cc
@pytest.mark.slow  # every paper kernel on 11 presets on the ASan engine
def test_engine_is_asan_clean(throwaway_store):
    libasan = _libasan()
    if libasan is None:
        pytest.skip("libasan not available for the C compiler")
    root = Path(__file__).resolve().parent.parent
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root)!r}]\n"
        "from tests.test_native_sanitize import ASAN_FLAGS, check_matrix, native\n"
        "native._CC_FLAGS += ASAN_FLAGS\n"
        "print('runs %d builds %d' % check_matrix())\n"
    )
    env = {
        **os.environ,
        "LD_PRELOAD": libasan,
        "ASAN_OPTIONS": "detect_leaks=0",
        CACHE_DIR_ENV: str(throwaway_store),
    }
    env.pop(NO_CACHE_ENV, None)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=1200,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert f"runs {N_RUNS} builds 1" in proc.stdout
