"""The generated C under sanitizers.

The native engine compiles with ``-w``, so nothing else would notice
undefined behaviour or an out-of-bounds access in the emitted code.
These tests rebuild the shared objects with UndefinedBehaviorSanitizer
(in process: the instrumented object pulls in ``libubsan`` itself) and
with AddressSanitizer (in a subprocess, because ``libasan`` must be
preloaded into the interpreter), run a small kernel x machine matrix
covering both core styles plus the in-range part of the memory-width
programs of ``tests/test_predecode.py`` (every load and store width,
misaligned and up to the last byte of memory), and require every result
to stay byte-identical to the turbo engine.  Any sanitizer report aborts
the run (``-fno-sanitize-recover=all``), so a finding fails loudly.

Sanitized objects never mix with normal ones: the compiler flags are
part of the shared-object key, and each test uses a throwaway store.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest

from repro import build_machine, compile_for_machine
from repro.kernels import compile_kernel
from repro.pipeline.store import CACHE_DIR_ENV, NO_CACHE_ENV
from repro.sim import native, run_compiled
from tests.test_predecode import run_width_program, width_program

MACHINES = ("m-tta-2", "bm-tta-3", "m-vliw-2")
KERNELS = ("fft", "mips", "aes")
#: shared objects one matrix run builds: every pair plus one width
#: program per core style
N_OBJECTS = len(MACHINES) * len(KERNELS) + 2

UBSAN_FLAGS = ("-fsanitize=undefined", "-fno-sanitize-recover=all")
ASAN_FLAGS = ("-fsanitize=address", "-fno-omit-frame-pointer")

CC = native.find_compiler()

requires_cc = pytest.mark.skipif(CC is None, reason="no C compiler on PATH")


def check_matrix() -> int:
    """Build every (machine, kernel) with the current compiler flags and
    compare native against turbo; returns the number of programs run."""
    native._LIB_CACHE.clear()
    compiled_objects = 0
    for machine_name in MACHINES:
        for kernel in KERNELS:
            compiled = compile_for_machine(
                compile_kernel(kernel), build_machine(machine_name)
            )
            reference = run_compiled(compiled, mode="turbo")
            with warnings.catch_warnings():
                # a degradation to turbo would compare turbo with itself
                warnings.simplefilter("error", RuntimeWarning)
                result = run_compiled(compiled, mode="native")
            assert asdict(result) == asdict(reference), (machine_name, kernel)
            compiled_objects += 1
    for style in ("tta", "vliw"):
        want = run_width_program(width_program(style), "turbo")
        assert run_width_program(width_program(style), "native") == want, style
        compiled_objects += 1
    return compiled_objects


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
@pytest.mark.slow  # compiles 11 instrumented shared objects
def test_generated_c_is_ubsan_clean(monkeypatch, throwaway_store):
    monkeypatch.setattr(native, "_CC_FLAGS", native._CC_FLAGS + UBSAN_FLAGS)
    if not _flags_link():
        pytest.skip("compiler cannot build UBSan shared objects")
    assert check_matrix() == N_OBJECTS


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
@pytest.mark.slow  # compiles 11 instrumented shared objects in a subprocess
def test_generated_c_is_asan_clean(throwaway_store):
    libasan = _libasan()
    if libasan is None:
        pytest.skip("libasan not available for the C compiler")
    root = Path(__file__).resolve().parent.parent
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root)!r}]\n"
        "from tests.test_native_sanitize import ASAN_FLAGS, check_matrix, native\n"
        "native._CC_FLAGS += ASAN_FLAGS\n"
        "print('compiled', check_matrix())\n"
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
    assert f"compiled {N_OBJECTS}" in proc.stdout
