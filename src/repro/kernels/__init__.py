"""The benchmark workloads (CHStone-like kernels in MiniC).

Eight self-checking integer kernels mirroring the CHStone programs the
paper evaluates (the two SoftFloat cases are excluded there too), plus
extra hand-written workloads (``fft``) that are *not* part of the
paper's benchmark set.  Every kernel's ``main`` returns 0 on success
and a positive error code identifying the failed check, so correctness
is asserted on every architecture in every run.  See each ``.mc``
header for the exact relationship to its CHStone counterpart and any
substitution made.

Beyond the built-in ``.mc`` files, promoted fuzz kernels (see
``repro.corpus``) are addressable through :func:`load` and
:func:`catalog`: any kernel promoted into the corpus directory becomes
a first-class workload for ``repro sweep`` / ``repro explore`` /
``repro serve``.  ``KERNELS`` itself stays the paper's eight — the
eval layer's published-number comparisons depend on exactly that set.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

from repro.frontend import compile_source
from repro.ir.module import Module

#: Kernel names in the paper's presentation order.
KERNELS: tuple[str, ...] = (
    "adpcm",
    "aes",
    "blowfish",
    "gsm",
    "jpeg",
    "mips",
    "motion",
    "sha",
)

#: Built-in workloads outside the paper's benchmark set.
EXTRA_KERNELS: tuple[str, ...] = ("fft",)

#: Every built-in kernel (paper set + extras).
ALL_KERNELS: tuple[str, ...] = KERNELS + EXTRA_KERNELS

_KERNEL_DIR = Path(__file__).parent

#: Environment override for the promoted-corpus directory.
PROMOTED_ENV = "REPRO_PROMOTED_CORPUS"


@lru_cache(maxsize=1)
def _default_promoted_dir() -> Path:
    return Path(__file__).resolve().parents[3] / "fuzz" / "promoted"


def promoted_dir() -> Path:
    """Directory holding promoted fuzz kernels (``<name>.mc`` files).

    ``$REPRO_PROMOTED_CORPUS`` is read on every call (tests point it at
    temporary corpora); the default location is resolved once.
    """
    env = os.environ.get(PROMOTED_ENV)
    if env:
        return Path(env)
    return _default_promoted_dir()


def promoted_names() -> tuple[str, ...]:
    """Sorted names of the promoted corpus kernels (file stems; no
    source is read)."""
    root = promoted_dir()
    if not root.is_dir():
        return ()
    return tuple(sorted(path.stem for path in root.glob("*.mc")))


def catalog(include_promoted: bool = True) -> tuple[str, ...]:
    """Every addressable kernel name: built-ins, then promoted."""
    names = list(ALL_KERNELS)
    if include_promoted:
        names.extend(n for n in promoted_names() if n not in ALL_KERNELS)
    return tuple(names)


def kernel_source(name: str) -> str:
    """MiniC source text of the named built-in kernel."""
    if name not in ALL_KERNELS:
        raise KeyError(f"unknown kernel {name!r}; known: {ALL_KERNELS}")
    return (_KERNEL_DIR / f"{name}.mc").read_text()


def expected_exit(name: str) -> int:
    """Exit code the kernel's self-check is expected to produce.

    Built-in kernels return 0 on success; promoted fuzz kernels
    checksum their observable state into the exit code, and the value
    the oracle blessed at promotion time is carried in the kernel's
    golden sidecar (``<name>.golden.json``).  A promoted kernel whose
    golden is missing/unreadable falls back to 0 — which fails its
    sweep loudly rather than silently accepting any exit.
    """
    if name in ALL_KERNELS:
        return 0
    golden = promoted_dir() / f"{name}.golden.json"
    try:
        payload = json.loads(golden.read_text())
        return int(payload["expected_exit"])
    except (OSError, ValueError, KeyError, TypeError):
        return 0


def _promoted_file(name: str) -> Path | None:
    """``<promoted_dir>/<name>.mc``, or ``None`` when *name* is not one
    plain file name (a path separator, ``..`` or NUL in it), so no name
    reaches a file outside the corpus directory."""
    if not name or any(part in name for part in ("/", os.sep, "..", "\0")):
        return None
    return promoted_dir() / f"{name}.mc"


def load(name: str) -> str:
    """MiniC source of any addressable kernel (built-in or promoted).

    Reads one file: the built-in's package file, or the promoted
    kernel's ``.mc``.  Raises ``KeyError`` when a promoted kernel
    shadows a built-in name (the corpus must not silently override the
    benchmark set), and when the kernel is unknown, listing both
    built-in and promoted names (the only case that lists the corpus).
    """
    path = _promoted_file(name)
    if name in ALL_KERNELS:
        if path.is_file():
            raise KeyError(
                f"ambiguous kernel {name!r}: a promoted corpus kernel in "
                f"{promoted_dir()} shadows the built-in; rename the "
                f"promoted kernel"
            )
        return kernel_source(name)
    if path is not None:
        try:
            return path.read_text()
        except (FileNotFoundError, NotADirectoryError):
            pass
    known = ALL_KERNELS + tuple(n for n in promoted_names() if n not in ALL_KERNELS)
    raise KeyError(f"unknown kernel {name!r}; known: {known}")


@lru_cache(maxsize=None)
def compile_kernel(name: str, optimize: bool = True) -> Module:
    """Compile the named built-in kernel to an IR module (cached)."""
    return compile_source(kernel_source(name), module_name=name, optimize=optimize)
