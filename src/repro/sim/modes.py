"""The simulation engine names, defined once.

Every entry point that takes an engine mode (the simulators, profiling,
the CLI, the service, fuzzing and golden replay) validates against these
tuples.  A leaf module so the simulators can import it
without an import cycle through :mod:`repro.sim.run`.
"""

from __future__ import annotations

#: every engine name, in cross-engine comparison order.  Three engines
#: run them on the TTA and VLIW cores: ``checked`` (the per-cycle
#: reference), ``fast`` (the pre-decoded Python stepper; ``turbo`` is a
#: name for it, kept because stored goldens and clients name it) and
#: ``native`` (the C engine, which degrades to fast without a C
#: compiler).  The scalar core has two: ``checked`` is its interpreter,
#: and ``fast``, ``turbo`` and ``native`` all run its Python block engine
#: (it has no C engine)
MODES = ("checked", "fast", "turbo", "native")

#: the engine every entry point uses when none is named; the only
#: default-engine literal in the package
DEFAULT_MODE = "native"

#: the engines that keep the hit vectors profiling reads
PROFILE_MODES = ("fast", "turbo", "native")


def check_mode(mode: str) -> None:
    """Raise ``ValueError`` naming *mode* and the known names unless it is one."""
    if mode not in MODES:
        raise ValueError(f"unknown simulation mode {mode!r}; known: {', '.join(MODES)}")
