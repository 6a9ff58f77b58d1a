"""Cycle-accurate simulators for the three programming models.

All three simulators execute linked :class:`~repro.backend.program.Program`
streams against the same byte-addressed data memory and the shared
32-bit operation semantics of :mod:`repro.isa.semantics`, so results are
directly comparable with the IR interpreter (the test suite enforces
bit-exact agreement).  The TTA simulator additionally *verifies* the
schedule: reading a function-unit result before its latency has elapsed,
oversubscribing a bus, or exceeding a register file's ports is an error,
not a silent wrong answer.
"""

from repro.sim.blockcompile import SIM_ENGINE_VERSION
from repro.sim.errors import SimError
from repro.sim.memory import DataMemory
from repro.sim.predecode import verify_tta_program, verify_vliw_program
from repro.sim.profile import SimProfile, collect_profile, format_profile
from repro.sim.modes import MODES, PROFILE_MODES
from repro.sim.run import run_compiled, run_compiled_profiled
from repro.sim.scalar_sim import ScalarResult, ScalarSimulator
from repro.sim.tta_sim import TTAResult, TTASimulator
from repro.sim.vliw_sim import VLIWResult, VLIWSimulator

__all__ = [
    "DataMemory",
    "MODES",
    "PROFILE_MODES",
    "SIM_ENGINE_VERSION",
    "ScalarResult",
    "ScalarSimulator",
    "SimError",
    "SimProfile",
    "TTAResult",
    "TTASimulator",
    "VLIWResult",
    "VLIWSimulator",
    "collect_profile",
    "format_profile",
    "run_compiled",
    "run_compiled_profiled",
    "verify_tta_program",
    "verify_vliw_program",
]
