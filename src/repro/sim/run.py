"""One-call execution of a compiled program on the right simulator."""

from __future__ import annotations

from repro.backend.compile import CompiledProgram
from repro.machine.machine import MachineStyle
from repro.sim.modes import DEFAULT_MODE, PROFILE_MODES, check_mode
from repro.sim.scalar_sim import ScalarSimulator
from repro.sim.tta_sim import TTASimulator
from repro.sim.vliw_sim import VLIWSimulator


def _make_simulator(compiled: CompiledProgram, max_cycles: int, mode: str):
    style = compiled.machine.style
    if style is MachineStyle.TTA:
        sim = TTASimulator(compiled.program, max_cycles=max_cycles, mode=mode)
    elif style is MachineStyle.VLIW:
        sim = VLIWSimulator(compiled.program, max_cycles=max_cycles, mode=mode)
    else:
        sim = ScalarSimulator(compiled.program, max_cycles=max_cycles, mode=mode)
    sim.preload(compiled.data_init)
    return sim


def run_compiled(
    compiled: CompiledProgram,
    max_cycles: int = 500_000_000,
    mode: str = DEFAULT_MODE,
):
    """Simulate *compiled* on its machine; returns the style's result object
    (all results expose ``exit_code`` and ``cycles``).

    ``mode="fast"`` verifies all structural schedule properties, bus
    routing included, once at load time and executes the pre-decoded
    program; ``mode="turbo"`` additionally compiles basic blocks to
    specialized Python code chained through a dispatch table (falling
    back per block to the fast engine where codegen cannot prove the
    block static); ``mode="native"`` compiles the same blocks to C,
    called via ctypes, with the shared object cached in the artifact
    store (degrading to turbo with a one-time warning when no C compiler
    is available); ``mode="checked"`` runs the per-cycle reference
    engine, which re-verifies every structural property, bus routing
    included, on every executed cycle.  On the scalar core ``checked``
    is the reference interpreter, and ``fast``, ``turbo`` and ``native``
    all run its block engine: straight-line blocks compiled to Python
    (there is no C engine for the scalar core), stepped through the
    interpreter wherever a block cannot be proven static.  All modes are
    bit- and cycle-exact with each other.  *mode* defaults to
    :data:`~repro.sim.modes.DEFAULT_MODE`.
    """
    check_mode(mode)
    return _make_simulator(compiled, max_cycles, mode).run()


def run_compiled_profiled(
    compiled: CompiledProgram,
    max_cycles: int = 500_000_000,
    mode: str = DEFAULT_MODE,
):
    """Simulate *compiled* and return ``(result, SimProfile)``.

    Profiling rides on the hit vectors the fast/turbo/native engines
    already maintain, so it adds no per-cycle overhead; it is
    unavailable for the checked engine (no hit vector) and the scalar
    core.
    """
    from repro.sim.profile import collect_profile

    if compiled.machine.style is MachineStyle.SCALAR:
        raise ValueError("profiling supports TTA and VLIW cores only")
    if mode not in PROFILE_MODES:
        raise ValueError(
            "profiling requires "
            + " or ".join(f"mode={known!r}" for known in PROFILE_MODES)
            + f", not {mode!r}"
        )
    sim = _make_simulator(compiled, max_cycles, mode)
    result = sim.run()
    return result, collect_profile(sim, result)
