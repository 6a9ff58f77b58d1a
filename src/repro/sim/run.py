"""One-call execution of a compiled program on the right simulator."""

from __future__ import annotations

from repro.backend.compile import CompiledProgram
from repro.machine.machine import MachineStyle
from repro.sim.modes import DEFAULT_MODE, PROFILE_MODES, check_mode
from repro.sim.scalar_sim import ScalarSimulator
from repro.sim.tta_sim import TTASimulator
from repro.sim.vliw_sim import VLIWSimulator


def _make_simulator(
    compiled: CompiledProgram,
    check_connectivity: bool,
    max_cycles: int,
    mode: str,
):
    style = compiled.machine.style
    if style is MachineStyle.TTA:
        sim = TTASimulator(
            compiled.program,
            check_connectivity=check_connectivity,
            max_cycles=max_cycles,
            mode=mode,
        )
    elif style is MachineStyle.VLIW:
        sim = VLIWSimulator(compiled.program, max_cycles=max_cycles, mode=mode)
    else:
        sim = ScalarSimulator(compiled.program, max_cycles=max_cycles)
    sim.preload(compiled.data_init)
    return sim


def run_compiled(
    compiled: CompiledProgram,
    check_connectivity: bool = False,
    max_cycles: int = 500_000_000,
    mode: str = DEFAULT_MODE,
):
    """Simulate *compiled* on its machine; returns the style's result object
    (all results expose ``exit_code`` and ``cycles``).

    ``mode="fast"`` (the default) verifies all structural schedule
    properties once at load time and executes the pre-decoded program;
    ``mode="turbo"`` additionally compiles basic blocks to specialized
    Python code chained through a dispatch table (falling back per block
    to the fast engine where codegen cannot prove the block static);
    ``mode="native"`` compiles the same blocks to C, called via ctypes,
    with the shared object cached in the artifact store (degrading to
    turbo with a one-time warning when no C compiler is available);
    ``mode="checked"`` runs the per-cycle reference engine.
    ``check_connectivity`` additionally routes every executed TTA move in
    checked mode (fast and turbo modes always verify connectivity at
    load time).  The scalar core has a single engine; *mode* is ignored
    there, but it must still be one of :data:`~repro.sim.modes.MODES`.
    All modes are bit- and cycle-exact with each other.
    """
    check_mode(mode)
    return _make_simulator(compiled, check_connectivity, max_cycles, mode).run()


def run_batch(
    compiled: CompiledProgram,
    *,
    lanes: int | None = None,
    inputs=None,
    mode: str = DEFAULT_MODE,
    max_cycles: int = 500_000_000,
) -> list:
    """Run N independent lanes of *compiled*, one after another, and
    return their results in lane order.

    ``inputs`` is a sequence of per-lane preload lists (``(address,
    bytes)`` pairs applied on top of ``compiled.data_init``); ``lanes``
    gives the lane count instead when every lane runs the pristine image
    (default 1).  Each lane gets its own simulator in *mode*; the first
    failing lane's :class:`~repro.sim.errors.SimError` propagates.
    """
    check_mode(mode)
    if inputs is None:
        if lanes is not None and lanes < 0:
            raise ValueError(f"lane count must be >= 0, got {lanes}")
        lane_inputs = [()] * (1 if lanes is None else lanes)
    else:
        lane_inputs = list(inputs)
        if lanes is not None and lanes != len(lane_inputs):
            raise ValueError(
                f"lanes={lanes} disagrees with {len(lane_inputs)} input rows"
            )
    results = []
    for lane_input in lane_inputs:
        sim = _make_simulator(compiled, False, max_cycles, mode)
        for address, blob in lane_input:
            sim.memory.preload(int(address), bytes(blob))
        results.append(sim.run())
    return results


def run_compiled_profiled(
    compiled: CompiledProgram,
    max_cycles: int = 500_000_000,
    mode: str = "turbo",
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
    sim = _make_simulator(compiled, False, max_cycles, mode)
    result = sim.run()
    return result, collect_profile(sim, result)
