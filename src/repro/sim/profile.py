"""Post-run simulation profiling: hot blocks and trigger histograms.

The fast, turbo and native engines already maintain a per-pc
execution-count vector to reconstruct the architectural statistics
(moves, triggers, port traffic), and the turbo/native engines already
count block executions to expand that vector -- so profiling is
**zero overhead when disabled**:
:func:`collect_profile` only *reads* state the engines leave behind
(``sim._last_hits`` / ``sim._last_blocks`` / ``sim._last_engine``) and
derives everything else from the cached static decode.

Per-block execution counts show where the cycles go (and justify which
blocks the turbo codegen should care about); per-opcode trigger
histograms show what the scheduler actually emits on the hot path --
input for future scheduler work.

Exposed on the CLI as ``repro run FILE.mc --profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.machine import MachineStyle
from repro.sim.modes import PROFILE_MODES


@dataclass(frozen=True)
class BlockProfile:
    """One profiled region: either a turbo/native-compiled basic block
    or a single interpreted pc (length 1) on the fast/fallback path."""

    start: int
    length: int
    executions: int
    #: executed instruction slots contributed (executions * length)
    instructions: int


@dataclass
class SimProfile:
    engine: str
    cycles: int
    #: executed instructions (== occupied cycles; TTA/VLIW issue 1/cycle)
    instructions: int
    #: per-pc execution counts, len == program length
    pc_hits: list[int] = field(repr=False)
    #: hottest regions first
    blocks: list[BlockProfile] = field(default_factory=list)
    #: opcode -> dynamic trigger/op executions, hottest first
    opcode_counts: dict[str, int] = field(default_factory=dict)


def collect_profile(sim, result) -> SimProfile:
    """Build a :class:`SimProfile` from a finished fast/turbo/native run.

    Raises :class:`ValueError` if *sim* has not run yet or ran with the
    checked engine (which keeps no hit vector).
    """
    from repro import obs

    hits = getattr(sim, "_last_hits", None)
    engine = getattr(sim, "_last_engine", None)
    if hits is None or engine is None:
        raise ValueError(
            "no profile data: run the simulator with "
            + " or ".join(f"mode={mode!r}" for mode in PROFILE_MODES)
            + " first (the checked engine keeps no hit vector)"
        )
    with obs.span("sim.profile.collect", engine=engine):
        return _collect(sim, result, hits, engine)


def _collect(sim, result, hits, engine) -> SimProfile:
    program = sim.program
    style = program.machine.style

    # opcode histogram from the cached static decode x the hit vector
    opcode_counts: dict[str, int] = {}
    if style is MachineStyle.TTA:
        from repro.sim.predecode import static_decode_tta

        for count, (_, _, trig_moves, _, _) in zip(hits, static_decode_tta(program)):
            if count:
                for _src, _fu, opcode in trig_moves:
                    opcode_counts[opcode] = opcode_counts.get(opcode, 0) + count
    elif style is MachineStyle.VLIW:
        from repro.sim.predecode import static_decode_vliw

        for count, bundle in zip(hits, static_decode_vliw(program)):
            if count:
                for op in bundle:
                    opcode_counts[op[0]] = opcode_counts.get(op[0], 0) + count
    else:  # pragma: no cover - engines never set _last_hits for scalar
        raise ValueError("profiling supports TTA and VLIW cores only")
    opcode_counts = dict(
        sorted(opcode_counts.items(), key=lambda item: (-item[1], item[0]))
    )

    raw_blocks = getattr(sim, "_last_blocks", None)
    blocks: list[BlockProfile] = []
    if raw_blocks:
        covered = set()
        for start, length, executions in raw_blocks:
            if executions:
                blocks.append(
                    BlockProfile(start, length, executions, executions * length)
                )
            covered.update(range(start, start + length))
        # pcs only ever executed by the interpreted fallback path
        for pc, count in enumerate(hits):
            if count and pc not in covered:
                blocks.append(BlockProfile(pc, 1, count, count))
    else:
        for pc, count in enumerate(hits):
            if count:
                blocks.append(BlockProfile(pc, 1, count, count))
    blocks.sort(key=lambda b: (-b.instructions, b.start))

    return SimProfile(
        engine=engine,
        cycles=result.cycles,
        instructions=sum(hits),
        pc_hits=list(hits),
        blocks=blocks,
        opcode_counts=opcode_counts,
    )


def format_profile(profile: SimProfile, top: int = 10) -> str:
    """Human-readable hot-block/opcode report for the CLI."""
    lines = [
        f"engine         : {profile.engine}",
        f"cycles         : {profile.cycles}",
        f"instructions   : {profile.instructions} "
        f"({100.0 * profile.instructions / max(profile.cycles, 1):.1f}% issue slots)",
        "",
        f"hot blocks (top {min(top, len(profile.blocks))} of {len(profile.blocks)}):",
        f"  {'pc range':>12s} {'len':>4s} {'execs':>10s} {'instrs':>10s} {'share':>7s}",
    ]
    total = max(profile.instructions, 1)
    for block in profile.blocks[:top]:
        span = (
            f"{block.start}"
            if block.length == 1
            else f"{block.start}-{block.start + block.length - 1}"
        )
        lines.append(
            f"  {span:>12s} {block.length:4d} {block.executions:10d} "
            f"{block.instructions:10d} {100.0 * block.instructions / total:6.1f}%"
        )
    lines.append("")
    lines.append("trigger histogram:")
    op_total = max(sum(profile.opcode_counts.values()), 1)
    for opcode, count in list(profile.opcode_counts.items())[:top]:
        lines.append(
            f"  {opcode:8s} {count:10d} {100.0 * count / op_total:6.1f}%"
        )
    return "\n".join(lines)
