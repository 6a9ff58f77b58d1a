"""Load-time program verification and pre-decoded fast simulation.

The reference simulators (:mod:`repro.sim.tta_sim`,
:mod:`repro.sim.vliw_sim`) re-validate bus exclusivity, register-file
port limits and connectivity on *every executed cycle* and dispatch each
move/operation by inspecting tagged tuples and strings.  All of those
properties are static: they depend only on the instruction word, never
on machine state.  Following the split TCE/OpenASIP makes between the
verifying ``ttasim`` and its compiled simulation engine, this module

1. runs **all structural checks once per static instruction** at load
   time (:func:`verify_tta_program` / :func:`verify_vliw_program`):
   bus double-use *including long-immediate ``extra_slots``
   reservations*, RF read/write port limits, full connectivity routing,
   resolved immediates, known opcodes and in-range register indices; and

2. **pre-decodes** every instruction into flat tuples of source
   samplers, port writers and trigger thunks that a lean inner loop
   consumes with no per-cycle string comparison, no dictionary lookups
   on hot state and no re-verification; and

3. holds the one stepping driver per core style (:func:`run_tta` /
   :func:`run_vliw`) that the fast, turbo and native engines share.
   They differ only in their *block source*
   (:func:`block_source_for`): fast has none and steps every cycle,
   turbo and native run compiled basic blocks where the driver's gate
   allows and step precisely everywhere else.

Dynamic properties remain checked in these engines because they are
data-dependent: reading an FU result before it is due, non-monotonic
result completion, overlapping control transfers, PC range and the
cycle budget all still raise :class:`~repro.sim.errors.SimError`.

The static stage is cached on ``Program.predecode_cache`` so repeated
simulations of one linked program (sweeps, differential tests) verify
and decode only once.  The binding stage runs per simulator instance,
lazily on a pc's first precise step, because it closes over that
instance's mutable state (register files, function units, data memory).
"""

from __future__ import annotations

from heapq import heappop as _heappop

from repro import obs
from repro.backend.abi import return_value_reg
from repro.backend.mop import Imm, PhysReg
from repro.backend.program import Program
from repro.isa.operations import OPS, OpKind
from repro.isa.semantics import MASK32, sext8, sext16
from repro.sim.errors import SimError

# ---------------------------------------------------------------------------
# pre-bound ALU semantics
# ---------------------------------------------------------------------------
#
# ``isa.semantics.evaluate`` re-resolves the opcode through an if-chain on
# every call.  The fast engines bind one small function per opcode at decode
# time instead.  ``tests/test_predecode.py`` asserts bit-exact agreement
# with ``evaluate`` for every operation, so the two cannot drift silently.
# All simulator-resident values are already wrapped to [0, 2**32); these
# functions preserve that invariant.


def _gt(a: int, b: int) -> int:
    # flipping the sign bit orders two's-complement words as unsigned ones
    return 1 if a ^ 0x80000000 > b ^ 0x80000000 else 0


def _shr(a: int, b: int) -> int:
    return ((a ^ 0x80000000) - 0x80000000 >> (b & 31)) & MASK32


ALU_FUNCS: dict[str, object] = {
    "add": lambda a, b: (a + b) & MASK32,
    "sub": lambda a, b: (a - b) & MASK32,
    "mul": lambda a, b: (a * b) & MASK32,
    "and": lambda a, b: a & b,
    "ior": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "eq": lambda a, b: 1 if a == b else 0,
    "gt": _gt,
    "gtu": lambda a, b: 1 if a > b else 0,
    "shl": lambda a, b: (a << (b & 31)) & MASK32,
    "shru": lambda a, b: a >> (b & 31),
    "shr": _shr,
    "sxhw": sext16,
    "sxqw": sext8,
}

#: control-transfer operations of both core styles (``halt`` is not one)
_CONTROL_OPS = frozenset({"jump", "call", "ret", "cjump", "cjumpz"})

#: cache keys on ``Program.predecode_cache``
_TTA_KEY = "tta-static"
_VLIW_KEY = "vliw-static"


# ---------------------------------------------------------------------------
# shared structural checks (used by the pre-decode verifier and by the
# checked per-cycle reference path in tta_sim)
# ---------------------------------------------------------------------------


def check_tta_slots(instr, pc: int, bus_count: int) -> set[int]:
    """Verify bus exclusivity for one instruction, *including* the extra
    bus slots reserved by long-immediate templates.

    The scheduler reserves ``move.extra_slots`` additional (otherwise
    free) buses for each wide immediate; the reservation is positional
    only in the instruction encoding, so the verifiable property is that
    explicit moves are pairwise bus-exclusive and that enough free buses
    remain to host every reserved slot.  Returns the busy-bus set with
    the long-immediate reservations marked.
    """
    busy: set[int] = set()
    extra_total = 0
    for move in instr.moves:
        if move.bus in busy:
            raise SimError(f"bus {move.bus} used twice at pc={pc}")
        busy.add(move.bus)
        extra_total += move.extra_slots
    if extra_total:
        free = [index for index in range(bus_count) if index not in busy]
        if len(free) < extra_total:
            raise SimError(
                f"bus oversubscription at pc={pc}: {len(busy)} moves plus "
                f"{extra_total} long-immediate slots exceed {bus_count} buses"
            )
        busy.update(free[:extra_total])
    return busy


def src_endpoint(move) -> str:
    kind = move.src[0]
    if kind == "imm":
        return "IMM"
    if kind == "rf":
        return f"{move.src[1]}.read"
    return f"{move.src[1]}.r"


def dst_endpoint(move) -> str:
    if move.dst[0] == "rf":
        return f"{move.dst[1]}.write"
    _, fu, port, _ = move.dst
    return f"{fu}.{port}"


# ---------------------------------------------------------------------------
# TTA: static verification + decode
# ---------------------------------------------------------------------------


def _check_tta_src(move, pc: int, machine) -> tuple:
    """Validate and normalise one move source into a static descriptor."""
    kind = move.src[0]
    if kind == "imm":
        value = move.src[1]
        if not isinstance(value, int):
            raise SimError(f"unlinked immediate {value!r} at pc={pc}")
        return ("imm", value & MASK32)
    if kind == "rf":
        _, rf, idx = move.src
        spec = machine.rf_by_name.get(rf)
        if spec is None:
            raise SimError(f"unknown register file {rf!r} at pc={pc}")
        if not 0 <= idx < spec.size:
            raise SimError(f"register index {rf}[{idx}] out of range at pc={pc}")
        return ("rf", rf, idx)
    if kind == "fu":
        fu = move.src[1]
        if fu not in machine.fu_by_name:
            raise SimError(f"unknown function unit {fu!r} at pc={pc}")
        return ("fu", fu)
    raise SimError(f"bad move source {move.src!r} at pc={pc}")


def static_decode_tta(program: Program) -> list:
    """Verify *program* structurally and decode it into flat per-instruction
    tuples; cached on ``program.predecode_cache``.

    Each decoded instruction is
    ``(rf_moves, o1_moves, trig_moves, counts)`` where the three move
    groups keep the original intra-group move order (which is the only
    order the reference simulator's four execution phases observe) and
    ``counts`` is the static move/trigger/port statistics vector
    ``(moves, triggers, rf_reads, bypass_reads, rf_writes)``.
    """
    cached = program.predecode_cache.get(_TTA_KEY)
    if cached is not None:
        obs.count("sim.predecode.cache_hits")
        return cached
    obs.count("sim.predecode.cache_misses")
    machine = program.machine
    buses = {bus.index: bus for bus in machine.buses}
    read_limits = {rf.name: rf.read_ports for rf in machine.register_files}
    write_limits = {rf.name: rf.write_ports for rf in machine.register_files}
    decoded = []
    for pc, instr in enumerate(program.instrs):
        check_tta_slots(instr, pc, len(machine.buses))
        reads: dict[str, int] = {}
        writes: dict[str, int] = {}
        rf_moves = []
        o1_moves = []
        trig_moves = []
        n_bypass = 0
        for move in instr.moves:
            if move.bus not in buses:
                raise SimError(f"unknown bus {move.bus} at pc={pc}")
            src = _check_tta_src(move, pc, machine)
            if src[0] == "rf":
                reads[src[1]] = reads.get(src[1], 0) + 1
            elif src[0] == "fu":
                n_bypass += 1
            if not buses[move.bus].connects(src_endpoint(move), dst_endpoint(move)):
                raise SimError(f"move {move!r} not routable on bus {move.bus}")
            if move.dst[0] == "rf":
                _, rf, idx = move.dst
                spec = machine.rf_by_name.get(rf)
                if spec is None:
                    raise SimError(f"unknown register file {rf!r} at pc={pc}")
                if not 0 <= idx < spec.size:
                    raise SimError(
                        f"register index {rf}[{idx}] out of range at pc={pc}"
                    )
                writes[rf] = writes.get(rf, 0) + 1
                rf_moves.append((src, rf, idx))
            elif move.dst[0] == "op":
                _, fu, port, opcode = move.dst
                if fu not in machine.fu_by_name:
                    raise SimError(f"unknown function unit {fu!r} at pc={pc}")
                if port == "o1":
                    o1_moves.append((src, fu))
                elif port == "t":
                    if opcode is None:
                        raise SimError(
                            f"trigger move without opcode on {fu} at pc={pc}"
                        )
                    if opcode not in OPS and opcode not in (
                        "halt",
                        "getra",
                        "setra",
                    ):
                        raise SimError(f"unknown opcode {opcode!r} at pc={pc}")
                    trig_moves.append((src, fu, opcode))
                else:
                    raise SimError(f"unknown FU port {fu}.{port} at pc={pc}")
            else:
                raise SimError(f"bad move destination {move.dst!r} at pc={pc}")
        for rf, count in reads.items():
            if count > read_limits[rf]:
                raise SimError(f"{rf} read ports oversubscribed at pc={pc}")
        for rf, count in writes.items():
            if count > write_limits[rf]:
                raise SimError(f"{rf} write ports oversubscribed at pc={pc}")
        counts = (
            len(instr.moves),
            len(trig_moves),
            sum(reads.values()),
            n_bypass,
            sum(writes.values()),
        )
        decoded.append((tuple(rf_moves), tuple(o1_moves), tuple(trig_moves), counts))
    program.predecode_cache[_TTA_KEY] = decoded
    return decoded


def verify_tta_program(program: Program) -> None:
    """Run every static structural check once; raises :class:`SimError`."""
    static_decode_tta(program)


# ---------------------------------------------------------------------------
# TTA: per-simulator binding
# ---------------------------------------------------------------------------


def _bind_tta_sampler(src, sim):
    kind = src[0]
    if kind == "imm":
        value = src[1]

        def sample(cycle, _v=value):
            return _v

        return sample
    if kind == "rf":
        regs = sim.rfs[src[1]]
        idx = src[2]

        def sample(cycle, _r=regs, _i=idx):
            return _r[_i]

        return sample
    fu = sim.fus[src[1]]

    def sample(cycle, _fu=fu):
        if _fu.pending and _fu.pending[0][0] <= cycle:
            _fu.commit(cycle)
        if not _fu.has_result:
            from repro.sim.tta_sim import fu_unavailable_error

            raise fu_unavailable_error(_fu, cycle)
        return _fu.result

    return sample


def _bind_tta_thunk(fu_name: str, opcode: str, sim, jl: int):
    """Build ``thunk(value, cycle, pc)`` for one trigger.

    Returns ``None`` (no control effect), ``True`` (halt) or a
    ``(redirect_cycle, target)`` tuple.
    """
    fu = sim.fus[fu_name]
    jl1 = jl + 1
    if opcode == "halt":
        return lambda value, cycle, pc: True
    if opcode == "getra":

        def thunk(value, cycle, pc, _fu=fu, _sim=sim):
            _fu.push(cycle + 1, _sim.ra)
            return None

        return thunk
    if opcode == "setra":

        def thunk(value, cycle, pc, _sim=sim):
            _sim.ra = value
            return None

        return thunk
    if opcode == "jump":
        return lambda value, cycle, pc, _j=jl1: (cycle + _j, value)
    if opcode == "call":

        def thunk(value, cycle, pc, _sim=sim, _j=jl1):
            _sim.ra = pc + _j
            return (cycle + _j, value)

        return thunk
    if opcode == "ret":
        return lambda value, cycle, pc, _sim=sim, _j=jl1: (cycle + _j, _sim.ra)
    if opcode == "cjump":

        def thunk(value, cycle, pc, _fu=fu, _j=jl1):
            return (cycle + _j, _fu.o1) if value else None

        return thunk
    if opcode == "cjumpz":

        def thunk(value, cycle, pc, _fu=fu, _j=jl1):
            return None if value else (cycle + _j, _fu.o1)

        return thunk
    spec = OPS[opcode]
    if spec.kind is OpKind.LSU:
        access = sim.memory.accessor(opcode)
        if spec.writes_mem:

            def thunk(value, cycle, pc, _st=access, _fu=fu):
                _st(value, _fu.o1)
                return None

            return thunk
        latency = spec.latency

        def thunk(value, cycle, pc, _ld=access, _fu=fu, _lat=latency):
            _fu.push(cycle + _lat, _ld(value))
            return None

        return thunk
    fn = ALU_FUNCS[opcode]
    latency = spec.latency
    if spec.operands == 2:

        def thunk(value, cycle, pc, _fu=fu, _fn=fn, _lat=latency):
            _fu.push(cycle + _lat, _fn(value, _fu.o1))
            return None

        return thunk

    def thunk(value, cycle, pc, _fu=fu, _fn=fn, _lat=latency):
        _fu.push(cycle + _lat, _fn(value))
        return None

    return thunk


# ---------------------------------------------------------------------------
# VLIW: static verification + decode
# ---------------------------------------------------------------------------

#: load and store operations of the op-list styles (VLIW and scalar)
_LOADS = frozenset({"ldw", "ldh", "ldq", "ldqu", "ldhu"})
_STORES = frozenset({"stw", "sth", "stq"})
_VLIW_PSEUDO = frozenset({"copy", "getra", "setra", "halt"})


def _check_vliw_src(src, pc: int, machine) -> tuple:
    if isinstance(src, Imm):
        return ("imm", src.value & MASK32)
    if isinstance(src, PhysReg):
        spec = machine.rf_by_name.get(src.rf)
        if spec is None:
            raise SimError(f"unknown register file {src.rf!r} at pc={pc}")
        if not 0 <= src.idx < spec.size:
            raise SimError(f"register index {src!r} out of range at pc={pc}")
        return ("reg", src.rf, src.idx)
    raise SimError(f"unresolved operand {src!r} at pc={pc}")


def static_decode_vliw(program: Program) -> list:
    """Verify *program* and decode each bundle into flat op descriptors.

    Checks once per static bundle: known operation names, resolved
    operands, in-range register indices, destination presence for
    result-producing ops, and the machine's issue-width limit.
    """
    cached = program.predecode_cache.get(_VLIW_KEY)
    if cached is not None:
        obs.count("sim.predecode.cache_hits")
        return cached
    obs.count("sim.predecode.cache_misses")
    machine = program.machine
    issue_width = machine.issue_width
    decoded = []
    for pc, bundle in enumerate(program.instrs):
        if len(bundle.ops) > issue_width:
            raise SimError(
                f"bundle at pc={pc} issues {len(bundle.ops)} ops "
                f"(machine issue width is {issue_width})"
            )
        ops = []
        for op in bundle.ops:
            name = op.op
            if name not in OPS and name not in _VLIW_PSEUDO:
                raise SimError(f"unknown operation {name!r} at pc={pc}")
            srcs = tuple(_check_vliw_src(s, pc, machine) for s in op.srcs)
            needs_dest = (
                name not in _CONTROL_OPS
                and name not in _STORES
                and name not in ("halt", "setra")
            )
            dest = None
            if needs_dest:
                if not isinstance(op.dest, PhysReg):
                    raise SimError(f"operation {op!r} lacks a destination at pc={pc}")
                dest = _check_vliw_src(op.dest, pc, machine)[1:]
            is_alu = needs_dest and name not in _LOADS and name not in (
                "copy",
                "getra",
            )
            if is_alu and name not in ALU_FUNCS:
                # pure ALU op: the pre-bound function must exist
                raise SimError(f"not a pure ALU operation: {name!r} at pc={pc}")
            ops.append((name, srcs, dest, op.latency))
        decoded.append(tuple(ops))
    program.predecode_cache[_VLIW_KEY] = decoded
    return decoded


def verify_vliw_program(program: Program) -> None:
    """Run every static structural check once; raises :class:`SimError`."""
    static_decode_vliw(program)


# ---------------------------------------------------------------------------
# VLIW: per-simulator binding
# ---------------------------------------------------------------------------


def _bind_vliw_reader(src, rfs):
    if src[0] == "imm":
        value = src[1]
        return lambda _v=value: _v
    regs = rfs[src[1]]
    idx = src[2]
    return lambda _r=regs, _i=idx: _r[_i]


def _bind_vliw_op(op, sim, rfs, jl1: int):
    """Build ``f(cycle, pc)`` executing one decoded VLIW operation.

    Returns ``None``, ``True`` (halt) or ``(redirect_cycle, target)``.
    The caller schedules register write-back through ``sim`` state, so
    interleaving sampling with execution is safe: no operation writes a
    register within its own issue cycle (minimum write-back is
    ``cycle + 1``) and memory/``ra`` side effects are observed in op
    order exactly as in the reference engine.
    """
    name, srcs, dest, latency = op
    if name == "halt":
        return lambda cycle, pc: True
    if name in ("jump", "call"):
        read = _bind_vliw_reader(srcs[0], rfs)
        if name == "jump":
            return lambda cycle, pc, _r=read, _j=jl1: (cycle + _j, _r())

        def run_call(cycle, pc, _r=read, _j=jl1, _sim=sim):
            _sim.ra = pc + _j
            return (cycle + _j, _r())

        return run_call
    if name == "ret":
        return lambda cycle, pc, _sim=sim, _j=jl1: (cycle + _j, _sim.ra)
    if name in ("cjump", "cjumpz"):
        read_pred = _bind_vliw_reader(srcs[0], rfs)
        read_target = _bind_vliw_reader(srcs[1], rfs)
        if name == "cjump":

            def run_cjump(cycle, pc, _p=read_pred, _t=read_target, _j=jl1):
                return (cycle + _j, _t()) if _p() else None

            return run_cjump

        def run_cjumpz(cycle, pc, _p=read_pred, _t=read_target, _j=jl1):
            return None if _p() else (cycle + _j, _t())

        return run_cjumpz
    if name in _LOADS:
        read_addr = _bind_vliw_reader(srcs[0], rfs)
        regs = rfs[dest[0]]

        def run_load(
            cycle,
            pc,
            _r=read_addr,
            _ld=sim.memory.accessor(name),
            _lat=latency,
            _w=sim._write_later_slot,
            _regs=regs,
            _i=dest[1],
        ):
            _w(cycle + _lat, _regs, _i, _ld(_r()))
            return None

        return run_load
    if name in _STORES:
        read_addr = _bind_vliw_reader(srcs[0], rfs)
        read_value = _bind_vliw_reader(srcs[1], rfs)

        def run_store(cycle, pc, _a=read_addr, _v=read_value, _st=sim.memory.accessor(name)):
            _st(_a(), _v())
            return None

        return run_store
    if name == "setra":
        read = _bind_vliw_reader(srcs[0], rfs)

        def run_setra(cycle, pc, _r=read, _sim=sim):
            _sim.ra = _r()
            return None

        return run_setra
    if name == "getra":
        regs = rfs[dest[0]]

        def run_getra(
            cycle, pc, _sim=sim, _lat=latency, _w=sim._write_later_slot, _regs=regs, _i=dest[1]
        ):
            _w(cycle + _lat, _regs, _i, _sim.ra)
            return None

        return run_getra
    if name == "copy":
        read = _bind_vliw_reader(srcs[0], rfs)
        regs = rfs[dest[0]]

        def run_copy(
            cycle, pc, _r=read, _lat=latency, _w=sim._write_later_slot, _regs=regs, _i=dest[1]
        ):
            _w(cycle + _lat, _regs, _i, _r())
            return None

        return run_copy
    fn = ALU_FUNCS[name]
    regs = rfs[dest[0]]
    if len(srcs) == 2:
        read_a = _bind_vliw_reader(srcs[0], rfs)
        read_b = _bind_vliw_reader(srcs[1], rfs)

        def run_alu2(
            cycle,
            pc,
            _a=read_a,
            _b=read_b,
            _fn=fn,
            _lat=latency,
            _w=sim._write_later_slot,
            _regs=regs,
            _i=dest[1],
        ):
            _w(cycle + _lat, _regs, _i, _fn(_a(), _b()))
            return None

        return run_alu2
    read_a = _bind_vliw_reader(srcs[0], rfs)

    def run_alu1(
        cycle,
        pc,
        _a=read_a,
        _fn=fn,
        _lat=latency,
        _w=sim._write_later_slot,
        _regs=regs,
        _i=dest[1],
    ):
        _w(cycle + _lat, _regs, _i, _fn(_a()))
        return None

    return run_alu1


# ---------------------------------------------------------------------------
# the stepping drivers shared by the fast, turbo and native engines
# ---------------------------------------------------------------------------

_ABSENT = object()

_BUDGET_MSG = "cycle budget exceeded (runaway program?)"


def block_source_for(sim):
    """``(engine label, block source)`` for *sim*'s mode.

    A block source is what tells the engines apart: fast has none, turbo
    compiles blocks to Python on first entry, native runs the blocks of
    one generated-C shared object and degrades to turbo's source (with
    its warning) when there is none.  It is called once per run as
    ``source(sim, rfs)`` and returns ``(blocks, materialize, finish)``:
    ``blocks`` maps an entry pc to ``(length, enter)`` or ``None``,
    ``materialize(pc)`` fills and returns a missing entry, and
    ``finish()`` lists ``(start, length, executions)`` after the run.
    ``enter(cycle)`` runs the block and returns ``(status, pc, cycle,
    redirect_cycle, redirect_target)``; status 3 means halted at
    ``cycle``, any other status continues at ``pc``.
    """
    if sim.mode == "fast":
        return "fast", None
    if sim.mode == "native":
        from repro.sim.native import native_blocks

        source = native_blocks(sim.program)
        if source is not None:
            return "native", source
    from repro.sim.blockcompile import turbo_blocks

    return "turbo", turbo_blocks


def _expand_hits(hits, blocks) -> None:
    """Add each block's executions to the hit count of every pc it covers."""
    for start, length, count in blocks:
        if count:
            for i in range(start, start + length):
                hits[i] += count


def run_tta(sim, engine: str, source):
    """Execute *sim*'s program; the TTA driver of every engine but checked.

    Whenever no redirect is pending, the pc is in range and a block of
    *source* starts there and fits the cycle budget, the block runs;
    every other cycle is one precise step through closures bound lazily
    per pc.  Bit- and cycle-exact with ``TTASimulator`` in checked mode,
    including every statistics counter and error text (enforced by the
    differential tests).
    """
    from repro.sim.tta_sim import TTAResult

    program = sim.program
    decoded = static_decode_tta(program)
    jl = program.machine.jump_latency
    max_cycles = sim.max_cycles
    n_instrs = len(decoded)
    hits = [0] * n_instrs
    steps = [None] * n_instrs

    def bind(pc):
        rf_moves, o1_moves, trig_moves, _counts = decoded[pc]
        steps[pc] = step = (
            tuple(
                (_bind_tta_sampler(src, sim), sim.rfs[rf], idx)
                for src, rf, idx in rf_moves
            ),
            tuple((_bind_tta_sampler(src, sim), sim.fus[fu]) for src, fu in o1_moves),
            tuple(
                (_bind_tta_sampler(src, sim), _bind_tta_thunk(fu, opcode, sim, jl))
                for src, fu, opcode in trig_moves
            ),
        )
        return step

    get_block = materialize = finish = None
    if source is not None:
        blocks, materialize, finish = source(sim, sim.rfs)
        get_block = blocks.get
    pc = 0
    cycle = 0
    rc = -1  # pending redirect fire cycle (-1 = none)
    rt = 0  # its target
    while True:
        if get_block is not None and rc < 0 and 0 <= pc < n_instrs:
            blk = get_block(pc, _ABSENT)
            if blk is _ABSENT:
                blk = materialize(pc)
            if blk is not None and cycle + blk[0] <= max_cycles + 1:
                status, pc, cycle, rc, rt = blk[1](cycle)
                if status == 3:
                    break
                if cycle > max_cycles:
                    raise SimError(_BUDGET_MSG)
                continue
        # precise single-cycle step: carried redirects, out-of-range pcs,
        # budget-edge cycles and pcs without a block all land here
        if cycle == rc:
            pc = rt
            rc = -1
        if pc < 0 or pc >= n_instrs:
            raise SimError(f"PC out of range: {pc}")
        step = steps[pc]
        if step is None:
            step = bind(pc)
        rf_moves, o1_moves, trig_moves = step
        hits[pc] += 1
        # phase 1+2: sample sources, latch operand ports.  Interleaving the
        # groups is safe: samplers read only immediates, RF state and
        # committed FU results, none of which an operand-port latch or a
        # trigger can change within the same cycle (minimum result latency
        # is 1, RF writes commit in phase 4).
        if rf_moves:
            pending = [(regs, idx, sample(cycle)) for sample, regs, idx in rf_moves]
        else:
            pending = ()
        for sample, fu in o1_moves:
            fu.o1 = sample(cycle)
        # phase 3: triggers, in move order
        halted = False
        for sample, thunk in trig_moves:
            effect = thunk(sample(cycle), cycle, pc)
            if effect is not None:
                if effect is True:
                    halted = True
                elif rc >= 0:
                    raise SimError("overlapping control transfers")
                else:
                    rc, rt = effect
        # phase 4: RF write commit
        for regs, idx, value in pending:
            regs[idx] = value
        if halted:
            break
        cycle += 1
        pc += 1
        if cycle > max_cycles:
            raise SimError(_BUDGET_MSG)

    block_runs = None if finish is None else finish()
    if block_runs:
        _expand_hits(hits, block_runs)
    rv = return_value_reg(program.machine)
    stats = TTAResult(sim.rfs[rv.rf][rv.idx], cycle + 1)
    for count, (_, _, _, counts) in zip(hits, decoded):
        if count:
            stats.moves += count * counts[0]
            stats.triggers += count * counts[1]
            stats.rf_reads += count * counts[2]
            stats.bypass_reads += count * counts[3]
            stats.rf_writes += count * counts[4]
    # profiling hooks: the hit vector already drives the statistics
    sim._last_hits = hits
    sim._last_blocks = block_runs
    sim._last_engine = engine
    return stats


def run_vliw(sim, engine: str, source):
    """Execute *sim*'s program; the VLIW driver of every engine but checked.

    Blocks run under the same gate as :func:`run_tta`.  Bit- and
    cycle-exact with ``VLIWSimulator`` in checked mode, including the
    exposed delayed-write-back semantics (a violated schedule still
    reads the stale value).
    """
    from repro.sim.vliw_sim import VLIWResult

    program = sim.program
    decoded = static_decode_vliw(program)
    machine = program.machine
    jl1 = machine.jump_latency + 1
    rfs = {rf.name: [0] * rf.size for rf in machine.register_files}
    heap = sim._pending_slot_writes
    max_cycles = sim.max_cycles
    n_instrs = len(decoded)
    hits = [0] * n_instrs
    steps = [None] * n_instrs

    def bind(pc):
        steps[pc] = step = tuple(_bind_vliw_op(op, sim, rfs, jl1) for op in decoded[pc])
        return step

    get_block = materialize = finish = None
    if source is not None:
        blocks, materialize, finish = source(sim, rfs)
        get_block = blocks.get
    pc = 0
    cycle = 0
    rc = -1  # pending redirect fire cycle (-1 = none)
    rt = 0  # its target
    while True:
        if get_block is not None and rc < 0 and 0 <= pc < n_instrs:
            blk = get_block(pc, _ABSENT)
            if blk is _ABSENT:
                blk = materialize(pc)
            if blk is not None and cycle + blk[0] <= max_cycles + 1:
                status, pc, cycle, rc, rt = blk[1](cycle)
                if status == 3:
                    break
                if cycle > max_cycles:
                    raise SimError(_BUDGET_MSG)
                continue
        # precise single-cycle step; first commit the register writes
        # whose write-back cycle has passed
        while heap and heap[0][0] < cycle:
            _, _, regs, idx, value = _heappop(heap)
            regs[idx] = value
        if cycle == rc:
            pc = rt
            rc = -1
        if pc < 0 or pc >= n_instrs:
            raise SimError(f"PC out of range: {pc}")
        step = steps[pc]
        if step is None:
            step = bind(pc)
        hits[pc] += 1
        halted = False
        for op_fn in step:
            effect = op_fn(cycle, pc)
            if effect is not None:
                if effect is True:
                    halted = True
                elif rc >= 0:
                    raise SimError("overlapping control transfers")
                else:
                    rc, rt = effect
        if halted:
            # flush in-flight writes so the exit code is final
            while heap:
                _, _, regs, idx, value = _heappop(heap)
                regs[idx] = value
            break
        cycle += 1
        pc += 1
        if cycle > max_cycles:
            raise SimError(_BUDGET_MSG)

    block_runs = None if finish is None else finish()
    if block_runs:
        _expand_hits(hits, block_runs)
    rv = return_value_reg(machine)
    result = VLIWResult(rfs[rv.rf][rv.idx], cycle + 1, cycle + 1)
    result.ops = sum(count * len(bundle) for count, bundle in zip(hits, decoded))
    sim._sync_regs_from_fast(rfs)
    sim._last_hits = hits
    sim._last_blocks = block_runs
    sim._last_engine = engine
    return result
