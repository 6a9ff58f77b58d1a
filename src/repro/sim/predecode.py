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

2. **pre-decodes** every instruction into flat tuples of moves, then
   binds each TTA instruction, on its first precise step, to **one
   closure** built from a template per instruction shape (the numbers
   of FU reads, register latches, operand moves, triggers and RF
   writes; each template is compiled once per process).  The closure
   samples, latches, triggers and commits inline in the reference's
   order, so the driver makes one call per instruction with no
   per-cycle string comparison, no dictionary lookups on hot state and
   no re-verification; an ALU trigger is one call too, its thunk
   generated from the Python ALU table (``_ALU_EXPR``).  A run of
   instructions without moves (37% of the cycles of the eight paper
   kernels on ``m-tta-2``, 40% on ``bm-tta-3``) is one step; and

3. holds the one driver per core style (:func:`run_tta` /
   :func:`run_vliw`) that the fast and native engines share (``turbo``
   is a name for fast).  Fast steps every instruction in Python;
   native runs the whole program in one call of its C engine, which
   follows the same stepper cycle for cycle, and falls back to the
   Python stepper where there is no C compiler.

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
from heapq import heappush as _heappush
from types import FunctionType

from repro import obs
from repro.backend.abi import return_value_reg
from repro.backend.mop import Imm, PhysReg
from repro.backend.program import Program
from repro.isa.operations import OPS, OpKind
from repro.isa.semantics import MASK32, sext8, sext16
from repro.sim.errors import SimError

# ---------------------------------------------------------------------------
# the Python ALU table
# ---------------------------------------------------------------------------
#
# ``isa.semantics.evaluate`` re-resolves the opcode through an if-chain on
# every call.  The fast engine binds one small function per opcode at decode
# time instead, and the scalar block printer inlines the same expressions.
# ``tests/test_predecode.py`` asserts bit-exact agreement with ``evaluate``
# for every operation, so the two cannot drift silently.  All
# simulator-resident values are already wrapped to [0, 2**32); these
# expressions preserve that invariant.

#: ALU opcodes as Python expressions over ``{a}`` (the trigger/first
#: operand) and ``{b}`` (the second), run in ``_ALU_NS``
_ALU_EXPR = {
    "add": "({a} + {b}) & 4294967295",
    "sub": "({a} - {b}) & 4294967295",
    "mul": "({a} * {b}) & 4294967295",
    "and": "{a} & {b}",
    "ior": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "eq": "1 if {a} == {b} else 0",
    "gt": "1 if {a} ^ 2147483648 > {b} ^ 2147483648 else 0",
    "gtu": "1 if {a} > {b} else 0",
    "shl": "({a} << ({b} & 31)) & 4294967295",
    "shru": "{a} >> ({b} & 31)",
    "shr": "(({a} ^ 2147483648) - 2147483648 >> ({b} & 31)) & 4294967295",
    "sxhw": "_sx16({a})",
    "sxqw": "_sx8({a})",
}

#: the namespace the generated ALU code runs in
_ALU_NS = {"_sx16": sext16, "_sx8": sext8}


def _alu_func(op: str):
    params = "a, b" if OPS[op].operands == 2 else "a"
    return eval(f"lambda {params}: {_ALU_EXPR[op].format(a='a', b='b')}", dict(_ALU_NS))


#: ``f(a[, b])`` per ALU opcode, by operand count
ALU_FUNCS: dict[str, object] = {op: _alu_func(op) for op in _ALU_EXPR}

#: control-transfer operations of both core styles (``halt`` is not one)
_CONTROL_OPS = frozenset({"jump", "call", "ret", "cjump", "cjumpz"})

#: cache keys on ``Program.predecode_cache``
_TTA_KEY = "tta-static"
_TTA_EMPTY_KEY = "tta-empty-runs"
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


def check_register(machine, rf: str, idx: int, pc: int) -> None:
    """Raise :class:`SimError` unless *rf* is one of *machine*'s register
    files and *idx* one of its registers; every engine, the per-cycle
    ``checked`` one included, raises this text."""
    spec = machine.rf_by_name.get(rf)
    if spec is None:
        raise SimError(f"unknown register file {rf!r} at pc={pc}")
    if not 0 <= idx < spec.size:
        raise SimError(f"register index {rf}[{idx}] out of range at pc={pc}")


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
        check_register(machine, rf, idx, pc)
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
    ``(rf_moves, o1_moves, trig_moves, counts, fu_reads)`` where the
    three move groups keep the original intra-group move order (the
    reference simulator's latch, trigger and commit phases observe no
    other), ``counts`` is the static move/trigger/port statistics vector
    ``(moves, triggers, rf_reads, bypass_reads, rf_writes)`` and
    ``fu_reads`` names each unit whose result a move reads, once, in
    move order: the order of the reference's source samples that can
    fail or commit results.
    """
    cached = program.predecode_cache.get(_TTA_KEY)
    if cached is not None:
        obs.count("sim.predecode.cache_hits")
        return cached
    obs.count("sim.predecode.cache_misses")
    with obs.span("sim.predecode", style="tta"):
        decoded = _decode_tta(program)
    program.predecode_cache[_TTA_KEY] = decoded
    return decoded


def _decode_tta(program: Program) -> list:
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
        fu_reads = []
        for move in instr.moves:
            if move.bus not in buses:
                raise SimError(f"unknown bus {move.bus} at pc={pc}")
            src = _check_tta_src(move, pc, machine)
            if src[0] == "rf":
                reads[src[1]] = reads.get(src[1], 0) + 1
            elif src[0] == "fu":
                n_bypass += 1
                if src[1] not in fu_reads:
                    fu_reads.append(src[1])
            if not buses[move.bus].connects(src_endpoint(move), dst_endpoint(move)):
                raise SimError(f"move {move!r} not routable on bus {move.bus}")
            if move.dst[0] == "rf":
                _, rf, idx = move.dst
                check_register(machine, rf, idx, pc)
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
        decoded.append(
            (tuple(rf_moves), tuple(o1_moves), tuple(trig_moves), counts, tuple(fu_reads))
        )
    return decoded


def verify_tta_program(program: Program) -> None:
    """Run every static structural check once; raises :class:`SimError`."""
    static_decode_tta(program)


# ---------------------------------------------------------------------------
# TTA: per-simulator binding
# ---------------------------------------------------------------------------


def _operand_slot(src, rfs) -> tuple:
    """``(regs, idx)`` reading a decoded immediate or register operand
    (TTA or VLIW) inline as ``regs[idx]``; an immediate reads from a
    one-element tuple."""
    if src[0] == "imm":
        return (src[1],), 0
    return rfs[src[1]], src[2]


#: the step of an instruction without moves; the driver advances whole
#: runs of them (see :func:`run_tta`)
_EMPTY = object()

#: step templates by instruction shape, compiled once per process
_step_templates: dict[tuple[int, int, int, int, int], FunctionType] = {}


def _bound(template: FunctionType, args) -> FunctionType:
    """*template* with *args* bound as the defaults of its trailing
    parameters: a closure that holds one tuple, not a cell per value."""
    return FunctionType(template.__code__, template.__globals__, template.__name__, tuple(args))


def _step_template(shape: tuple[int, int, int, int, int]) -> FunctionType:
    """The step template of one instruction shape: ``(FU reads, RF
    latches, o1 moves, triggers, RF writes)``.

    It is ``step(cycle, pc, rc, *bound)``, where *bound* is, per FU
    read, the unit and its cell; per latch, the source ``regs, idx``
    and the cell; per o1 move, the source and the unit; per trigger,
    the source and the thunk; per RF write, the source and the
    destination ``regs, idx``; then ``fu_unavailable_error`` and
    :class:`SimError`.
    """
    template = _step_templates.get(shape)
    if template is not None:
        return template
    n_reads, n_latches, n_o1, n_trigs, n_writes = shape
    params: list[str] = []
    body: list[str] = []
    for i in range(n_reads):
        # ``_FU.read`` inline: commit the results due, then sample
        params += [f"F{i}", f"C{i}"]
        body += [
            f"p = F{i}.pending",
            "if p and p[0][0] <= cycle:",
            "    while p and p[0][0] <= cycle:",
            f"        F{i}.result = p.pop(0)[1]",
            f"    F{i}.has_result = True",
            f"if not F{i}.has_result:",
            f"    raise _unavailable(F{i}, cycle)",
            f"C{i}[0] = F{i}.result",
        ]
    for i in range(n_latches):
        params += [f"LR{i}", f"LI{i}", f"LC{i}"]
        body.append(f"LC{i}[0] = LR{i}[LI{i}]")
    for i in range(n_o1):
        params += [f"OR{i}", f"OI{i}", f"OF{i}"]
        body.append(f"OF{i}.o1 = OR{i}[OI{i}]")
    if n_trigs > 1:
        body += ["r = None", "h = False"]
    for i in range(n_trigs):
        params += [f"TR{i}", f"TI{i}", f"TT{i}"]
        body.append(f"e = TT{i}(TR{i}[TI{i}], cycle, pc)")
        if n_trigs == 1:
            body += [
                "if e is not None and e is not True and rc >= 0:",
                "    raise _SimError('overlapping control transfers')",
            ]
        else:
            body += [
                "if e is not None:",
                "    if e is True:",
                "        h = True",
                "    elif rc >= 0:",
                "        raise _SimError('overlapping control transfers')",
                "    else:",
                "        rc = e[0]",
                "        r = e",
            ]
    for i in range(n_writes):
        params += [f"WR{i}", f"WI{i}", f"WD{i}", f"WX{i}"]
        body.append(f"WD{i}[WX{i}] = WR{i}[WI{i}]")
    if n_trigs == 1:
        body.append("return e")
    elif n_trigs > 1:
        body.append("return True if h else r")
    params += ["_unavailable", "_SimError"]
    source = "\n".join(
        [f"def step(cycle, pc, rc, {', '.join(params)}):"]
        + [f"    {line}" for line in body]
    )
    namespace: dict = {}
    exec(compile(source, f"<tta step {shape}>", "exec"), namespace)
    template = _step_templates[shape] = namespace["step"]
    return template


def _bind_tta_step(decoded_instr, sim, jl: int):
    """The precise step of one decoded instruction: :data:`_EMPTY` when
    it has no moves, else ``step(cycle, pc, rc)`` (``rc`` is the fire
    cycle of the pending redirect, -1 for none).  A step returns
    ``None``, ``True`` (halted, its RF writes committed) or the
    ``(fire_cycle, target)`` of the redirect it triggered.

    The step is one closure of its shape's template
    (:func:`_step_template`), which follows the reference's phases: it
    samples every move source before any operand latch or trigger, runs
    the triggers in move order with the overlap check after each, and
    commits the RF writes last.  A register or immediate source cannot
    fail, and nothing before the commit writes a register, so most
    sources are read where they are used, as ``regs[idx]``.  The others
    are *latched* first into a one-element cell that their moves then
    read: each unit whose result the instruction reads, in move order
    (its sample may raise, and commits the unit's due results, so it
    must come before any latch or trigger, as in the reference), and the
    source of an RF move from a register an earlier move of the same
    instruction writes.
    """
    from repro.sim.tta_sim import fu_unavailable_error

    rf_moves, o1_moves, trig_moves, _counts, fu_reads = decoded_instr
    if not (rf_moves or o1_moves or trig_moves):
        return _EMPTY
    rfs = sim.rfs
    args: list = []
    cells = {}
    for fu in fu_reads:
        cells[fu] = [0]
        args += (sim.fus[fu], cells[fu])

    def slot(src):
        if src[0] == "fu":
            return cells[src[1]], 0
        return _operand_slot(src, rfs)

    latches: list = []
    writes: list = []
    written: set = set()
    for src, rf, idx in rf_moves:
        regs, sidx = slot(src)
        if src[0] == "rf" and src[1:] in written:
            cell = [0]
            latches += (regs, sidx, cell)
            regs, sidx = cell, 0
        writes += (regs, sidx, rfs[rf], idx)
        written.add((rf, idx))
    args += latches
    for src, fu in o1_moves:
        args += (*slot(src), sim.fus[fu])
    for src, fu, opcode in trig_moves:
        args += (*slot(src), _bind_tta_thunk(fu, opcode, sim, jl))
    args += writes
    args += (fu_unavailable_error, SimError)
    shape = (len(fu_reads), len(latches) // 3, len(o1_moves), len(trig_moves), len(rf_moves))
    return _bound(_step_template(shape), args)


#: ALU trigger thunk templates by opcode, compiled once per process
_alu_thunks: dict[str, FunctionType] = {}


def _alu_thunk(opcode: str) -> FunctionType:
    """The trigger thunk template of ALU *opcode*,
    ``thunk(value, cycle, pc, _fu, _lat, _e)``: its ``_ALU_EXPR`` inline,
    then ``_FU.push`` inline (same check and error ``_e``)."""
    template = _alu_thunks.get(opcode)
    if template is None:
        expr = _ALU_EXPR[opcode].format(a="value", b="_fu.o1")
        source = "\n".join(
            [
                "def thunk(value, cycle, pc, _fu, _lat, _e):",
                f"    result = {expr}",
                "    pending = _fu.pending",
                "    due = cycle + _lat",
                "    if pending and due <= pending[-1][0]:",
                "        raise _e(_fu, due)",
                "    pending.append((due, result))",
            ]
        )
        namespace = dict(_ALU_NS)
        exec(compile(source, f"<alu thunk {opcode}>", "exec"), namespace)
        template = _alu_thunks[opcode] = namespace["thunk"]
    return template


def _bind_tta_thunk(fu_name: str, opcode: str, sim, jl: int):
    """Build ``thunk(value, cycle, pc)`` for one trigger.

    Returns ``None`` (no control effect), ``True`` (halt) or a
    ``(redirect_cycle, target)`` tuple.  ALU and load triggers append
    their result to the unit's pending list themselves (``_FU.push``
    inline, same check and error).
    """
    from repro.sim.tta_sim import push_order_error

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

        def thunk(
            value, cycle, pc, _ld=access, _fu=fu, _lat=spec.latency, _e=push_order_error
        ):
            result = _ld(value)
            pending = _fu.pending
            due = cycle + _lat
            if pending and due <= pending[-1][0]:
                raise _e(_fu, due)
            pending.append((due, result))

        return thunk
    return _bound(_alu_thunk(opcode), (fu, spec.latency, push_order_error))


# ---------------------------------------------------------------------------
# VLIW: static verification + decode
# ---------------------------------------------------------------------------

#: load and store operations of the op-list styles (VLIW and scalar)
_LOADS = frozenset({"ldw", "ldh", "ldq", "ldqu", "ldhu"})
_STORES = frozenset({"stw", "sth", "stq"})
_VLIW_PSEUDO = frozenset({"copy", "getra", "setra", "halt"})
#: the VLIW operations that write no destination register
VLIW_NO_DEST = _CONTROL_OPS | _STORES | {"halt", "setra"}


def _check_vliw_src(src, pc: int, machine) -> tuple:
    if isinstance(src, Imm):
        return ("imm", src.value & MASK32)
    if isinstance(src, PhysReg):
        check_register(machine, src.rf, src.idx, pc)
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
    with obs.span("sim.predecode", style="vliw"):
        decoded = _decode_vliw(program)
    program.predecode_cache[_VLIW_KEY] = decoded
    return decoded


def _decode_vliw(program: Program) -> list:
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
            needs_dest = name not in VLIW_NO_DEST
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
    return decoded


def verify_vliw_program(program: Program) -> None:
    """Run every static structural check once; raises :class:`SimError`."""
    static_decode_vliw(program)


# ---------------------------------------------------------------------------
# VLIW: per-simulator binding
# ---------------------------------------------------------------------------


def _bind_vliw_op(op, sim, rfs, jl1: int):
    """Build ``f(cycle, pc)`` executing one decoded VLIW operation.

    Returns ``None``, ``True`` (halt) or ``(redirect_cycle, target)``.
    Operands are read inline, and a register write-back is pushed
    straight onto ``sim``'s write heap as ``(due, seq, regs, idx,
    value)`` with the next ``sim._seq``.  Interleaving sampling with
    execution is safe: no operation writes a register within its own
    issue cycle (minimum write-back is ``cycle + 1``) and memory/``ra``
    side effects are observed in op order exactly as in the reference
    engine.
    """
    name, srcs, dest, latency = op
    if name == "halt":
        return lambda cycle, pc: True
    if name == "ret":
        return lambda cycle, pc, _sim=sim, _j=jl1: (cycle + _j, _sim.ra)
    # every operation but halt, ret and getra reads operand 0; getra,
    # copy, loads and ALU operations write *dest* back ``latency``
    # cycles later
    hp = sim._pending_slot_writes
    seq = sim._seq.__next__
    regs = rfs[dest[0]] if dest is not None else None
    if name == "getra":

        def run_getra(
            cycle, pc, _sim=sim,
            _lat=latency, _hp=hp, _seq=seq, _regs=regs, _d=dest[1],
        ):
            _heappush(_hp, (cycle + _lat, _seq(), _regs, _d, _sim.ra))

        return run_getra
    ra, ia = _operand_slot(srcs[0], rfs)
    if name == "jump":
        return lambda cycle, pc, _r=ra, _i=ia, _j=jl1: (cycle + _j, _r[_i])
    if name == "call":

        def run_call(cycle, pc, _r=ra, _i=ia, _j=jl1, _sim=sim):
            _sim.ra = pc + _j
            return (cycle + _j, _r[_i])

        return run_call
    if name == "setra":

        def run_setra(cycle, pc, _r=ra, _i=ia, _sim=sim):
            _sim.ra = _r[_i]
            return None

        return run_setra
    if name in ("cjump", "cjumpz"):
        rt, it = _operand_slot(srcs[1], rfs)
        if name == "cjump":

            def run_cjump(cycle, pc, _p=ra, _ip=ia, _t=rt, _it=it, _j=jl1):
                return (cycle + _j, _t[_it]) if _p[_ip] else None

            return run_cjump

        def run_cjumpz(cycle, pc, _p=ra, _ip=ia, _t=rt, _it=it, _j=jl1):
            return None if _p[_ip] else (cycle + _j, _t[_it])

        return run_cjumpz
    if name in _STORES:
        rv, iv = _operand_slot(srcs[1], rfs)

        def run_store(cycle, pc, _a=ra, _ia=ia, _v=rv, _iv=iv, _st=sim.memory.accessor(name)):
            _st(_a[_ia], _v[_iv])
            return None

        return run_store
    if name in _LOADS:

        def run_load(
            cycle, pc, _a=ra, _ia=ia, _ld=sim.memory.accessor(name),
            _lat=latency, _hp=hp, _seq=seq, _regs=regs, _d=dest[1],
        ):
            _heappush(_hp, (cycle + _lat, _seq(), _regs, _d, _ld(_a[_ia])))

        return run_load
    if name == "copy":

        def run_copy(
            cycle, pc, _a=ra, _ia=ia,
            _lat=latency, _hp=hp, _seq=seq, _regs=regs, _d=dest[1],
        ):
            _heappush(_hp, (cycle + _lat, _seq(), _regs, _d, _a[_ia]))

        return run_copy
    fn = ALU_FUNCS[name]
    if len(srcs) == 2:
        rb, ib = _operand_slot(srcs[1], rfs)

        def run_alu2(
            cycle, pc, _a=ra, _ia=ia, _b=rb, _ib=ib, _fn=fn,
            _lat=latency, _hp=hp, _seq=seq, _regs=regs, _d=dest[1],
        ):
            _heappush(_hp, (cycle + _lat, _seq(), _regs, _d, _fn(_a[_ia], _b[_ib])))

        return run_alu2

    def run_alu1(
        cycle, pc, _a=ra, _ia=ia, _fn=fn,
        _lat=latency, _hp=hp, _seq=seq, _regs=regs, _d=dest[1],
    ):
        _heappush(_hp, (cycle + _lat, _seq(), _regs, _d, _fn(_a[_ia])))

    return run_alu1


# ---------------------------------------------------------------------------
# the stepping drivers shared by the fast and native engines
# ---------------------------------------------------------------------------

_BUDGET_MSG = "cycle budget exceeded (runaway program?)"


def _native_run(sim, rfs):
    """``(halt cycle, hits)`` of *sim*'s program run to its halt on the C
    engine, or ``None`` when *sim* runs in Python: its mode is not
    ``native``, or native is unavailable and the run degrades to fast
    (with its one-time warning)."""
    if sim.mode != "native":
        return None
    from repro.sim.native import native_run

    return native_run(sim, rfs)


def _engine_label(sim, ran_native: bool) -> str:
    """The engine that ran: native, or the Python stepper under the mode's
    name (``fast`` for a native run that degraded)."""
    if ran_native:
        return "native"
    return "fast" if sim.mode == "native" else sim.mode


def _empty_runs(program: Program, decoded: list) -> list[int]:
    """Per pc, how many instructions without moves start there (0 for
    one with moves); cached on ``program.predecode_cache``."""
    runs = program.predecode_cache.get(_TTA_EMPTY_KEY)
    if runs is None:
        runs = [0] * (len(decoded) + 1)
        for pc in range(len(decoded) - 1, -1, -1):
            rf_moves, o1_moves, trig_moves = decoded[pc][:3]
            if not (rf_moves or o1_moves or trig_moves):
                runs[pc] = runs[pc + 1] + 1
        program.predecode_cache[_TTA_EMPTY_KEY] = runs
    return runs


def _step_tta(sim, decoded) -> tuple[int, list[int]]:
    """``(halt cycle, hits)`` of *sim*'s program stepped in Python: one
    call per instruction through the closure bound lazily for its pc
    (:func:`_bind_tta_step`), and one step per run of instructions
    without moves, clipped so that a pending redirect still fires on its
    cycle."""
    program = sim.program
    jl = program.machine.jump_latency
    max_cycles = sim.max_cycles
    n_instrs = len(decoded)
    hits = [0] * n_instrs
    #: executions of instructions without moves, as a difference array
    empty_hits = [0] * (n_instrs + 1)
    steps = [None] * n_instrs
    runs = _empty_runs(program, decoded)
    pc = 0
    cycle = 0
    rc = -1  # pending redirect fire cycle (-1 = none)
    rt = 0  # its target
    while True:
        if cycle == rc:
            pc = rt
            rc = -1
        if pc < 0 or pc >= n_instrs:
            raise SimError(f"PC out of range: {pc}")
        step = steps[pc]
        if step is None:
            step = steps[pc] = _bind_tta_step(decoded[pc], sim, jl)
        if step is _EMPTY:
            run = runs[pc]
            if 0 <= rc < cycle + run:
                run = rc - cycle
            empty_hits[pc] += 1
            empty_hits[pc + run] -= 1
            cycle += run
            pc += run
        else:
            hits[pc] += 1
            effect = step(cycle, pc, rc)
            if effect is not None:
                if effect is True:
                    break
                rc, rt = effect
            cycle += 1
            pc += 1
        if cycle > max_cycles:
            raise SimError(_BUDGET_MSG)
    running = 0
    for pc in range(n_instrs):
        running += empty_hits[pc]
        if running:
            hits[pc] += running
    return cycle, hits


def run_tta(sim):
    """Execute *sim*'s program; the TTA driver of every engine but checked.

    Native runs the whole program in one call of the C engine
    (:func:`repro.sim.native.native_run`); fast, and native where it
    degrades, step it in Python (:func:`_step_tta`).  Either way the
    run yields the per-pc hit vector that the statistics are computed
    from.  Bit- and cycle-exact with ``TTASimulator`` in checked mode,
    including every statistics counter and error text (enforced by the
    differential tests).
    """
    from repro.sim.tta_sim import TTAResult

    program = sim.program
    decoded = static_decode_tta(program)
    ran = _native_run(sim, sim.rfs)
    cycle, hits = ran if ran is not None else _step_tta(sim, decoded)
    rv = return_value_reg(program.machine)
    stats = TTAResult(sim.rfs[rv.rf][rv.idx], cycle + 1)
    for count, (_, _, _, counts, _) in zip(hits, decoded):
        if count:
            stats.moves += count * counts[0]
            stats.triggers += count * counts[1]
            stats.rf_reads += count * counts[2]
            stats.bypass_reads += count * counts[3]
            stats.rf_writes += count * counts[4]
    # profiling hooks: the hit vector already drives the statistics
    sim._last_hits = hits
    sim._last_engine = _engine_label(sim, ran is not None)
    return stats


def _step_vliw(sim, decoded, rfs) -> tuple[int, list[int]]:
    """``(halt cycle, hits)`` of *sim*'s program stepped in Python, one
    bundle per cycle through the operations bound lazily for its pc
    (:func:`_bind_vliw_op`)."""
    machine = sim.program.machine
    jl1 = machine.jump_latency + 1
    heap = sim._pending_slot_writes
    max_cycles = sim.max_cycles
    n_instrs = len(decoded)
    hits = [0] * n_instrs
    steps = [None] * n_instrs
    pc = 0
    cycle = 0
    rc = -1  # pending redirect fire cycle (-1 = none)
    rt = 0  # its target
    while True:
        # commit the register writes whose write-back cycle has passed
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
            step = steps[pc] = tuple(_bind_vliw_op(op, sim, rfs, jl1) for op in decoded[pc])
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
            return cycle, hits
        cycle += 1
        pc += 1
        if cycle > max_cycles:
            raise SimError(_BUDGET_MSG)


def run_vliw(sim):
    """Execute *sim*'s program; the VLIW driver of every engine but checked.

    Native or Python stepping as in :func:`run_tta`.  Bit- and
    cycle-exact with ``VLIWSimulator`` in checked mode, including the
    exposed delayed-write-back semantics (a violated schedule still
    reads the stale value).
    """
    from repro.sim.vliw_sim import VLIWResult

    program = sim.program
    decoded = static_decode_vliw(program)
    machine = program.machine
    rfs = {rf.name: [0] * rf.size for rf in machine.register_files}
    try:
        ran = _native_run(sim, rfs)
        cycle, hits = ran if ran is not None else _step_vliw(sim, decoded, rfs)
    finally:
        # callers see the registers in every mode, after an error too
        sim._sync_regs_from_fast(rfs)
    rv = return_value_reg(machine)
    result = VLIWResult(rfs[rv.rf][rv.idx], cycle + 1, cycle + 1)
    result.ops = sum(count * len(bundle) for count, bundle in zip(hits, decoded))
    sim._last_hits = hits
    sim._last_engine = _engine_label(sim, ran is not None)
    return result
