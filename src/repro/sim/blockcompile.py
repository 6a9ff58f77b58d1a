"""Basic-block-compiled "turbo" simulation engine with block chaining.

The pre-decoded fast engine (:mod:`repro.sim.predecode`) removed
per-cycle re-verification but still walks tuples of bound closures every
cycle.  This module holds the turbo engine, ``mode="turbo"``, which

1. partitions the pre-decoded TTA/VLIW program into **basic blocks**
   (control-transfer boundaries *including their exposed delay-slot
   windows*, ``halt`` instructions, program end);
2. generates **specialized Python source per block**: register-file and
   bus traffic become local list indexing, ALU semantics from
   :data:`~repro.sim.predecode.ALU_FUNCS` are inlined as expressions,
   a function-unit result read inside the block that pushed it is
   forwarded statically (see :func:`_walk_tta`), and all
   loop-invariant lookups (register files, function units, memory
   load/store, helpers) are hoisted into default arguments bound once;
3. compiles each block once with :func:`compile`/``exec`` (code objects
   are cached on ``Program.predecode_cache`` so every simulator instance
   of one linked program shares them) and hands them to the shared
   stepping driver (:func:`~repro.sim.predecode.run_tta` /
   :func:`~repro.sim.predecode.run_vliw`) as its **block source**
   (:func:`turbo_blocks`), which chains them through a dispatch table
   keyed on the entry pc.

Dynamic, data-dependent checks stay in the generated code and in the
driver loop: reading a function-unit result before it is due,
non-monotonic result completion, overlapping control transfers, PC range
and the cycle budget all still raise :class:`SimError`/``ValueError``
with the reference engine's exact messages at the exact cycle.  All
*structural* properties are already guaranteed by
:func:`~repro.sim.predecode.static_decode_tta` /
``static_decode_vliw``, which turbo runs first.

What a block does is decided once per core style, by the block walkers
:func:`_walk_tta` and :func:`_walk_vliw`.  They print through a printer
that supplies only syntax: :class:`_PyBlock` here, and the C printer of
:mod:`repro.sim.cgen`, so the native engine compiles the same blocks.

Anything the code generator cannot prove static has no block, and the
driver steps it one precise cycle at a time exactly as the fast engine
does (so do carried-over redirects and out-of-range pcs), so turbo is
never less general than ``mode="fast"``.  The differential tests in
``tests/test_blockcompile.py`` assert byte-identical results -- exit
code, cycles and every statistic counter -- against ``mode="checked"``
for every kernel x machine pair in both styles.

The scalar core's block engine lives here too (:func:`scalar_blocks`,
walked by :func:`_walk_scalar` through the same Python printer).  A
scalar block is straight-line code up to its first control operation;
its stall cost is static except for a conditional branch's
taken/untaken extra, so each block adds one constant to the cycle count
and its instruction, load and store counts are folded in after the run
from its execution count.  The scalar driver
(:class:`~repro.sim.scalar_sim.ScalarSimulator`) steps precisely --
through the reference interpreter -- wherever a block has no code or
could cross the cycle budget.
"""

from __future__ import annotations

from heapq import heappop as _heappop

from repro import obs
from repro.backend.mop import Imm, PhysReg
from repro.backend.program import Program
from repro.isa.operations import OPS, OpKind
from repro.isa.semantics import MASK32, sext8, sext16
from repro.sim.errors import SimError
from repro.sim.predecode import (
    _CONTROL_OPS,
    _LOADS,
    _STORES,
    ALU_FUNCS,
    static_decode_tta,
    static_decode_vliw,
)
from repro.sim.scalar_sim import ENDS_BLOCK, static_cost

#: Version token for the simulation-engine family.  It participates in
#: the pipeline artifact fingerprint (:mod:`repro.pipeline.fingerprint`)
#: so a cached sweep result can never mask a codegen semantics change:
#: bump this whenever the semantics of any engine (checked / fast /
#: turbo / native) or of the generated block or C code could
#: change.  It also keys the native engine's stored shared objects.
SIM_ENGINE_VERSION = 5

#: cache keys on ``Program.predecode_cache`` for compiled block code
_TTA_TURBO_KEY = "tta-turbo"
_VLIW_TURBO_KEY = "vliw-turbo"
_SCALAR_KEY = "scalar-blocks"

#: soft cap on block length before any control transfer is seen
_MAX_BLOCK = 256

#: ALU opcodes inlined as Python expressions.  Each template must agree
#: bit-exactly with ``predecode.ALU_FUNCS`` (differential tests enforce
#: it); ``{a}`` is the trigger/first operand, ``{b}`` the second.
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

#: helper names each ALU template needs in the generated namespace
_ALU_HELPERS = {
    "sxhw": ("_sx16",),
    "sxqw": ("_sx8",),
}


class _Unsupported(Exception):
    """Raised by a block walker for anything not provably static; the
    block is then not compiled and the driver steps it precisely."""


def _cexpr(k: int) -> str:
    return "c" if k == 0 else f"c + {k}"


def _param_maps(machine):
    """Deterministic short local names for the machine's RFs and FUs."""
    rf_param = {rf.name: f"r{i}" for i, rf in enumerate(machine.register_files)}
    fu_param = {fu.name: f"f{i}" for i, fu in enumerate(machine.all_units)}
    return rf_param, fu_param


def _assemble(lines, prologue, used, tag):
    """Build the block function source and compile it.

    The generated function receives the entry cycle ``c``.  A TTA/VLIW
    block returns a ``(status, pc, cycle, redirect_cycle,
    redirect_target)`` tuple: status 0 = fell through (a still-pending
    redirect may be carried), status 1 = redirect consumed at block end
    (pc is the target), status 3 = halted (cycle is the halt cycle).  A
    scalar block returns ``(next pc, cycle)``, with pc ``None`` once
    halted.  Everything else the block touches -- register-file lists, FU
    objects, memory accessors, the execution counter ``_x`` -- is bound
    once as a default argument, so the body runs on locals only.
    """
    params = ["c", "_x=_x"]
    params.extend(f"{name}={name}" for name in sorted(used))
    header = "def _b(" + ", ".join(params) + "):"
    body = "\n".join("    " + line for line in prologue + lines)
    source = header + "\n" + body + "\n"
    return source, compile(source, f"<turbo:{tag}>", "exec")


# ---------------------------------------------------------------------------
# block partitioning and op predicates
# ---------------------------------------------------------------------------


def _partition(start, n_instrs, jl, has_halt, has_ctl):
    """Find the block length from *start* and whether it is halt-terminal.

    A halt instruction is always the last of its block.  The first
    control transfer at relative index ``k`` extends the block through
    its delay-slot window to ``k + jl`` inclusive, so its redirect fires
    exactly at block end; later control transfers inside the window
    either trap as overlapping or carry their pending redirect out
    through the fall-through exit.
    """
    n = 0
    end_rel = None
    halts = False
    while start + n < n_instrs:
        p = start + n
        n += 1
        if has_halt(p):
            halts = True
            break
        if end_rel is None and has_ctl(p):
            end_rel = (n - 1) + jl
        if end_rel is not None:
            if n - 1 >= end_rel:
                break
        elif n >= _MAX_BLOCK:
            break
    return n, halts, end_rel is not None


def _op_predicates(style, decoded):
    """``(has_halt, has_ctl, has_call)`` over a style's static decode,
    each a pc predicate closed over the decoded tuples."""
    if style == "tta":

        def has_halt(p):
            return any(op == "halt" for _, _, op in decoded[p][2])

        def has_ctl(p):
            return any(op in _CONTROL_OPS for _, _, op in decoded[p][2])

        def has_call(p):
            return any(op == "call" for _, _, op in decoded[p][2])

    else:

        def has_halt(p):
            return any(op[0] == "halt" for op in decoded[p])

        def has_ctl(p):
            return any(op[0] in _CONTROL_OPS for op in decoded[p])

        def has_call(p):
            return any(op[0] == "call" for op in decoded[p])

    return has_halt, has_ctl, has_call


def _vliw_max_latency(decoded) -> int:
    """Longest write-back latency of any result-writing op in the
    program; bounds how far external in-flight writes can reach into a
    block, so heap drains beyond relative index ``maxlat`` are elided."""
    return max(
        (op[3] for bundle in decoded for op in bundle if op[2] is not None),
        default=0,
    )


def _tta_pcap(decoded) -> int:
    """Per-FU pending-ring capacity: a power of two above the longest
    result latency plus two (the due-window bound)."""
    maxlat = 1  # getra pushes at cycle + 1
    for _rf_moves, _o1_moves, trig_moves, _counts, _fu_reads in decoded:
        for _src, _fu, opcode in trig_moves:
            spec = OPS.get(opcode)
            if spec is not None and spec.latency > maxlat:
                maxlat = spec.latency
    pcap = 8
    while pcap < maxlat + 2:
        pcap *= 2
    return pcap


# ---------------------------------------------------------------------------
# block walkers: what a block does, once per core style.  A walker visits
# every move or op of the block once and emits through a printer -- the
# Python one below (turbo) or the C one in repro.sim.cgen (native) -- which
# supplies only syntax.  A walker returns the printer's ``finish`` result,
# or ``None`` when the block cannot be compiled.
# ---------------------------------------------------------------------------


def _walk_tta(out, decoded, start, jl, has_halt, has_ctl, pcap):
    """One TTA block in the four-phase move order of one cycle.

    Static FU-result forwarding: the scheduler bypasses results in
    software, so a result is read a fixed latency after its trigger,
    inside the same block.  Until a unit's first forwarded read its
    pending list may hold carried-in entries the block cannot see, so its
    pushes are dynamic (``out.fu_push``).  A read with an in-block push
    due by then is forwarded to the latest such temp (``out.fu_forward``;
    pushes are monotonic, so every carried-in entry commits too), and from
    then on the unit's list is known: a read commits its due entries
    (``out.fu_commit``), a push appends (``out.fu_append``) or, statically
    non-monotonic, raises (``out.fu_push_error``), and a list of *pcap*
    entries (the C ring's capacity) drains its due ones first.  Only a
    read with no in-block push due by then is dynamic (``out.fu_read``).
    The printers keep each unit's state in memory exact at every step.

    The reference samples every source of an instruction before it
    latches or triggers anything, so each instruction first reads every
    unit it reads, once each, in move order.
    """
    n, halts, _any_ctl = _partition(start, len(decoded), jl, has_halt, has_ctl)
    if n == 0:
        return None
    jl1 = jl + 1
    redirects = False
    #: per FU: in-block pushes until its first forwarded read, then its
    #: exact pending list and the temp in its result register
    pushes: dict[str, list] = {}
    rings: dict[str, list] = {}
    results: dict[str, str] = {}
    #: the current instruction's units read up front, and their temps
    sampled: dict[str, str] = {}

    def commit(fu, ring, k):
        n_due = sum(d <= k for d, _ in ring)  # dues increase along the list
        if n_due:
            results[fu] = ring[n_due - 1][1]
            del ring[:n_due]
            out.fu_commit(fu, n_due, ring, results[fu])

    def fu_read(fu, k):
        if fu in sampled:
            return sampled[fu]
        if fu in rings:
            commit(fu, rings[fu], k)
            return results[fu]
        due = [t for d, t in pushes.get(fu, ()) if d <= k]
        if not due:
            return out.fu_read(fu, k)
        ring = rings[fu] = [(d, t) for d, t in pushes.pop(fu) if d > k]
        results[fu] = due[-1]
        out.fu_forward(fu, ring, due[-1])
        return due[-1]

    def fu_push(fu, k, due_rel, t):
        ring = rings.get(fu)
        if ring is None:
            out.fu_push(fu, k, due_rel, t)
            pushes.setdefault(fu, []).append((due_rel, t))
        elif ring and due_rel <= ring[-1][0]:
            out.fu_push_error(fu, due_rel, ring[-1][0])
        else:
            if len(ring) == pcap:
                commit(fu, ring, k)
                if len(ring) == pcap:  # unreachable by the due-window bound
                    raise _Unsupported(fu)
            ring.append((due_rel, t))
            out.fu_append(fu, ring)

    def value(src, k):
        kind = src[0]
        if kind == "imm":
            return out.imm(src[1])
        if kind == "rf":
            return out.rf(src[1], src[2])
        return fu_read(src[1], k)

    def sample(src, k):
        # value sampled for side effects/errors only
        if src[0] == "fu":
            fu_read(src[1], k)

    def redirect(k, target):
        nonlocal redirects
        if redirects:
            out.ctl_check()
        out.assign("rc", f"c + {k + jl1}")
        out.assign("rt", target)
        redirects = True

    try:
        for k in range(n):
            p = start + k
            rf_moves, o1_moves, trig_moves, _counts, fu_reads = decoded[p]
            sampled.clear()
            for fu in fu_reads:
                sampled[fu] = fu_read(fu, k)
            # phase 1: sample every RF-bound source into a temp *before*
            # any latch, trigger or commit of this cycle can run, so an
            # aliasing write (RF[1]->RF[2]; RF[2]->RF[3]) still reads the
            # pre-cycle value.
            commits = []
            for src, rf, idx in rf_moves:
                dest = out.rf(rf, idx)
                e = value(src, k)
                commits.append((dest, out.temp(e) if src[0] == "rf" else e))
            # phase 2: operand-port latches
            for src, fu in o1_moves:
                out.assign(out.o1(fu), value(src, k))
            # phase 3: triggers, in move order
            for src, fu, opcode in trig_moves:
                o1 = out.o1(fu)
                if opcode == "halt":
                    sample(src, k)
                elif opcode == "getra":
                    sample(src, k)
                    fu_push(fu, k, k + 1, out.temp(out.ra()))
                elif opcode == "setra":
                    out.assign(out.ra(), value(src, k))
                elif opcode == "jump":
                    redirect(k, value(src, k))
                elif opcode == "call":
                    target = value(src, k)
                    out.assign(out.ra(), out.imm(p + jl1))
                    redirect(k, target)
                elif opcode == "ret":
                    sample(src, k)
                    redirect(k, out.ra())
                elif opcode in ("cjump", "cjumpz"):
                    out.begin_if(value(src, k), negate=opcode == "cjumpz")
                    redirect(k, o1)
                    out.end_if()
                else:
                    spec = OPS.get(opcode)
                    if spec is None:
                        raise _Unsupported(opcode)
                    if spec.kind is OpKind.LSU:
                        addr = value(src, k)
                        if spec.writes_mem:
                            out.store(opcode, addr, o1)
                        else:
                            t = out.load(opcode, addr)
                            fu_push(fu, k, k + spec.latency, t)
                        continue
                    if opcode not in ALU_FUNCS or spec.latency < 1:
                        raise _Unsupported(opcode)
                    b = o1 if spec.operands == 2 else None
                    t = out.temp(out.alu(opcode, value(src, k), b))
                    fu_push(fu, k, k + spec.latency, t)
            # phase 4: RF write commit
            for dest, e in commits:
                out.assign(dest, e)
    except _Unsupported:
        return None
    return out.finish(start, n, halts, redirects)


def _walk_vliw(out, decoded, start, jl, has_halt, has_ctl, maxlat):
    """One VLIW block: ops in issue order, write-backs applied in place."""
    n, halts, _any_ctl = _partition(start, len(decoded), jl, has_halt, has_ctl)
    if n == 0:
        return None
    jl1 = jl + 1
    redirects = False
    #: textual write-back application points inside the block:
    #: rel index -> [(rf, idx, temp)] in issue order
    apply_at: dict[int, list] = {}
    #: writes whose application point falls past block end, issue order
    exit_writes: list[tuple[int, str, int, str]] = []

    def value(src):
        if src[0] == "imm":
            return out.imm(src[1])
        return out.rf(src[1], src[2])

    def write(due_rel, dest, t):
        """A write due at ``c + due_rel`` becomes visible one cycle
        later.  Inside the block it is applied textually (bypassing the
        write-back queue); past block end it is queued at exit in issue
        order, which preserves the fast engine's sequence numbering for
        same-due writes."""
        point = due_rel + 1
        if point <= n - 1:
            apply_at.setdefault(point, []).append((dest[0], dest[1], t))
        else:
            exit_writes.append((due_rel, dest[0], dest[1], t))

    def redirect(k, target):
        nonlocal redirects
        if redirects:
            out.ctl_check()
        out.assign("rc", f"c + {k + jl1}")
        out.assign("rt", target)
        redirects = True

    try:
        for k in range(n):
            # external in-flight writes (due <= entry_cycle - 1 + maxlat)
            # can only land within the first maxlat instructions
            if k <= maxlat:
                out.drain(k)
            for rf, idx, t in apply_at.get(k, ()):
                out.assign(out.rf(rf, idx), t)
            for name, srcs, dest, lat in decoded[start + k]:
                if name == "halt":
                    continue
                if name == "jump":
                    redirect(k, value(srcs[0]))
                elif name == "call":
                    target = value(srcs[0])
                    out.assign(out.ra(), out.imm(start + k + jl1))
                    redirect(k, target)
                elif name == "ret":
                    redirect(k, out.ra())
                elif name in ("cjump", "cjumpz"):
                    target = value(srcs[1])
                    out.begin_if(value(srcs[0]), negate=name == "cjumpz")
                    redirect(k, target)
                    out.end_if()
                elif lat < 0:
                    raise _Unsupported(name)
                elif name in _LOADS:
                    write(k + lat, dest, out.load(name, value(srcs[0])))
                elif name in _STORES:
                    out.store(name, value(srcs[0]), value(srcs[1]))
                elif name == "setra":
                    out.assign(out.ra(), value(srcs[0]))
                elif name == "getra":
                    write(k + lat, dest, out.temp(out.ra()))
                elif name == "copy":
                    write(k + lat, dest, out.temp(value(srcs[0])))
                elif name not in ALU_FUNCS:
                    raise _Unsupported(name)
                else:
                    b = value(srcs[1]) if len(srcs) == 2 else None
                    expr = out.alu(name, value(srcs[0]), b)
                    write(k + lat, dest, out.temp(expr))
    except _Unsupported:
        return None
    for due_rel, rf, idx, t in exit_writes:
        out.exit_write(due_rel, rf, idx, t)
    # a halting block flushes every in-flight write so the exit code is final
    return out.finish(start, n, halts, redirects, flush=halts)


#: scalar operations that write no register
_NO_DEST = ENDS_BLOCK | _STORES | {"setra"}


def _walk_scalar(out, instrs, start, machine):
    """One scalar block: ops in program order through the first control
    operation, or up to (not including) the first op that reads or
    writes anything but an immediate or a register of *machine* (an
    unresolved operand, an unknown opcode), which the interpreter steps.

    Returns ``(worst-case cycles, ops, loads, stores, source, code)``.
    """
    timing = machine.scalar_timing
    sizes = {rf.name: rf.size for rf in machine.register_files}

    def reg(r):
        if isinstance(r, PhysReg) and 0 <= r.idx < sizes.get(r.rf, 0):
            return out.rf(r.rf, r.idx)
        raise _Unsupported(r)

    def value(src):
        if isinstance(src, Imm):
            return out.imm(src.value & MASK32)
        return reg(src)

    cost = n = loads = stores = 0
    end = min(len(instrs), start + _MAX_BLOCK)
    while start + n < end:
        pc = start + n
        op = instrs[pc]
        name = op.op
        srcs = op.srcs
        try:
            # every operand the interpreter reads, before anything is printed
            if name in ("jump", "call", "setra", "copy") or name in _LOADS:
                a = value(srcs[0])
            elif name in ("cjump", "cjumpz") or name in _STORES:
                a, b = value(srcs[0]), value(srcs[1])
            elif name in _ALU_EXPR:
                operands = [value(src) for src in srcs]
                a = operands[0]
                b = operands[1] if len(operands) > 1 else "0"
            elif name not in ("ret", "halt", "getra"):
                raise _Unsupported(name)
            dest = None if name in _NO_DEST else reg(op.dest)
        except (_Unsupported, IndexError):
            break
        n += 1
        op_cost = cost + static_cost(op, machine)
        if name in ENDS_BLOCK:
            out.count(0)
            if name == "halt":
                out.leave("None", cost)
            elif name in ("cjump", "cjumpz"):
                taken = op_cost + timing.taken_branch_extra
                untaken = op_cost + timing.untaken_branch_extra
                static_target = isinstance(srcs[1], Imm)
                target = b if static_target else out.temp(b)
                out.begin_if(a, negate=name == "cjumpz")
                # a taken branch to the next op does not count as taken
                if not static_target:
                    out.count(1, f"{target} != {pc + 1}")
                elif srcs[1].value & MASK32 != pc + 1:
                    out.count(1)
                out.leave(target, taken)
                out.end_if()
                out.leave(repr(pc + 1), untaken)
                cost = max(taken, untaken)
            else:
                if name == "call":
                    out.assign(out.ra(), out.imm(pc + 1))
                out.leave(out.ra() if name == "ret" else a, op_cost)
                cost = op_cost
            return cost, n, loads, stores, *out.compiled(start)
        cost = op_cost
        if name in _LOADS:
            out.assign(dest, out.load(name, a))
            loads += 1
        elif name in _STORES:
            out.store(name, a, b)
            stores += 1
        elif name == "copy":
            out.assign(dest, a)
        elif name == "getra":
            out.assign(dest, out.ra())
        elif name == "setra":
            out.assign(out.ra(), a)
        else:
            out.assign(dest, out.alu(name, a, b))
    if n == 0:
        return None
    out.count(0)
    out.leave(repr(start + n), cost)
    return cost, n, loads, stores, *out.compiled(start)


# ---------------------------------------------------------------------------
# the Python printer (turbo)
# ---------------------------------------------------------------------------


class _PyBlock:
    """Prints one block as a Python function (see :func:`_assemble`).

    Register files, FUs and helpers are referenced by short local names
    and recorded in ``used``, which binds each once as a default
    argument.  The walker decides every FU result read and push (see
    :func:`_walk_tta`); a dynamic one open-codes ``_FU.commit`` /
    ``_FU.push`` on the unit's ``pending`` list, raising exactly what the
    reference engine raises, and a forwarded one writes the unit's
    ``pending``, ``result`` and ``has_result`` as they change.
    """

    __slots__ = ("style", "rf_param", "fu_param", "lines", "used", "ind", "ntemp")

    def __init__(self, style, rf_param, fu_param):
        self.style = style
        self.rf_param = rf_param
        self.fu_param = fu_param
        self.lines: list[str] = []
        self.used: set[str] = set()
        self.ind = ""
        self.ntemp = 0

    def _emit(self, s):
        self.lines.append(self.ind + s)

    def _newtemp(self):
        self.ntemp += 1
        return f"t{self.ntemp}"

    def _fu(self, fu):
        f = self.fu_param[fu]
        self.used.add(f)
        return f

    def imm(self, v):
        return repr(v)

    def rf(self, rf, idx):
        rp = self.rf_param[rf]
        self.used.add(rp)
        return f"{rp}[{idx}]"

    def temp(self, expr):
        t = self._newtemp()
        self._emit(f"{t} = {expr}")
        return t

    def ra(self):
        self.used.add("_sim")
        return "_sim.ra"

    def o1(self, fu):
        return f"{self._fu(fu)}.o1"

    def assign(self, lhs, rhs):
        self._emit(f"{lhs} = {rhs}")

    def fu_read(self, fu, k):
        """A dynamic read: ``_FU.commit``, then read or raise exactly
        like ``fu_unavailable_error``."""
        f = self._fu(fu)
        self.used.add("_ua")
        C = _cexpr(k)
        t = self._newtemp()
        self._emit(f"_p = {f}.pending")
        self._emit(f"while _p and _p[0][0] <= {C}:")
        self._emit(f"    {f}.result = _p.pop(0)[1]")
        self._emit(f"    {f}.has_result = True")
        self._emit(f"if not {f}.has_result:")
        self._emit(f"    raise _ua({f}, {C})")
        self._emit(f"{t} = {f}.result")
        return t

    def fu_push(self, fu, k, due_rel, val):
        """A dynamic push: ``_FU.push`` with the reference error message."""
        f = self._fu(fu)
        due = f"c + {due_rel}"
        self._emit(f"_p = {f}.pending")
        self._emit(f"if _p and {due} <= _p[-1][0]:")
        self._emit(
            "    raise ValueError('%s: result due %s not after pending %s'"
            f" % ({f}.name, {due}, _p[-1][0]))"
        )
        self._emit(f"_p.append(({due}, {val}))")

    def fu_forward(self, fu, ring, result):
        f = self._fu(fu)
        pending = ", ".join(f"({_cexpr(d)}, {t})" for d, t in ring)
        self._emit(f"{f}.pending = [{pending}]")
        self._emit(f"{f}.result = {result}")
        self._emit(f"{f}.has_result = True")

    def fu_commit(self, fu, n_due, ring, result):
        f = self._fu(fu)
        self._emit(f"del {f}.pending[:{n_due}]")
        self._emit(f"{f}.result = {result}")

    def fu_append(self, fu, ring):
        d, t = ring[-1]
        self._emit(f"{self._fu(fu)}.pending.append(({_cexpr(d)}, {t}))")

    def fu_push_error(self, fu, due_rel, last_rel):
        self._emit(
            "raise ValueError('%s: result due %s not after pending %s'"
            f" % ({self._fu(fu)}.name, {_cexpr(due_rel)}, {_cexpr(last_rel)}))"
        )

    def load(self, op, addr):
        self.used.add(f"_{op}")
        return self.temp(f"_{op}({addr})")

    def store(self, op, addr, val):
        self.used.add(f"_{op}")
        self._emit(f"_{op}({addr}, {val})")

    def alu(self, op, a, b):
        self.used.update(_ALU_HELPERS.get(op, ()))
        return _ALU_EXPR[op].format(a=a, b=b)

    def ctl_check(self):
        self.used.add("_se")
        self._emit("if rc >= 0:")
        self._emit("    raise _se('overlapping control transfers')")

    def begin_if(self, cond, negate):
        self._emit(f"if not ({cond}):" if negate else f"if {cond}:")
        self.ind = "    "

    def end_if(self):
        self.ind = ""

    def _drain_while(self, cond):
        self.used.update(("_hp", "_hpop"))
        self._emit(f"while {cond}:")
        self._emit("    _w = _hpop(_hp)")
        self._emit("    _w[2][_w[3]] = _w[4]")

    def drain(self, k):
        self._drain_while(f"_hp and _hp[0][0] < {_cexpr(k)}")

    def exit_write(self, due_rel, rf, idx, t):
        self.used.add("_wl")
        rp = self.rf_param[rf]
        self.used.add(rp)
        self._emit(f"_wl({_cexpr(due_rel)}, {rp}, {idx}, {t})")

    def finish(self, start, n, halts, redirects, flush=False):
        """``(length, halts, source, code)`` of the finished block."""
        self._emit("_x[0] += 1")
        if halts:
            if flush:
                self._drain_while("_hp")
            self._emit(f"return (3, 0, {_cexpr(n - 1)}, -1, 0)")
        elif redirects:
            self._emit(f"if rc == c + {n}:")
            self._emit(f"    return (1, rt, c + {n}, -1, 0)")
            self._emit(f"return (0, {start + n}, c + {n}, rc, rt)")
        else:
            self._emit(f"return (0, {start + n}, c + {n}, -1, 0)")
        prologue = ["rc = -1", "rt = 0"] if redirects else []
        return (n, halts, *self.compiled(start, prologue))

    def count(self, slot, by="1"):
        """Add *by* to slot *slot* of the block's counter ``_x``."""
        self._emit(f"_x[{slot}] += {by}")

    def leave(self, pc, k):
        """A scalar block exit: continue at *pc* with ``c + k`` cycles."""
        self._emit(f"return ({pc}, {_cexpr(k)})")

    def compiled(self, start, prologue=()):
        """``(source, code)`` of the printed block."""
        return _assemble(self.lines, list(prologue), self.used, f"{self.style}:{start}")


def _compile_tta_block(
    program: Program, start: int, decoded, preds, rf_param, fu_param, pcap
):
    """Generate + compile one TTA basic block; ``None`` if unsupported."""
    out = _PyBlock("tta", rf_param, fu_param)
    jl = program.machine.jump_latency
    return _walk_tta(out, decoded, start, jl, *preds, pcap)


def _compile_vliw_block(program: Program, start: int, decoded, preds, rf_param, maxlat):
    """Generate + compile one VLIW basic block; ``None`` if unsupported."""
    out = _PyBlock("vliw", rf_param, {})
    jl = program.machine.jump_latency
    return _walk_vliw(out, decoded, start, jl, *preds, maxlat)


def _compile_scalar_block(program: Program, start: int, rf_param):
    """Generate + compile one scalar block; ``None`` if unsupported."""
    out = _PyBlock("scalar", rf_param, {})
    return _walk_scalar(out, program.instrs, start, program.machine)


# ---------------------------------------------------------------------------
# turbo's block source
# ---------------------------------------------------------------------------


def _block_compiler(program: Program):
    """``(compile function, code-cache key, its trailing arguments)`` for
    *program*'s style; every compile function is called as
    ``compile_block(program, start, *args)``."""
    rf_param, fu_param = _param_maps(program.machine)
    if program.style == "scalar":
        return _compile_scalar_block, _SCALAR_KEY, (rf_param,)
    if program.style == "tta":
        decoded = static_decode_tta(program)
        preds = _op_predicates("tta", decoded)[:2]
        args = (decoded, preds, rf_param, fu_param, _tta_pcap(decoded))
        return _compile_tta_block, _TTA_TURBO_KEY, args
    decoded = static_decode_vliw(program)
    preds = _op_predicates("vliw", decoded)[:2]
    maxlat = _vliw_max_latency(decoded)
    return _compile_vliw_block, _VLIW_TURBO_KEY, (decoded, preds, rf_param, maxlat)


def _block_cache(program: Program, key: str) -> dict:
    cache = program.predecode_cache.get(key)
    if cache is None:
        cache = program.predecode_cache[key] = {}
    return cache


def tta_block_source(program: Program, start: int) -> str | None:
    """Generated source of the block starting at *start* (debugging and
    tests); ``None`` when the block falls back to precise stepping.
    Serves every style; ``vliw_block_source`` and ``scalar_block_source``
    are the same function."""
    compile_block, key, args = _block_compiler(program)
    cache = _block_cache(program, key)
    if start not in cache:
        cache[start] = compile_block(program, start, *args)
    entry = cache[start]
    return None if entry is None else entry[-2]


vliw_block_source = scalar_block_source = tta_block_source


def _namespace(sim, rfs, rf_param) -> dict:
    """The names every generated block may bind: *sim*, its memory
    accessors, the ALU helpers and its register files."""
    ns = {
        "_sim": sim,
        "_se": SimError,
        "_sx16": sext16,
        "_sx8": sext8,
    }
    for op in _LOADS | _STORES:
        ns[f"_{op}"] = sim.memory.accessor(op)
    for name, param in rf_param.items():
        ns[param] = rfs[name]
    return ns


def _bind_blocks(program: Program, ns: dict, counter, tag: str):
    """``(blocks, materialize, bound)`` over *program*'s cached block code:
    each entry pc's block is compiled once per program, on first entry
    (in a ``sim.<tag>.codegen`` span, its source counted in
    ``sim.<tag>.source_bytes``), and bound to *ns* with a fresh execution
    counter ``counter()``; ``bound`` lists ``(start, cache entry,
    counter)`` per bound block."""
    compile_block, key, args = _block_compiler(program)
    code_cache = _block_cache(program, key)
    blocks: dict[int, tuple | None] = {}
    bound: list[tuple[int, tuple, list]] = []

    def materialize(pc):
        if pc in code_cache:
            entry = code_cache[pc]
            obs.count(f"sim.{tag}.block_cache_hits")
        else:
            with obs.span(f"sim.{tag}.codegen"):
                entry = code_cache[pc] = compile_block(program, pc, *args)
            obs.count(f"sim.{tag}.blocks_compiled")
            if entry is not None:
                obs.count(f"sim.{tag}.source_bytes", len(entry[-2]))
        if entry is None:
            blocks[pc] = None
            obs.count(f"sim.{tag}.fallback_blocks")
            return None
        ns["_x"] = x = counter()
        exec(entry[-1], ns)  # noqa: S102 - self-generated, cached block code
        blk = blocks[pc] = (entry[0], ns.pop("_b"))
        bound.append((pc, entry, x))
        return blk

    return blocks, materialize, bound


def turbo_blocks(sim, rfs):
    """Turbo's block source (see :func:`repro.sim.predecode.block_source_for`):
    each entry pc's block is compiled once per program, on first entry,
    and bound to *sim*'s state."""
    program = sim.program
    rf_param, fu_param = _param_maps(program.machine)
    ns = _namespace(sim, rfs, rf_param)
    if program.style == "tta":
        from repro.sim.tta_sim import fu_unavailable_error

        ns["_ua"] = fu_unavailable_error
        for name, param in fu_param.items():
            ns[param] = sim.fus[name]
    else:
        ns["_hp"] = sim._pending_slot_writes
        ns["_hpop"] = _heappop
        ns["_wl"] = sim._write_later_slot
    blocks, materialize, bound = _bind_blocks(program, ns, lambda: [0], "turbo")

    def finish():
        return [(start, entry[0], x[0]) for start, entry, x in bound]

    return blocks, materialize, finish


def scalar_blocks(sim):
    """The scalar core's block source, shaped like :func:`turbo_blocks`:
    ``blocks`` maps an entry pc to ``(worst-case cycles, enter)``, where
    ``enter(cycle)`` returns ``(next pc, cycle)`` (pc ``None`` once
    halted), and ``finish()`` returns the ``(instructions, loads,
    stores, taken_branches)`` the blocks retired."""
    rf_param, _ = _param_maps(sim.program.machine)
    ns = _namespace(sim, sim.rfs, rf_param)
    blocks, materialize, bound = _bind_blocks(sim.program, ns, lambda: [0, 0], "scalar")

    def finish():
        totals = [0, 0, 0, 0]
        for _start, (_worst, ops, loads, stores, *_), (runs, taken) in bound:
            totals[0] += runs * ops
            totals[1] += runs * loads
            totals[2] += runs * stores
            totals[3] += taken
        return totals

    return blocks, materialize, finish
