"""Basic-block-compiled "turbo" simulation engine with block chaining.

The pre-decoded fast engine (:mod:`repro.sim.predecode`) removed
per-cycle re-verification but still walks tuples of bound closures every
cycle.  This module adds a third execution mode, ``mode="turbo"``, that

1. partitions the pre-decoded TTA/VLIW program into **basic blocks**
   (control-transfer boundaries *including their exposed delay-slot
   windows*, ``halt`` instructions, program end);
2. generates **specialized Python source per block**: register-file and
   bus traffic become local list indexing, ALU semantics from
   :data:`~repro.sim.predecode.ALU_FUNCS` are inlined as expressions,
   function-unit result latching/pushing is open-coded, and all
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

Anything the code generator cannot prove static has no block, and the
driver steps it one precise cycle at a time exactly as the fast engine
does (so do carried-over redirects and out-of-range pcs), so turbo is
never less general than ``mode="fast"``.  The differential tests in
``tests/test_blockcompile.py`` assert byte-identical results -- exit
code, cycles and every statistic counter -- against ``mode="checked"``
for every kernel x machine pair in both styles.
"""

from __future__ import annotations

from heapq import heappop as _heappop

from repro import obs
from repro.backend.program import Program
from repro.isa.operations import OPS, OpKind
from repro.isa.semantics import sext8, sext16, to_signed
from repro.sim.errors import SimError
from repro.sim.predecode import (
    _VLIW_LOADS,
    _VLIW_STORES,
    static_decode_tta,
    static_decode_vliw,
)

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

#: soft cap on block length before any control transfer is seen
_MAX_BLOCK = 256

_TTA_CTL = frozenset({"jump", "call", "ret", "cjump", "cjumpz"})
_VLIW_CTL = _TTA_CTL

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
    "gt": "1 if _ts({a}) > _ts({b}) else 0",
    "gtu": "1 if {a} > {b} else 0",
    "shl": "({a} << ({b} & 31)) & 4294967295",
    "shru": "{a} >> ({b} & 31)",
    "shr": "(_ts({a}) >> ({b} & 31)) & 4294967295",
    "sxhw": "_sx16({a})",
    "sxqw": "_sx8({a})",
}

#: helper names each ALU template needs in the generated namespace
_ALU_HELPERS = {
    "gt": ("_ts",),
    "shr": ("_ts",),
    "sxhw": ("_sx16",),
    "sxqw": ("_sx8",),
}


class _Unsupported(Exception):
    """Raised during codegen for anything not provably static; the block
    is then materialised as ``None`` and the driver steps it precisely."""


def _cexpr(k: int) -> str:
    return "c" if k == 0 else f"c + {k}"


def _param_maps(machine):
    """Deterministic short local names for the machine's RFs and FUs."""
    rf_param = {rf.name: f"r{i}" for i, rf in enumerate(machine.register_files)}
    fu_param = {fu.name: f"f{i}" for i, fu in enumerate(machine.all_units)}
    return rf_param, fu_param


def _assemble(lines, prologue, used, tag):
    """Build the block function source and compile it.

    The generated function receives the entry cycle ``c`` and returns a
    ``(status, pc, cycle, redirect_cycle, redirect_target)`` tuple:
    status 0 = fell through (a still-pending redirect may be carried),
    status 1 = redirect consumed at block end (pc is the target),
    status 3 = halted (cycle is the halt cycle).
    Everything else the block touches -- register-file lists, FU
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
# TTA block compilation
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


def _compile_tta_block(program: Program, start: int, decoded, rf_param, fu_param):
    """Generate + compile one TTA basic block; ``None`` if unsupported."""
    machine = program.machine
    jl = machine.jump_latency
    jl1 = jl + 1
    n_instrs = len(decoded)

    def has_halt(p):
        return any(op == "halt" for _, _, op in decoded[p][2])

    def has_ctl(p):
        return any(op in _TTA_CTL for _, _, op in decoded[p][2])

    n, halts, any_ctl = _partition(start, n_instrs, jl, has_halt, has_ctl)
    if n == 0:
        return None

    lines: list[str] = []
    used: set[str] = set()
    tempc = [0]

    def emit(s, ind=""):
        lines.append(ind + s)

    def newtemp():
        tempc[0] += 1
        return f"t{tempc[0]}"

    def sample_fu(fu_name, C, ind=""):
        """Open-coded FU result read: commit due results, then read or
        raise exactly like ``_FU.commit`` + ``fu_unavailable_error``."""
        f = fu_param[fu_name]
        used.add(f)
        used.add("_ua")
        t = newtemp()
        emit(f"_p = {f}.pending", ind)
        emit(f"while _p and _p[0][0] <= {C}:", ind)
        emit(f"    {f}.result = _p.pop(0)[1]", ind)
        emit(f"    {f}.has_result = True", ind)
        emit(f"if not {f}.has_result:", ind)
        emit(f"    raise _ua({f}, {C})", ind)
        emit(f"{t} = {f}.result", ind)
        return t

    def value_expr(src, C, ind=""):
        kind = src[0]
        if kind == "imm":
            return repr(src[1])
        if kind == "rf":
            rp = rf_param[src[1]]
            used.add(rp)
            return f"{rp}[{src[2]}]"
        return sample_fu(src[1], C, ind)

    def emit_push(f, due, val, ind=""):
        """Open-coded ``_FU.push`` with the reference error message."""
        emit(f"_p = {f}.pending", ind)
        emit(f"if _p and {due} <= _p[-1][0]:", ind)
        emit(
            "    raise ValueError('%s: result due %s not after pending %s'"
            f" % ({f}.name, {due}, _p[-1][0]))",
            ind,
        )
        emit(f"_p.append(({due}, {val}))", ind)

    def emit_ctl_check(ind=""):
        used.add("_se")
        emit("if rc >= 0:", ind)
        emit("    raise _se('overlapping control transfers')", ind)

    ctl_emitted = False
    try:
        for k in range(n):
            p = start + k
            C = _cexpr(k)
            rf_moves, o1_moves, trig_moves, _counts = decoded[p]
            # phase 1: sample every RF-bound source into a temp *before*
            # any latch, trigger or commit of this cycle can run, so an
            # aliasing write (RF[1]->RF[2]; RF[2]->RF[3]) still reads the
            # pre-cycle value and early-FU-read errors keep their order.
            commits = []
            for src, rf, idx in rf_moves:
                rp = rf_param[rf]
                used.add(rp)
                if src[0] == "imm":
                    commits.append((rp, idx, repr(src[1])))
                elif src[0] == "rf":
                    sp = rf_param[src[1]]
                    used.add(sp)
                    t = newtemp()
                    emit(f"{t} = {sp}[{src[2]}]")
                    commits.append((rp, idx, t))
                else:
                    commits.append((rp, idx, sample_fu(src[1], C)))
            # phase 2: operand-port latches
            for src, fu in o1_moves:
                f = fu_param[fu]
                used.add(f)
                e = value_expr(src, C)
                emit(f"{f}.o1 = {e}")
            # phase 3: triggers, in move order
            for src, fu, opcode in trig_moves:
                f = fu_param[fu]
                used.add(f)
                if opcode == "halt":
                    # value sampled for side effects/errors only
                    if src[0] == "fu":
                        sample_fu(src[1], C)
                    continue
                if opcode == "getra":
                    if src[0] == "fu":
                        sample_fu(src[1], C)
                    used.add("_sim")
                    emit_push(f, f"c + {k + 1}", "_sim.ra")
                    continue
                if opcode == "setra":
                    e = value_expr(src, C)
                    used.add("_sim")
                    emit(f"_sim.ra = {e}")
                    continue
                if opcode == "jump":
                    e = value_expr(src, C)
                    if ctl_emitted:
                        emit_ctl_check()
                    emit(f"rc = c + {k + jl1}")
                    emit(f"rt = {e}")
                    ctl_emitted = True
                    continue
                if opcode == "call":
                    e = value_expr(src, C)
                    used.add("_sim")
                    emit(f"_sim.ra = {p + jl1}")
                    if ctl_emitted:
                        emit_ctl_check()
                    emit(f"rc = c + {k + jl1}")
                    emit(f"rt = {e}")
                    ctl_emitted = True
                    continue
                if opcode == "ret":
                    if src[0] == "fu":
                        sample_fu(src[1], C)
                    used.add("_sim")
                    if ctl_emitted:
                        emit_ctl_check()
                    emit(f"rc = c + {k + jl1}")
                    emit("rt = _sim.ra")
                    ctl_emitted = True
                    continue
                if opcode in ("cjump", "cjumpz"):
                    e = value_expr(src, C)
                    if opcode == "cjump":
                        emit(f"if {e}:")
                    else:
                        emit(f"if not ({e}):")
                    if ctl_emitted:
                        emit_ctl_check("    ")
                    emit(f"rc = c + {k + jl1}", "    ")
                    emit(f"rt = {f}.o1", "    ")
                    ctl_emitted = True
                    continue
                spec = OPS.get(opcode)
                if spec is None:
                    raise _Unsupported(opcode)
                if spec.kind is OpKind.LSU:
                    e = value_expr(src, C)
                    if spec.writes_mem:
                        used.add("_st")
                        emit(f"_st({opcode!r}, {e}, {f}.o1)")
                    else:
                        used.add("_ld")
                        t = newtemp()
                        emit(f"{t} = _ld({opcode!r}, {e})")
                        emit_push(f, f"c + {k + spec.latency}", t)
                    continue
                tmpl = _ALU_EXPR.get(opcode)
                if tmpl is None or spec.latency < 1:
                    raise _Unsupported(opcode)
                used.update(_ALU_HELPERS.get(opcode, ()))
                e = value_expr(src, C)
                if spec.operands == 2:
                    expr = tmpl.format(a=e, b=f"{f}.o1")
                else:
                    expr = tmpl.format(a=e)
                emit_push(f, f"c + {k + spec.latency}", expr)
            # phase 4: RF write commit
            for rp, idx, e in commits:
                emit(f"{rp}[{idx}] = {e}")
    except _Unsupported:
        return None

    emit("_x[0] += 1")
    if halts:
        emit(f"return (3, 0, {_cexpr(n - 1)}, -1, 0)")
    elif ctl_emitted:
        emit(f"if rc == c + {n}:")
        emit(f"    return (1, rt, c + {n}, -1, 0)")
        emit(f"return (0, {start + n}, c + {n}, rc, rt)")
    else:
        emit(f"return (0, {start + n}, c + {n}, -1, 0)")

    prologue = ["rc = -1", "rt = 0"] if ctl_emitted else []
    source, code = _assemble(lines, prologue, used, f"tta:{start}")
    return (n, halts, source, code)


# ---------------------------------------------------------------------------
# VLIW block compilation
# ---------------------------------------------------------------------------


def _vliw_max_latency(decoded) -> int:
    """Longest write-back latency of any result-writing op in the
    program; bounds how far external in-flight writes can reach into a
    block, so heap drains beyond relative index ``maxlat`` are elided."""
    return max(
        (op[3] for bundle in decoded for op in bundle if op[2] is not None),
        default=0,
    )


def _compile_vliw_block(program: Program, start: int, decoded, rf_param, maxlat):
    """Generate + compile one VLIW basic block; ``None`` if unsupported."""
    machine = program.machine
    jl = machine.jump_latency
    jl1 = jl + 1
    n_instrs = len(decoded)

    def has_halt(p):
        return any(op[0] == "halt" for op in decoded[p])

    def has_ctl(p):
        return any(op[0] in _VLIW_CTL for op in decoded[p])

    n, halts, _any_ctl = _partition(start, n_instrs, jl, has_halt, has_ctl)
    if n == 0:
        return None

    lines: list[str] = []
    used: set[str] = set()
    tempc = [0]
    #: textual write-back application points inside the block:
    #: rel index -> [(reg_param, idx, temp)] in issue order
    apply_at: dict[int, list] = {}
    #: writes whose application point falls past block end, issue order
    exit_writes: list[tuple[int, str, int, str]] = []

    def emit(s, ind=""):
        lines.append(ind + s)

    def newtemp():
        tempc[0] += 1
        return f"t{tempc[0]}"

    def vsrc(src):
        if src[0] == "imm":
            return repr(src[1])
        rp = rf_param[src[1]]
        used.add(rp)
        return f"{rp}[{src[2]}]"

    def sched_write(due_rel, rf, idx, t):
        """A write due at ``c + due_rel`` becomes visible one cycle
        later.  Inside the block it is applied textually (bypassing the
        heap); past block end it is pushed to the simulator heap at exit
        in issue order, which preserves the fast engine's sequence
        numbering for same-due writes."""
        rp = rf_param[rf]
        used.add(rp)
        point = due_rel + 1
        if point <= n - 1:
            apply_at.setdefault(point, []).append((rp, idx, t))
        else:
            exit_writes.append((due_rel, rp, idx, t))

    def emit_ctl_check(ind=""):
        used.add("_se")
        emit("if rc >= 0:", ind)
        emit("    raise _se('overlapping control transfers')", ind)

    def emit_drain(C):
        used.update(("_hp", "_hpop"))
        emit(f"while _hp and _hp[0][0] < {C}:")
        emit("    _w = _hpop(_hp)")
        emit("    _w[2][_w[3]] = _w[4]")

    ctl_emitted = False
    try:
        for k in range(n):
            C = _cexpr(k)
            # external in-flight writes (due <= entry_cycle - 1 + maxlat)
            # can only land within the first maxlat instructions
            if k <= maxlat:
                emit_drain(C)
            for rp, idx, t in apply_at.get(k, ()):
                emit(f"{rp}[{idx}] = {t}")
            for name, srcs, dest, lat in decoded[start + k]:
                if name == "halt":
                    continue
                if name == "jump":
                    e = vsrc(srcs[0])
                    if ctl_emitted:
                        emit_ctl_check()
                    emit(f"rc = c + {k + jl1}")
                    emit(f"rt = {e}")
                    ctl_emitted = True
                    continue
                if name == "call":
                    e = vsrc(srcs[0])
                    used.add("_sim")
                    emit(f"_sim.ra = {start + k + jl1}")
                    if ctl_emitted:
                        emit_ctl_check()
                    emit(f"rc = c + {k + jl1}")
                    emit(f"rt = {e}")
                    ctl_emitted = True
                    continue
                if name == "ret":
                    used.add("_sim")
                    if ctl_emitted:
                        emit_ctl_check()
                    emit(f"rc = c + {k + jl1}")
                    emit("rt = _sim.ra")
                    ctl_emitted = True
                    continue
                if name in ("cjump", "cjumpz"):
                    pe = vsrc(srcs[0])
                    te = vsrc(srcs[1])
                    if name == "cjump":
                        emit(f"if {pe}:")
                    else:
                        emit(f"if not ({pe}):")
                    if ctl_emitted:
                        emit_ctl_check("    ")
                    emit(f"rc = c + {k + jl1}", "    ")
                    emit(f"rt = {te}", "    ")
                    ctl_emitted = True
                    continue
                if lat < 0:
                    raise _Unsupported(name)
                if name in _VLIW_LOADS:
                    used.add("_ld")
                    t = newtemp()
                    emit(f"{t} = _ld({name!r}, {vsrc(srcs[0])})")
                    sched_write(k + lat, dest[0], dest[1], t)
                    continue
                if name in _VLIW_STORES:
                    used.add("_st")
                    emit(f"_st({name!r}, {vsrc(srcs[0])}, {vsrc(srcs[1])})")
                    continue
                if name == "setra":
                    used.add("_sim")
                    emit(f"_sim.ra = {vsrc(srcs[0])}")
                    continue
                if name == "getra":
                    used.add("_sim")
                    t = newtemp()
                    emit(f"{t} = _sim.ra")
                    sched_write(k + lat, dest[0], dest[1], t)
                    continue
                if name == "copy":
                    t = newtemp()
                    emit(f"{t} = {vsrc(srcs[0])}")
                    sched_write(k + lat, dest[0], dest[1], t)
                    continue
                tmpl = _ALU_EXPR.get(name)
                if tmpl is None:
                    raise _Unsupported(name)
                used.update(_ALU_HELPERS.get(name, ()))
                if len(srcs) == 2:
                    expr = tmpl.format(a=vsrc(srcs[0]), b=vsrc(srcs[1]))
                else:
                    expr = tmpl.format(a=vsrc(srcs[0]))
                t = newtemp()
                emit(f"{t} = {expr}")
                sched_write(k + lat, dest[0], dest[1], t)
    except _Unsupported:
        return None

    for due_rel, rp, idx, t in exit_writes:
        used.add("_wl")
        emit(f"_wl({_cexpr(due_rel)}, {rp}, {idx}, {t})")
    emit("_x[0] += 1")
    if halts:
        # flush every in-flight write so the exit code is final
        used.update(("_hp", "_hpop"))
        emit("while _hp:")
        emit("    _w = _hpop(_hp)")
        emit("    _w[2][_w[3]] = _w[4]")
        emit(f"return (3, 0, {_cexpr(n - 1)}, -1, 0)")
    elif ctl_emitted:
        emit(f"if rc == c + {n}:")
        emit(f"    return (1, rt, c + {n}, -1, 0)")
        emit(f"return (0, {start + n}, c + {n}, rc, rt)")
    else:
        emit(f"return (0, {start + n}, c + {n}, -1, 0)")

    prologue = ["rc = -1", "rt = 0"] if ctl_emitted else []
    source, code = _assemble(lines, prologue, used, f"vliw:{start}")
    return (n, halts, source, code)


# ---------------------------------------------------------------------------
# turbo's block source
# ---------------------------------------------------------------------------


def _block_compiler(program: Program):
    """``(compile function, code-cache key, its trailing arguments)`` for
    *program*'s style; every compile function is called as
    ``compile_block(program, start, *args)``."""
    rf_param, fu_param = _param_maps(program.machine)
    if program.style == "tta":
        decoded = static_decode_tta(program)
        return _compile_tta_block, _TTA_TURBO_KEY, (decoded, rf_param, fu_param)
    decoded = static_decode_vliw(program)
    maxlat = _vliw_max_latency(decoded)
    return _compile_vliw_block, _VLIW_TURBO_KEY, (decoded, rf_param, maxlat)


def _block_cache(program: Program, key: str) -> dict:
    cache = program.predecode_cache.get(key)
    if cache is None:
        cache = program.predecode_cache[key] = {}
    return cache


def tta_block_source(program: Program, start: int) -> str | None:
    """Generated source of the block starting at *start* (debugging and
    tests); ``None`` when the block falls back to precise stepping.
    Serves both styles; ``vliw_block_source`` is the same function."""
    compile_block, key, args = _block_compiler(program)
    cache = _block_cache(program, key)
    if start not in cache:
        cache[start] = compile_block(program, start, *args)
    entry = cache[start]
    return None if entry is None else entry[2]


vliw_block_source = tta_block_source


def turbo_blocks(sim, rfs):
    """Turbo's block source (see :func:`repro.sim.predecode.block_source_for`):
    each entry pc's block is compiled once per program, on first entry,
    and bound to *sim*'s state."""
    program = sim.program
    compile_block, key, args = _block_compiler(program)
    rf_param, fu_param = _param_maps(program.machine)
    ns = {
        "_sim": sim,
        "_se": SimError,
        "_ld": sim.memory.load,
        "_st": sim.memory.store,
        "_ts": to_signed,
        "_sx16": sext16,
        "_sx8": sext8,
    }
    for name, param in rf_param.items():
        ns[param] = rfs[name]
    if program.style == "tta":
        from repro.sim.tta_sim import fu_unavailable_error

        ns["_ua"] = fu_unavailable_error
        for name, param in fu_param.items():
            ns[param] = sim.fus[name]
    else:
        ns["_hp"] = sim._pending_slot_writes
        ns["_hpop"] = _heappop
        ns["_wl"] = sim._write_later_slot
    code_cache = _block_cache(program, key)
    blocks: dict[int, tuple | None] = {}
    counters: list[tuple[int, int, list]] = []

    def materialize(pc):
        if pc in code_cache:
            entry = code_cache[pc]
            obs.count("sim.turbo.block_cache_hits")
        else:
            entry = code_cache[pc] = compile_block(program, pc, *args)
            obs.count("sim.turbo.blocks_compiled")
        if entry is None:
            blocks[pc] = None
            obs.count("sim.turbo.fallback_blocks")
            return None
        length, _halts, _source, code = entry
        counter = [0]
        ns["_x"] = counter
        exec(code, ns)  # noqa: S102 - self-generated, cached block code
        blk = blocks[pc] = (length, ns.pop("_b"))
        counters.append((pc, length, counter))
        return blk

    def finish():
        return [(start, length, counter[0]) for start, length, counter in counters]

    return blocks, materialize, finish
