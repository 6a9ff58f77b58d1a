"""The scalar core's block engine: straight-line blocks compiled to Python.

``fast``, ``turbo`` and ``native`` all run it on the scalar
(MicroBlaze-like) cores, which have no C engine; ``checked`` is the
reference interpreter of :mod:`repro.sim.scalar_sim`.  What a block does
is decided by the block walker :func:`_walk_scalar`, which prints
through :class:`_PyBlock` (syntax only): register files become local
list indexing, the Python ALU expressions of :mod:`~repro.sim.predecode`
(``_ALU_EXPR``) are inlined, and every loop-invariant lookup (register
files, memory load/store, helpers) is bound once as a default argument.
Each block is compiled once per program with :func:`compile`/``exec``
(code objects are cached on ``Program.predecode_cache``, so every
simulator of one linked program shares them) and handed to the driver
(:class:`~repro.sim.scalar_sim.ScalarSimulator`) through
:func:`scalar_blocks`, a dispatch table keyed on the entry pc.

A scalar block is straight-line code up to its first control operation;
its stall cost is static except for a conditional branch's
taken/untaken extra, so each block adds one constant to the cycle count
and its instruction, load and store counts are folded in after the run
from its execution count.  The driver steps precisely -- through the
reference interpreter -- wherever a block has no code or could cross
the cycle budget.

The TTA and VLIW cores have no Python code generator: ``fast`` steps
their pre-decoded programs (:mod:`repro.sim.predecode`) and ``native``
runs them on the C engine (:mod:`repro.sim.native`).
"""

from __future__ import annotations

from repro import obs
from repro.backend.mop import Imm, PhysReg
from repro.backend.program import Program
from repro.isa.semantics import MASK32, sext8, sext16
from repro.sim.predecode import _ALU_EXPR, _LOADS, _STORES
from repro.sim.scalar_sim import ENDS_BLOCK, static_cost

#: Version token for the simulation-engine family.  It participates in
#: the pipeline artifact fingerprint (:mod:`repro.pipeline.fingerprint`)
#: so a cached sweep result can never mask a codegen semantics change:
#: bump this whenever the semantics of any engine (checked / fast /
#: native), of the generated scalar block code or of the C engine could
#: change.  It also keys the native engine's stored shared objects.
SIM_ENGINE_VERSION = 5

#: cache key on ``Program.predecode_cache`` for compiled block code
_SCALAR_KEY = "scalar-blocks"

#: cap on a block's length
_MAX_BLOCK = 256

#: helper names each ALU template needs in the generated namespace
_ALU_HELPERS = {
    "sxhw": ("_sx16",),
    "sxqw": ("_sx8",),
}


class _Unsupported(Exception):
    """Raised by the block walker for an operand it cannot print; the
    block then ends before that operation, which the driver steps."""


def _at(k: int) -> str:
    """The block's entry cycle ``c`` plus *k*, as an expression."""
    return "c" if k == 0 else f"c + {k}"


def _rf_params(machine) -> dict[str, str]:
    """Deterministic short local names for the machine's register files."""
    return {rf.name: f"r{i}" for i, rf in enumerate(machine.register_files)}


def _assemble(lines, used, tag):
    """Build the block function source and compile it.

    The generated function receives the entry cycle ``c`` and returns
    ``(next pc, cycle)``, with pc ``None`` once halted.  Everything else
    the block touches -- register-file lists, memory accessors, the
    execution counter ``_x`` -- is bound once as a default argument, so
    the body runs on locals only.
    """
    params = ["c", "_x=_x"]
    params.extend(f"{name}={name}" for name in sorted(used))
    header = "def _b(" + ", ".join(params) + "):"
    body = "\n".join("    " + line for line in lines)
    source = header + "\n" + body + "\n"
    return source, compile(source, f"<block:{tag}>", "exec")


# ---------------------------------------------------------------------------
# the block walker: what a block does.  It visits every operation of the
# block once and emits through the printer (:class:`_PyBlock`), which
# supplies only syntax.
# ---------------------------------------------------------------------------

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
# the Python printer
# ---------------------------------------------------------------------------


class _PyBlock:
    """Prints one block as a Python function (see :func:`_assemble`).

    Register files and helpers are referenced by short local names and
    recorded in ``used``, which binds each once as a default argument.
    """

    __slots__ = ("rf_param", "lines", "used", "ind", "ntemp")

    def __init__(self, rf_param):
        self.rf_param = rf_param
        self.lines: list[str] = []
        self.used: set[str] = set()
        self.ind = ""
        self.ntemp = 0

    def _emit(self, s):
        self.lines.append(self.ind + s)

    def imm(self, v):
        return repr(v)

    def rf(self, rf, idx):
        rp = self.rf_param[rf]
        self.used.add(rp)
        return f"{rp}[{idx}]"

    def temp(self, expr):
        self.ntemp += 1
        t = f"t{self.ntemp}"
        self._emit(f"{t} = {expr}")
        return t

    def ra(self):
        self.used.add("_sim")
        return "_sim.ra"

    def assign(self, lhs, rhs):
        self._emit(f"{lhs} = {rhs}")

    def load(self, op, addr):
        self.used.add(f"_{op}")
        return self.temp(f"_{op}({addr})")

    def store(self, op, addr, val):
        self.used.add(f"_{op}")
        self._emit(f"_{op}({addr}, {val})")

    def alu(self, op, a, b):
        self.used.update(_ALU_HELPERS.get(op, ()))
        return _ALU_EXPR[op].format(a=a, b=b)

    def begin_if(self, cond, negate):
        self._emit(f"if not ({cond}):" if negate else f"if {cond}:")
        self.ind = "    "

    def end_if(self):
        self.ind = ""

    def count(self, slot, by="1"):
        """Add *by* to slot *slot* of the block's counter ``_x``."""
        self._emit(f"_x[{slot}] += {by}")

    def leave(self, pc, k):
        """A block exit: continue at *pc* with ``c + k`` cycles."""
        self._emit(f"return ({pc}, {_at(k)})")

    def compiled(self, start):
        """``(source, code)`` of the printed block."""
        return _assemble(self.lines, self.used, f"scalar:{start}")


def _compile_block(program: Program, start: int, rf_param):
    """Generate + compile one scalar block; ``None`` if unsupported."""
    return _walk_scalar(_PyBlock(rf_param), program.instrs, start, program.machine)


# ---------------------------------------------------------------------------
# the block source
# ---------------------------------------------------------------------------


def _block_cache(program: Program) -> dict:
    cache = program.predecode_cache.get(_SCALAR_KEY)
    if cache is None:
        cache = program.predecode_cache[_SCALAR_KEY] = {}
    return cache


def scalar_block_source(program: Program, start: int) -> str | None:
    """Generated source of the block starting at *start* (debugging and
    tests); ``None`` when the interpreter steps that pc."""
    cache = _block_cache(program)
    if start not in cache:
        cache[start] = _compile_block(program, start, _rf_params(program.machine))
    entry = cache[start]
    return None if entry is None else entry[-2]


def scalar_blocks(sim):
    """The scalar core's block source for *sim*: ``(blocks, materialize,
    finish)``.  ``blocks`` maps an entry pc to ``(worst-case cycles,
    enter)`` or ``None`` (no block), where ``enter(cycle)`` returns
    ``(next pc, cycle)`` (pc ``None`` once halted); ``materialize(pc)``
    fills and returns a missing entry; and ``finish()`` returns the
    ``(instructions, loads, stores, taken_branches)`` the blocks retired.

    Each entry pc's block is compiled once per program, on first entry
    (in a ``sim.scalar.codegen`` span, its source counted in
    ``sim.scalar.source_bytes``), and bound to *sim*'s state with a
    fresh execution counter.
    """
    program = sim.program
    rf_param = _rf_params(program.machine)
    ns = {"_sim": sim, "_sx16": sext16, "_sx8": sext8}
    for op in _LOADS | _STORES:
        ns[f"_{op}"] = sim.memory.accessor(op)
    for name, param in rf_param.items():
        ns[param] = sim.rfs[name]
    code_cache = _block_cache(program)
    blocks: dict[int, tuple | None] = {}
    bound: list[tuple[tuple, list]] = []

    def materialize(pc):
        if pc in code_cache:
            entry = code_cache[pc]
            obs.count("sim.scalar.block_cache_hits")
        else:
            with obs.span("sim.scalar.codegen"):
                entry = code_cache[pc] = _compile_block(program, pc, rf_param)
            obs.count("sim.scalar.blocks_compiled")
            if entry is not None:
                obs.count("sim.scalar.source_bytes", len(entry[-2]))
        if entry is None:
            blocks[pc] = None
            obs.count("sim.scalar.fallback_blocks")
            return None
        ns["_x"] = x = [0, 0]
        exec(entry[-1], ns)  # noqa: S102 - self-generated, cached block code
        blk = blocks[pc] = (entry[0], ns.pop("_b"))
        bound.append((entry, x))
        return blk

    def finish():
        totals = [0, 0, 0, 0]
        for (_worst, ops, loads, stores, *_), (runs, taken) in bound:
            totals[0] += runs * ops
            totals[1] += runs * loads
            totals[2] += runs * stores
            totals[3] += taken
        return totals

    return blocks, materialize, finish
