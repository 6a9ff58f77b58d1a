"""C code generation for the native simulation engine (``mode="native"``).

This module is the C twin of :mod:`repro.sim.blockcompile`: it reuses the
turbo engine's basic-block partitioning (:func:`~repro.sim.blockcompile._partition`,
same delay-slot-window and halt-terminal rules) but emits each block as
specialized C instead of specialized Python, and assembles every block of
a program into **one translation unit** compiled to a single shared
object by :mod:`repro.sim.native`.

State layout (flat C arrays, shared with the Python driver through the
FFI call)::

    rf[]     uint32  all register files concatenated (layout in
                     :attr:`NativeProgram.rf_layout`)
    fu32[]   uint32  per FU: [o1, result]                       (TTA)
    pd[]     int64   per FU: due-cycle ring of PCAP entries     (TTA)
                     write-back queue due cycles                (VLIW)
    pv[]     uint32  per FU: value ring of PCAP entries         (TTA)
                     write-back queue values                    (VLIW)
    fum[]    int32   per FU: [len, head, has_result]            (TTA)
                     write-back queue rf[] offsets              (VLIW)
    mem[]    uint8   the data memory (zero-copy view of the
                     simulator's bytearray)
    ctl[]    int64   [cycle, pc, rc, rt, ra, max_cycles, err_a,
                     err_b, mem_size, wb_len] -- in/out machine state
    execs[]  int64   per-block execution counters (the turbo engine's
                     ``_x[0]`` counters, used for hit expansion)

The generated function runs blocks chained through a pc-indexed dispatch
table until it must hand control back (status 0: uncompiled entry,
carried redirect, budget-edge block) or the program halts (status 3).
Every dynamic check of the reference engine is kept: a violation stops
execution with a negative status plus error operands in ``ctl``, and the
Python driver reconstructs the reference engine's **byte-identical**
``SimError``/``ValueError`` message from the synced-back state.

The C compile dominates a program's first native run, and its cost is
linear in the volume of emitted code, so codegen keeps that volume small:

* **Exact block entries.**  Blocks start at pc 0, at every
  ``Program.labels`` address (every jump/call target is a label
  immediate), at every call return site (``pc + jl + 1``, where ``ret``
  lands) and at the fall-through successors of those blocks.  A pc
  without a block is still correct: the Python dispatch loop steps it
  with the turbo engine's single-cycle fallback until it reaches an
  entry.
* **Static FU-result forwarding (TTA).**  The scheduler bypasses results
  in software: a result is read a fixed latency after its trigger,
  inside the same block.  Codegen models each FU's pending ring per block
  (:class:`_FUState`).  In-block pushes keep their values in C temps; a
  read with an in-block push already due takes the latest such temp
  (pushes are monotonic, so every carried-in entry pops too), and from
  then on the unit's ring is known exactly: reads and pushes become
  constant-index stores to ``pd``/``pv``/``fum``/``fu32`` with no loop
  and no call.  Memory stays in sync at every point, so error exits need
  nothing extra.  Only a unit's pushes before its first forwarded read
  and reads with no due in-block push use the ``FUPUSH``/``FUREAD``
  macros (the push body out of line).
* **Out-of-line VLIW drains.**  The write-back queue only holds writes
  carried into a block; each drain point is one inline emptiness test in
  front of a shared ``wb_drain`` call.

Semantics notes pinned by ``tests/test_native.py``:

* ALU templates in :data:`_C_ALU` agree bit-exactly with
  ``predecode.ALU_FUNCS`` (32-bit wrap, signed compares/shifts on
  two's-complement ``int32_t``).
* FU result latching is the reference's *lazy* commit: pending results
  move to the result register only when the unit is read, so the
  ``(pending: ...)`` payload of an early-read error is unchanged.  The
  fixed-capacity ring drains due entries on overflow, which is
  observable only through ``has_result`` -- and any drain sets it, so a
  drained unit can never raise the not-due/never-triggered errors whose
  text depends on the pending list.
* The VLIW write-back queue is kept sorted by (due, insertion order), so
  draining reproduces the reference heap's ``(due, seq)`` pop order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.backend.program import Program
from repro.isa.operations import OPS, OpKind
from repro.sim.blockcompile import (
    _TTA_CTL,
    _VLIW_CTL,
    _partition,
    _vliw_max_latency,
)
from repro.sim.predecode import (
    _VLIW_LOADS,
    _VLIW_STORES,
    static_decode_tta,
    static_decode_vliw,
)

#: function exported by every generated translation unit
ENTRY_SYMBOL = "repro_native_run"

#: ``ctl[]`` slot indices shared with the driver
CTL_CYCLE = 0
CTL_PC = 1
CTL_RC = 2
CTL_RT = 3
CTL_RA = 4
CTL_MAX_CYCLES = 5
CTL_ERR_A = 6
CTL_ERR_B = 7
CTL_MEM_SIZE = 8
CTL_WB_LEN = 9
CTL_WORDS = 16

#: return statuses of the generated function
ST_FALLBACK = 0  # hand control back to the Python driver (no error)
ST_HALT = 3
ST_FU_READ = -1  # FU result read with no result available
ST_FU_PUSH = -2  # non-monotonic result completion (ValueError)
ST_OVERLAP = -3  # overlapping control transfers
ST_MEM_RANGE = -5  # memory access out of range
ST_BUDGET = -6  # cycle budget exceeded
ST_INTERNAL = -9  # capacity invariant broken (unreachable by design)

#: cap on the total specialized cycles emitted into one translation unit
_MAX_TOTAL_CYCLES = 65536


class _Unsupported(Exception):
    """Raised during codegen for anything not provably static; the entry
    is skipped and the driver's precise fallback interprets it."""


#: C twins of ``blockcompile._ALU_EXPR`` / ``predecode.ALU_FUNCS``.  All
#: operands are ``uint32_t``, so +,-,*,<< wrap mod 2**32 by the language;
#: signed compare/shift go through ``int32_t`` two's-complement views.
_C_ALU = {
    "add": "({a} + {b})",
    "sub": "({a} - {b})",
    "mul": "({a} * {b})",
    "and": "({a} & {b})",
    "ior": "({a} | {b})",
    "xor": "({a} ^ {b})",
    "eq": "((uint32_t)(({a}) == ({b})))",
    "gt": "((uint32_t)((int32_t)({a}) > (int32_t)({b})))",
    "gtu": "((uint32_t)(({a}) > ({b})))",
    "shl": "(({a}) << (({b}) & 31u))",
    "shru": "(({a}) >> (({b}) & 31u))",
    "shr": "((uint32_t)((int32_t)({a}) >> (int32_t)(({b}) & 31u)))",
    "sxhw": "((uint32_t)(int32_t)(int16_t)(uint16_t)({a}))",
    "sxqw": "((uint32_t)(int32_t)(int8_t)(uint8_t)({a}))",
}

_LD_MACRO = {"ldw": "LDW", "ldh": "LDH", "ldhu": "LDHU", "ldq": "LDQ", "ldqu": "LDQU"}
_ST_MACRO = {"stw": "STW", "sth": "STH", "stq": "STQ"}


@dataclass
class NativeProgram:
    """Everything :mod:`repro.sim.native` needs to build and drive the
    shared object generated for one program."""

    style: str
    source: str
    n_instrs: int
    #: (start_pc, length) per block, index order == ``execs[]`` index
    entries: list
    #: (rf_name, base_offset, size) in machine declaration order
    rf_layout: list
    rf_total: int
    #: TTA: FU names in ``fu32``/``pd``/``pv``/``fum`` index order
    fu_names: list
    #: TTA: per-FU pending-ring capacity (power of two)
    pcap: int
    #: VLIW: write-back queue capacity
    wcap: int
    n_blocks: int


def _cexpr(k: int) -> str:
    return "c" if k == 0 else f"c + {k}"


def _rf_layout(machine):
    layout = []
    base = 0
    for rf in machine.register_files:
        layout.append((rf.name, base, rf.size))
        base += rf.size
    return layout, base


# ---------------------------------------------------------------------------
# shared C prelude
# ---------------------------------------------------------------------------

_PRELUDE = """\
/* generated by repro.sim.cgen -- do not edit */
#include <stdint.h>

#define N_INSTRS {n_instrs}
#define PCAP {pcap}
#define PMSK (PCAP - 1)
#define WCAP {wcap}

static const int32_t entry_idx[N_INSTRS] = {{{entry_idx}}};
static const int32_t block_len[{n_blocks}] = {{{block_len}}};

#define ERR(code, a, b) do {{ ctl[6] = (int64_t)(a); ctl[7] = (int64_t)(b); \\
    st = (code); goto done; }} while (0)

/* lazy FU commit + result read; (pending: ...) stays byte-exact because a
 * unit that errors here has never committed (fum[3f+2] == 0) */
#define FUREAD(t, f, C) do {{ int32_t *_m = fum + 3 * (f); \\
    while (_m[0] && pd[(f) * PCAP + _m[1]] <= (C)) {{ \\
        fu32[2 * (f) + 1] = pv[(f) * PCAP + _m[1]]; _m[2] = 1; \\
        _m[1] = (_m[1] + 1) & PMSK; _m[0]--; }} \\
    if (!_m[2]) {{ ERR(-1, (f), (C)); }} \\
    (t) = fu32[2 * (f) + 1]; }} while (0)

/* _FU.push: monotonicity check first (reference raises before appending);
 * a full ring drains its due entries, which cannot change any observable
 * (see module docstring) and by the due-window bound always frees slots.
 * Out of line: only a unit's pushes before its first forwarded read in a
 * block come here, and one call is far less code for cc than the body. */
static int fu_push(int32_t *m, int64_t *fpd, uint32_t *fpv, uint32_t *res,
                   int64_t due, uint32_t val, int64_t c)
{{
    int32_t s;
    if (m[0] && due <= fpd[(m[1] + m[0] - 1) & PMSK])
        return -2;
    if (m[0] == PCAP) {{
        while (m[0] && fpd[m[1]] <= c) {{
            *res = fpv[m[1]]; m[2] = 1;
            m[1] = (m[1] + 1) & PMSK; m[0]--;
        }}
        if (m[0] == PCAP)
            return -9;
    }}
    s = (m[1] + m[0]) & PMSK;
    fpd[s] = due; fpv[s] = val; m[0]++;
    return 0;
}}
#define FUPUSH(f, due, val, C) do {{ int _r = fu_push(fum + 3 * (f), \\
    pd + (f) * PCAP, pv + (f) * PCAP, fu32 + 2 * (f) + 1, (due), (val), (C)); \\
    if (_r) {{ ERR(_r, (f), _r == -2 ? (due) : 0); }} }} while (0)

#define CHK(a, sz) if ((uint64_t)(a) + (sz) > memsz) \\
    {{ ERR(-5, (int64_t)(a), (sz)); }}

#define LDW(t, a) do {{ uint32_t _a = (a); CHK(_a, 4) \\
    (t) = (uint32_t)mem[_a] | ((uint32_t)mem[_a + 1] << 8) | \\
          ((uint32_t)mem[_a + 2] << 16) | ((uint32_t)mem[_a + 3] << 24); \\
    }} while (0)
#define LDHU(t, a) do {{ uint32_t _a = (a); CHK(_a, 2) \\
    (t) = (uint32_t)mem[_a] | ((uint32_t)mem[_a + 1] << 8); }} while (0)
#define LDH(t, a) do {{ LDHU(t, a); \\
    (t) = (uint32_t)(int32_t)(int16_t)(uint16_t)(t); }} while (0)
#define LDQU(t, a) do {{ uint32_t _a = (a); CHK(_a, 1) \\
    (t) = (uint32_t)mem[_a]; }} while (0)
#define LDQ(t, a) do {{ LDQU(t, a); \\
    (t) = (uint32_t)(int32_t)(int8_t)(uint8_t)(t); }} while (0)
#define STW(a, v) do {{ uint32_t _a = (a); CHK(_a, 4) \\
    {{ uint32_t _v = (v); mem[_a] = (uint8_t)_v; \\
       mem[_a + 1] = (uint8_t)(_v >> 8); mem[_a + 2] = (uint8_t)(_v >> 16); \\
       mem[_a + 3] = (uint8_t)(_v >> 24); }} }} while (0)
#define STH(a, v) do {{ uint32_t _a = (a); CHK(_a, 2) \\
    {{ uint32_t _v = (v); mem[_a] = (uint8_t)_v; \\
       mem[_a + 1] = (uint8_t)(_v >> 8); }} }} while (0)
#define STQ(a, v) do {{ uint32_t _a = (a); CHK(_a, 1) \\
    mem[_a] = (uint8_t)(v); }} while (0)

/* VLIW write-back queue: commit every write due before cycle C.  Out of
 * line behind an inline emptiness test: the queue only holds writes
 * carried into a block, and one call is far less code for cc than the
 * loop at every drain point */
static void wb_drain(uint32_t *rf, const int64_t *pd, const uint32_t *pv,
                     const int32_t *wo, int32_t *head, int32_t *len, int64_t c)
{{
    int32_t h = *head, l = *len;
    while (l > 0 && pd[h] < c) {{
        rf[wo[h]] = pv[h]; h++; l--;
    }}
    *head = h; *len = l;
}}
#define WB_DRAIN(C) do {{ if (wlen > 0 && pd[whead] < (C)) \\
    wb_drain(rf, pd, pv, fum, &whead, &wlen, (C)); }} while (0)

/* VLIW write-back queue: sorted insertion after equal dues reproduces the
 * reference heap's (due, seq) order; returns 1 on capacity overflow
 * (unreachable: live entries are bounded by (maxlat + 2) * issue_width) */
static int wb_push(int64_t *pd, uint32_t *pv, int32_t *wo,
                   int32_t *head, int32_t *len, int64_t due,
                   int32_t off, uint32_t val)
{{
    int32_t h = *head, l = *len, lo, i;
    if (l >= WCAP)
        return 1;
    if (h + l >= WCAP) {{
        for (i = 0; i < l; i++) {{
            pd[i] = pd[h + i]; pv[i] = pv[h + i]; wo[i] = wo[h + i];
        }}
        h = 0; *head = 0;
    }}
    lo = h;
    while (lo < h + l && pd[lo] <= due)
        lo++;
    for (i = h + l; i > lo; i--) {{
        pd[i] = pd[i - 1]; pv[i] = pv[i - 1]; wo[i] = wo[i - 1];
    }}
    pd[lo] = due; pv[lo] = val; wo[lo] = off;
    *len = l + 1;
    return 0;
}}
"""


def _assemble(style, n_instrs, blocks, pcap, wcap):
    """Build the full translation unit from per-block case-line lists."""
    entry_idx = [-1] * n_instrs
    lens = []
    for bi, (start, length, _case) in enumerate(blocks):
        entry_idx[start] = bi
        lens.append(length)
    out = [
        _PRELUDE.format(
            n_instrs=n_instrs,
            pcap=pcap,
            wcap=wcap,
            n_blocks=len(blocks),
            entry_idx=", ".join(str(v) for v in entry_idx),
            block_len=", ".join(str(v) for v in lens),
        )
    ]
    out.append(f"""\
int {ENTRY_SYMBOL}(uint32_t *restrict rf, uint32_t *restrict fu32,
                    int64_t *restrict pd, uint32_t *restrict pv,
                    int32_t *restrict fum, uint8_t *restrict mem,
                    int64_t *restrict ctl, int64_t *restrict execs)
{{
    int64_t c = ctl[0];
    int64_t pc = ctl[1];
    int64_t rc = ctl[2];
    uint32_t rt = (uint32_t)ctl[3];
    uint32_t ra = (uint32_t)ctl[4];
    const int64_t maxc = ctl[5];
    const uint64_t memsz = (uint64_t)ctl[8];
    int st = 0;""")
    if style == "vliw":
        out.append("""\
    int32_t whead = 0;
    int32_t wlen = (int32_t)ctl[9];
    (void)fu32;""")
    out.append("""\
    (void)mem; (void)memsz; (void)ra;
    for (;;) {
        int32_t bi;
        if (rc >= 0 || pc < 0 || pc >= N_INSTRS)
            goto done;
        bi = entry_idx[pc];
        if (bi < 0 || c + (int64_t)block_len[bi] > maxc + 1)
            goto done;
        switch (bi) {""")
    for _start, _length, case_lines in blocks:
        out.extend("        " + line for line in case_lines)
    out.append("""\
        default:
            goto done;
        }
        /* post-block budget check, matching the turbo driver */
        if (c > maxc) { st = -6; goto done; }
    }
done:""")
    if style == "vliw":
        out.append("""\
    if (whead > 0) {
        int32_t i;
        for (i = 0; i < wlen; i++) {
            pd[i] = pd[whead + i]; pv[i] = pv[whead + i];
            fum[i] = fum[whead + i];
        }
    }
    ctl[9] = (int64_t)wlen;""")
    out.append("""\
    ctl[0] = c; ctl[1] = pc; ctl[2] = rc;
    ctl[3] = (int64_t)rt; ctl[4] = (int64_t)ra;
    return st;
}""")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# TTA block generation (mirrors blockcompile._compile_tta_block)
# ---------------------------------------------------------------------------


class _FUState:
    """Codegen-time model of one FU's pending ring within one block.

    Until the unit's first *forwarded* read the ring may hold carried-in
    entries the block cannot see, so pushes go through ``FUPUSH`` and are
    remembered in ``pushes`` as ``(due_rel, temp)``.  A read at relative
    cycle ``k`` with an in-block push due by ``k`` is forwarded: pushes
    are monotonic, so every carried-in entry is due earlier and pops as
    well, and the result is the latest in-block push due by ``k``.  From
    then on ``ring`` is the exact ring content (physical slots ``head``,
    ``head + 1``, ...) and ``result`` the temp in the result register.
    """

    __slots__ = ("pushes", "ring", "head", "result")

    def __init__(self):
        self.pushes = []
        self.ring = None  # None until the ring is statically known
        self.head = 0
        self.result = None


def _gen_tta_block(program, start, decoded, rf_off, fu_idx, pcap, bi):
    machine = program.machine
    jl = machine.jump_latency
    jl1 = jl + 1
    n_instrs = len(decoded)

    def has_halt(p):
        return any(op == "halt" for _, _, op in decoded[p][2])

    def has_ctl(p):
        return any(op in _TTA_CTL for _, _, op in decoded[p][2])

    n, halts, _any_ctl = _partition(start, n_instrs, jl, has_halt, has_ctl)
    if n == 0:
        raise _Unsupported("empty block")

    lines: list[str] = []
    tempc = [0]
    fu_states: dict[str, _FUState] = defaultdict(_FUState)

    def emit(s, ind=""):
        lines.append(ind + s)

    def newtemp():
        tempc[0] += 1
        return f"t{tempc[0]}"

    def pop_due(f, state, k):
        """Statically commit the known ring's entries due by cycle ``k``
        (the reference's lazy ``commit``), keeping memory in sync."""
        ring = state.ring
        n_due = 0
        while n_due < len(ring) and ring[n_due][0] <= k:
            n_due += 1
        if n_due:
            state.result = ring[n_due - 1][1]
            state.head = (state.head + n_due) % pcap
            del ring[:n_due]
            emit(
                f"fu32[{2 * f + 1}] = {state.result}; "
                f"fum[{3 * f}] = {len(ring)}; fum[{3 * f + 1}] = {state.head};"
            )

    def sample_fu(fu_name, k):
        f = fu_idx[fu_name]
        state = fu_states[fu_name]
        if state.ring is not None:
            pop_due(f, state, k)
            return state.result
        due = [t for d, t in state.pushes if d <= k]
        if not due:
            t = newtemp()
            emit(f"uint32_t {t}; FUREAD({t}, {f}, {_cexpr(k)});")
            return t
        # forwarded read: the ring now holds exactly the in-block pushes
        # not yet due; lay them out from slot 0
        state.result = due[-1]
        state.ring = [(d, t) for d, t in state.pushes if d > k]
        state.pushes = None
        for j, (d, t) in enumerate(state.ring):
            emit(f"pd[{f * pcap + j}] = {_cexpr(d)}; pv[{f * pcap + j}] = {t};")
        emit(
            f"fu32[{2 * f + 1}] = {state.result}; fum[{3 * f}] = {len(state.ring)}; "
            f"fum[{3 * f + 1}] = 0; fum[{3 * f + 2}] = 1;"
        )
        return state.result

    def temp_of(expr):
        t = newtemp()
        emit(f"uint32_t {t} = {expr};")
        return t

    def push_fu(fu_name, k, due_rel, t):
        f = fu_idx[fu_name]
        state = fu_states[fu_name]
        ring = state.ring
        if ring is None:
            emit(f"FUPUSH({f}, {_cexpr(due_rel)}, {t}, {_cexpr(k)});")
            state.pushes.append((due_rel, t))
            return
        if ring and due_rel <= ring[-1][0]:
            # statically non-monotonic: the reference raises every time
            emit(f"ERR(-2, {f}, {_cexpr(due_rel)});")
            return
        if len(ring) == pcap:
            pop_due(f, state, k)
            if len(ring) == pcap:
                emit(f"ERR(-9, {f}, 0);")
                return
        slot = f * pcap + (state.head + len(ring)) % pcap
        ring.append((due_rel, t))
        emit(
            f"pd[{slot}] = {_cexpr(due_rel)}; pv[{slot}] = {t}; "
            f"fum[{3 * f}] = {len(ring)};"
        )

    def value_expr(src, k):
        kind = src[0]
        if kind == "imm":
            return f"{src[1]}u"
        if kind == "rf":
            return f"rf[{rf_off[src[1]] + src[2]}]"
        return sample_fu(src[1], k)

    def emit_ctl_check(ind=""):
        emit("if (rc >= 0) { ERR(-3, 0, 0); }", ind)

    ctl_emitted = False
    for k in range(n):
        p = start + k
        rf_moves, o1_moves, trig_moves, _counts = decoded[p]
        # phase 1: sample RF-bound sources before any same-cycle effect
        commits = []
        for src, rf, idx in rf_moves:
            off = rf_off[rf] + idx
            if src[0] == "imm":
                commits.append((off, f"{src[1]}u"))
            elif src[0] == "rf":
                commits.append((off, temp_of(f"rf[{rf_off[src[1]] + src[2]}]")))
            else:
                commits.append((off, sample_fu(src[1], k)))
        # phase 2: operand-port latches
        for src, fu in o1_moves:
            e = value_expr(src, k)
            emit(f"fu32[{2 * fu_idx[fu]}] = {e};")
        # phase 3: triggers, in move order
        for src, fu, opcode in trig_moves:
            f = fu_idx[fu]
            if opcode == "halt":
                if src[0] == "fu":
                    sample_fu(src[1], k)
                continue
            if opcode == "getra":
                if src[0] == "fu":
                    sample_fu(src[1], k)
                push_fu(fu, k, k + 1, temp_of("ra"))
                continue
            if opcode == "setra":
                e = value_expr(src, k)
                emit(f"ra = {e};")
                continue
            if opcode == "jump":
                e = value_expr(src, k)
                if ctl_emitted:
                    emit_ctl_check()
                emit(f"rc = c + {k + jl1};")
                emit(f"rt = {e};")
                ctl_emitted = True
                continue
            if opcode == "call":
                e = value_expr(src, k)
                emit(f"ra = {p + jl1}u;")
                if ctl_emitted:
                    emit_ctl_check()
                emit(f"rc = c + {k + jl1};")
                emit(f"rt = {e};")
                ctl_emitted = True
                continue
            if opcode == "ret":
                if src[0] == "fu":
                    sample_fu(src[1], k)
                if ctl_emitted:
                    emit_ctl_check()
                emit(f"rc = c + {k + jl1};")
                emit("rt = ra;")
                ctl_emitted = True
                continue
            if opcode in ("cjump", "cjumpz"):
                e = value_expr(src, k)
                cond = e if opcode == "cjump" else f"!({e})"
                emit(f"if ({cond}) {{")
                if ctl_emitted:
                    emit_ctl_check("    ")
                emit(f"rc = c + {k + jl1};", "    ")
                emit(f"rt = fu32[{2 * f}];", "    ")
                emit("}")
                ctl_emitted = True
                continue
            spec = OPS.get(opcode)
            if spec is None:
                raise _Unsupported(opcode)
            if spec.kind is OpKind.LSU:
                e = value_expr(src, k)
                if spec.writes_mem:
                    emit(f"{_ST_MACRO[opcode]}({e}, fu32[{2 * f}]);")
                else:
                    t = newtemp()
                    emit(f"uint32_t {t}; {_LD_MACRO[opcode]}({t}, {e});")
                    push_fu(fu, k, k + spec.latency, t)
                continue
            tmpl = _C_ALU.get(opcode)
            if tmpl is None or spec.latency < 1:
                raise _Unsupported(opcode)
            e = value_expr(src, k)
            if spec.operands == 2:
                expr = tmpl.format(a=e, b=f"fu32[{2 * f}]")
            else:
                expr = tmpl.format(a=e)
            push_fu(fu, k, k + spec.latency, temp_of(expr))
        # phase 4: RF write commit
        for off, e in commits:
            emit(f"rf[{off}] = {e};")

    case = [f"case {bi}: {{"]
    case.extend("    " + line for line in lines)
    case.append(f"    execs[{bi}] += 1;")
    if halts:
        if n > 1:
            case.append(f"    c += {n - 1};")
        case.append("    st = 3; goto done;")
    else:
        case.append(f"    c += {n};")
        if ctl_emitted:
            case.append("    if (rc == c) { pc = (int64_t)rt; rc = -1; }")
            case.append(f"    else {{ pc = {start + n}; }}")
        else:
            case.append(f"    pc = {start + n};")
        case.append("    break;")
    case.append("}")
    return n, case


# ---------------------------------------------------------------------------
# VLIW block generation (mirrors blockcompile._compile_vliw_block)
# ---------------------------------------------------------------------------


def _gen_vliw_block(program, start, decoded, rf_off, maxlat, bi):
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
        raise _Unsupported("empty block")

    lines: list[str] = []
    tempc = [0]
    apply_at: dict[int, list] = {}
    exit_writes: list = []

    def emit(s, ind=""):
        lines.append(ind + s)

    def newtemp():
        tempc[0] += 1
        return f"t{tempc[0]}"

    def vsrc(src):
        if src[0] == "imm":
            return f"{src[1]}u"
        return f"rf[{rf_off[src[1]] + src[2]}]"

    def sched_write(due_rel, rf, idx, t):
        off = rf_off[rf] + idx
        point = due_rel + 1
        if point <= n - 1:
            apply_at.setdefault(point, []).append((off, t))
        else:
            exit_writes.append((due_rel, off, t))

    def emit_ctl_check(ind=""):
        emit("if (rc >= 0) { ERR(-3, 0, 0); }", ind)

    def emit_drain(C):
        emit(f"WB_DRAIN({C});")

    ctl_emitted = False
    for k in range(n):
        C = _cexpr(k)
        # external in-flight writes can only land within the first
        # maxlat instructions (same elision as the turbo engine)
        if k <= maxlat:
            emit_drain(C)
        for off, t in apply_at.get(k, ()):
            emit(f"rf[{off}] = {t};")
        for name, srcs, dest, lat in decoded[start + k]:
            if name == "halt":
                continue
            if name == "jump":
                e = vsrc(srcs[0])
                if ctl_emitted:
                    emit_ctl_check()
                emit(f"rc = c + {k + jl1};")
                emit(f"rt = {e};")
                ctl_emitted = True
                continue
            if name == "call":
                e = vsrc(srcs[0])
                emit(f"ra = {start + k + jl1}u;")
                if ctl_emitted:
                    emit_ctl_check()
                emit(f"rc = c + {k + jl1};")
                emit(f"rt = {e};")
                ctl_emitted = True
                continue
            if name == "ret":
                if ctl_emitted:
                    emit_ctl_check()
                emit(f"rc = c + {k + jl1};")
                emit("rt = ra;")
                ctl_emitted = True
                continue
            if name in ("cjump", "cjumpz"):
                pe = vsrc(srcs[0])
                te = vsrc(srcs[1])
                cond = pe if name == "cjump" else f"!({pe})"
                emit(f"if ({cond}) {{")
                if ctl_emitted:
                    emit_ctl_check("    ")
                emit(f"rc = c + {k + jl1};", "    ")
                emit(f"rt = {te};", "    ")
                emit("}")
                ctl_emitted = True
                continue
            if lat < 0:
                raise _Unsupported(name)
            if name in _VLIW_LOADS:
                t = newtemp()
                emit(f"uint32_t {t}; {_LD_MACRO[name]}({t}, {vsrc(srcs[0])});")
                sched_write(k + lat, dest[0], dest[1], t)
                continue
            if name in _VLIW_STORES:
                emit(f"{_ST_MACRO[name]}({vsrc(srcs[0])}, {vsrc(srcs[1])});")
                continue
            if name == "setra":
                emit(f"ra = {vsrc(srcs[0])};")
                continue
            if name == "getra":
                t = newtemp()
                emit(f"uint32_t {t} = ra;")
                sched_write(k + lat, dest[0], dest[1], t)
                continue
            if name == "copy":
                t = newtemp()
                emit(f"uint32_t {t} = {vsrc(srcs[0])};")
                sched_write(k + lat, dest[0], dest[1], t)
                continue
            tmpl = _C_ALU.get(name)
            if tmpl is None:
                raise _Unsupported(name)
            if len(srcs) == 2:
                expr = tmpl.format(a=vsrc(srcs[0]), b=vsrc(srcs[1]))
            else:
                expr = tmpl.format(a=vsrc(srcs[0]))
            t = newtemp()
            emit(f"uint32_t {t} = {expr};")
            sched_write(k + lat, dest[0], dest[1], t)

    for due_rel, off, t in exit_writes:
        emit(
            f"if (wb_push(pd, pv, fum, &whead, &wlen, {_cexpr(due_rel)}, "
            f"{off}, {t})) {{ ERR(-9, 0, 0); }}"
        )

    case = [f"case {bi}: {{"]
    case.extend("    " + line for line in lines)
    case.append(f"    execs[{bi}] += 1;")
    if halts:
        # flush every in-flight write so the exit code is final
        case.append("    while (wlen > 0) {")
        case.append("        rf[fum[whead]] = pv[whead]; whead++; wlen--;")
        case.append("    }")
        if n > 1:
            case.append(f"    c += {n - 1};")
        case.append("    st = 3; goto done;")
    else:
        case.append(f"    c += {n};")
        if ctl_emitted:
            case.append("    if (rc == c) { pc = (int64_t)rt; rc = -1; }")
            case.append(f"    else {{ pc = {start + n}; }}")
        else:
            case.append(f"    pc = {start + n};")
        case.append("    break;")
    case.append("}")
    return n, case


# ---------------------------------------------------------------------------
# entry discovery
# ---------------------------------------------------------------------------


def _collect_entries(program, n_instrs, has_halt, has_ctl, has_call):
    """Block entry pcs: pc 0, every program label, every call return site
    (``pc + jl + 1``), and the closure of their fall-through successors.
    In a linked program these are all the pcs a redirect can reach (every
    target is transported as a label immediate; ``ret`` lands on a return
    site), so chained execution leaves the shared object only for carried
    redirects.  Any other pc is stepped by the Python dispatch loop's
    single-cycle fallback."""
    jl = program.machine.jump_latency
    returns = (pc + jl + 1 for pc in range(n_instrs) if has_call(pc))
    roots = {0, *program.labels.values(), *returns}
    seen: set[int] = set()
    work = sorted(p for p in roots if 0 <= p < n_instrs)
    while work:
        p = work.pop()
        if p in seen:
            continue
        seen.add(p)
        length, halts, _ = _partition(p, n_instrs, jl, has_halt, has_ctl)
        if length and not halts and p + length < n_instrs:
            work.append(p + length)
    return sorted(seen)


# ---------------------------------------------------------------------------
# program-level builders
# ---------------------------------------------------------------------------


def build_native_program(program: Program) -> NativeProgram | None:
    """Generate the C translation unit for *program*; ``None`` when the
    style is not supported or no block could be compiled."""
    if program.style == "tta":
        return _build_tta(program)
    if program.style == "vliw":
        return _build_vliw(program)
    return None


def _build_tta(program: Program) -> NativeProgram | None:
    decoded = static_decode_tta(program)
    n_instrs = len(decoded)
    if n_instrs == 0:
        return None
    machine = program.machine
    rf_layout, rf_total = _rf_layout(machine)
    rf_off = {name: base for name, base, _size in rf_layout}
    fu_names = [fu.name for fu in machine.all_units]
    fu_idx = {name: i for i, name in enumerate(fu_names)}

    maxlat = 1  # getra pushes at cycle + 1
    for _rf_moves, _o1_moves, trig_moves, _counts in decoded:
        for _src, _fu, opcode in trig_moves:
            spec = OPS.get(opcode)
            if spec is not None and spec.latency > maxlat:
                maxlat = spec.latency
    pcap = 8
    while pcap < maxlat + 2:
        pcap *= 2

    def has_halt(p):
        return any(op == "halt" for _, _, op in decoded[p][2])

    def has_ctl(p):
        return any(op in _TTA_CTL for _, _, op in decoded[p][2])

    def has_call(p):
        return any(op == "call" for _, _, op in decoded[p][2])

    entries = _collect_entries(program, n_instrs, has_halt, has_ctl, has_call)
    blocks = []
    total = 0
    for start in entries:
        try:
            n, case = _gen_tta_block(
                program, start, decoded, rf_off, fu_idx, pcap, len(blocks)
            )
        except _Unsupported:
            continue
        if total + n > _MAX_TOTAL_CYCLES:
            break
        total += n
        blocks.append((start, n, case))
    if not blocks:
        return None
    source = _assemble("tta", n_instrs, blocks, pcap, 16)
    return NativeProgram(
        style="tta",
        source=source,
        n_instrs=n_instrs,
        entries=[(s, n) for s, n, _ in blocks],
        rf_layout=rf_layout,
        rf_total=rf_total,
        fu_names=fu_names,
        pcap=pcap,
        wcap=16,
        n_blocks=len(blocks),
    )


def _build_vliw(program: Program) -> NativeProgram | None:
    decoded = static_decode_vliw(program)
    n_instrs = len(decoded)
    if n_instrs == 0:
        return None
    machine = program.machine
    rf_layout, rf_total = _rf_layout(machine)
    rf_off = {name: base for name, base, _size in rf_layout}
    maxlat = _vliw_max_latency(decoded)
    wcap = max(16, 4 * (maxlat + 2) * max(1, machine.issue_width))

    def has_halt(p):
        return any(op[0] == "halt" for op in decoded[p])

    def has_ctl(p):
        return any(op[0] in _VLIW_CTL for op in decoded[p])

    def has_call(p):
        return any(op[0] == "call" for op in decoded[p])

    entries = _collect_entries(program, n_instrs, has_halt, has_ctl, has_call)
    blocks = []
    total = 0
    for start in entries:
        try:
            n, case = _gen_vliw_block(
                program, start, decoded, rf_off, maxlat, len(blocks)
            )
        except _Unsupported:
            continue
        if total + n > _MAX_TOTAL_CYCLES:
            break
        total += n
        blocks.append((start, n, case))
    if not blocks:
        return None
    source = _assemble("vliw", n_instrs, blocks, pcap=8, wcap=wcap)
    return NativeProgram(
        style="vliw",
        source=source,
        n_instrs=n_instrs,
        entries=[(s, n) for s, n, _ in blocks],
        rf_layout=rf_layout,
        rf_total=rf_total,
        fu_names=[],
        pcap=8,
        wcap=wcap,
        n_blocks=len(blocks),
    )
