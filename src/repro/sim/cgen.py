"""C code generation for the native simulation engine (``mode="native"``).

The turbo and native engines compile the same basic blocks: one block
walker per core style (:func:`~repro.sim.blockcompile._walk_tta` /
:func:`~repro.sim.blockcompile._walk_vliw`) decides what a block does and
prints it through a printer that supplies only syntax.  Turbo's printer
emits a Python function; this module's :class:`_CBlock` emits a ``case``
of C, and every block of a program goes into **one translation unit**
compiled to a single shared object by :mod:`repro.sim.native`.

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
  without a block is still correct: the shared Python driver steps it
  one precise cycle at a time until it reaches an entry.
* **Static FU-result forwarding (TTA)**, decided by the walker (see
  :func:`~repro.sim.blockcompile._walk_tta`): a known ring's reads and
  pushes are constant-index stores to ``pd``/``pv``/``fum``/``fu32``;
  only dynamic ones use the ``FUREAD``/``FUPUSH`` macros.
* **Out-of-line VLIW drains.**  The write-back queue only holds writes
  carried into a block; each drain point is one inline emptiness test in
  front of a shared ``wb_drain`` call.
* **Single-access memory macros.**  A 2- or 4-byte load or store is one
  bounds check and one ``memcpy``, which the compiler emits as a single
  access even unoptimised (:mod:`repro.sim.native` builds at ``-O0``),
  byte-swapped only on a big-endian host.

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

from dataclasses import dataclass

from repro.backend.program import Program
from repro.sim.blockcompile import (
    _cexpr,
    _op_predicates,
    _partition,
    _tta_pcap,
    _vliw_max_latency,
    _walk_tta,
    _walk_vliw,
)
from repro.sim.predecode import static_decode_tta, static_decode_vliw

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


#: C twins of ``predecode._ALU_EXPR`` (and so of ``predecode.ALU_FUNCS``).  All
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
#include <string.h>

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

/* the simulated memory is little-endian: a multi-byte access is one
 * memcpy of 2 or 4 bytes, which cc turns into a single load or store even
 * at -O0, byte-swapped on a big-endian host */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#define LE16(x) __builtin_bswap16(x)
#define LE32(x) __builtin_bswap32(x)
#else
#define LE16(x) (x)
#define LE32(x) (x)
#endif

#define LDW(t, a) do {{ uint32_t _a = (a), _w; CHK(_a, 4) \\
    memcpy(&_w, mem + _a, 4); (t) = LE32(_w); }} while (0)
#define LDHU(t, a) do {{ uint32_t _a = (a); uint16_t _h; CHK(_a, 2) \\
    memcpy(&_h, mem + _a, 2); (t) = (uint32_t)LE16(_h); }} while (0)
#define LDH(t, a) do {{ LDHU(t, a); \\
    (t) = (uint32_t)(int32_t)(int16_t)(uint16_t)(t); }} while (0)
#define LDQU(t, a) do {{ uint32_t _a = (a); CHK(_a, 1) \\
    (t) = (uint32_t)mem[_a]; }} while (0)
#define LDQ(t, a) do {{ LDQU(t, a); \\
    (t) = (uint32_t)(int32_t)(int8_t)(uint8_t)(t); }} while (0)
#define STW(a, v) do {{ uint32_t _a = (a); CHK(_a, 4) \\
    {{ uint32_t _w = LE32((uint32_t)(v)); memcpy(mem + _a, &_w, 4); }} }} while (0)
#define STH(a, v) do {{ uint32_t _a = (a); CHK(_a, 2) \\
    {{ uint16_t _h = LE16((uint16_t)(v)); memcpy(mem + _a, &_h, 2); }} }} while (0)
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
# the C printer (native)
# ---------------------------------------------------------------------------


class _CBlock:
    """Prints one block as a ``case`` of the dispatch ``switch``.

    Register files and FU ports are flat-array slots; every value a block
    computes lives in a ``uint32_t`` temp.  A unit's ring, once the
    walker knows it, is laid out from slot 0 at the forwarded read, and
    ``heads`` tracks its physical head slot from there.
    """

    __slots__ = ("rf_off", "fu_idx", "pcap", "bi", "lines", "ind", "ntemp", "heads")

    def __init__(self, rf_off, fu_idx, pcap, bi):
        self.rf_off = rf_off
        self.fu_idx = fu_idx
        self.pcap = pcap
        self.bi = bi
        self.lines: list[str] = []
        self.ind = ""
        self.ntemp = 0
        self.heads: dict[str, int] = {}

    def _emit(self, s):
        self.lines.append(self.ind + s)

    def _newtemp(self):
        self.ntemp += 1
        return f"t{self.ntemp}"

    def imm(self, v):
        return f"{v}u"

    def rf(self, rf, idx):
        return f"rf[{self.rf_off[rf] + idx}]"

    def temp(self, expr):
        t = self._newtemp()
        self._emit(f"uint32_t {t} = {expr};")
        return t

    def ra(self):
        return "ra"

    def o1(self, fu):
        return f"fu32[{2 * self.fu_idx[fu]}]"

    def assign(self, lhs, rhs):
        self._emit(f"{lhs} = {rhs};")

    def fu_read(self, fu, k):
        t = self._newtemp()
        self._emit(f"uint32_t {t}; FUREAD({t}, {self.fu_idx[fu]}, {_cexpr(k)});")
        return t

    def fu_push(self, fu, k, due_rel, val):
        self._emit(f"FUPUSH({self.fu_idx[fu]}, {_cexpr(due_rel)}, {val}, {_cexpr(k)});")

    def fu_forward(self, fu, ring, result):
        f = self.fu_idx[fu]
        base = f * self.pcap
        self.heads[fu] = 0
        for j, (d, t) in enumerate(ring):
            self._emit(f"pd[{base + j}] = {_cexpr(d)}; pv[{base + j}] = {t};")
        self._emit(
            f"fu32[{2 * f + 1}] = {result}; fum[{3 * f}] = {len(ring)}; "
            f"fum[{3 * f + 1}] = 0; fum[{3 * f + 2}] = 1;"
        )

    def fu_commit(self, fu, n_due, ring, result):
        f = self.fu_idx[fu]
        head = self.heads[fu] = (self.heads[fu] + n_due) % self.pcap
        self._emit(
            f"fu32[{2 * f + 1}] = {result}; "
            f"fum[{3 * f}] = {len(ring)}; fum[{3 * f + 1}] = {head};"
        )

    def fu_append(self, fu, ring):
        f = self.fu_idx[fu]
        slot = f * self.pcap + (self.heads[fu] + len(ring) - 1) % self.pcap
        d, t = ring[-1]
        self._emit(
            f"pd[{slot}] = {_cexpr(d)}; pv[{slot}] = {t}; fum[{3 * f}] = {len(ring)};"
        )

    def fu_push_error(self, fu, due_rel, last_rel):
        self._emit(f"ERR(-2, {self.fu_idx[fu]}, {_cexpr(due_rel)});")

    def load(self, op, addr):
        t = self._newtemp()
        self._emit(f"uint32_t {t}; {_LD_MACRO[op]}({t}, {addr});")
        return t

    def store(self, op, addr, val):
        self._emit(f"{_ST_MACRO[op]}({addr}, {val});")

    def alu(self, op, a, b):
        return _C_ALU[op].format(a=a, b=b)

    def ctl_check(self):
        self._emit("if (rc >= 0) { ERR(-3, 0, 0); }")

    def begin_if(self, cond, negate):
        self._emit(f"if (!({cond})) {{" if negate else f"if ({cond}) {{")
        self.ind = "    "

    def end_if(self):
        self.ind = ""
        self._emit("}")

    def drain(self, k):
        self._emit(f"WB_DRAIN({_cexpr(k)});")

    def exit_write(self, due_rel, rf, idx, t):
        self._emit(
            f"if (wb_push(pd, pv, fum, &whead, &wlen, {_cexpr(due_rel)}, "
            f"{self.rf_off[rf] + idx}, {t})) {{ ERR(-9, 0, 0); }}"
        )

    def finish(self, start, n, halts, redirects, flush=False):
        """``(length, case lines)`` of the finished block."""
        bi = self.bi
        case = [f"case {bi}: {{"]
        case.extend("    " + line for line in self.lines)
        case.append(f"    execs[{bi}] += 1;")
        if halts:
            if flush:
                case.append("    while (wlen > 0) {")
                case.append("        rf[fum[whead]] = pv[whead]; whead++; wlen--;")
                case.append("    }")
            if n > 1:
                case.append(f"    c += {n - 1};")
            case.append("    st = 3; goto done;")
        else:
            case.append(f"    c += {n};")
            if redirects:
                case.append("    if (rc == c) { pc = (int64_t)rt; rc = -1; }")
                case.append(f"    else {{ pc = {start + n}; }}")
            else:
                case.append(f"    pc = {start + n};")
            case.append("    break;")
        case.append("}")
        return n, case


# ---------------------------------------------------------------------------
# entry discovery and the program-level builder
# ---------------------------------------------------------------------------


def _collect_entries(program, decoded):
    """Block entry pcs: pc 0, every program label, every call return site
    (``pc + jl + 1``), and the closure of their fall-through successors.
    In a linked program these are all the pcs a redirect can reach (every
    target is transported as a label immediate; ``ret`` lands on a return
    site), so chained execution leaves the shared object only for carried
    redirects.  Any other pc is stepped by the Python dispatch loop's
    single-cycle fallback."""
    n_instrs = len(decoded)
    has_halt, has_ctl, has_call = _op_predicates(program.style, decoded)
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


def build_native_program(program: Program) -> NativeProgram | None:
    """Generate the C translation unit for *program*; ``None`` when the
    style is not supported or no block could be compiled."""
    style = program.style
    if style == "tta":
        decoded = static_decode_tta(program)
    elif style == "vliw":
        decoded = static_decode_vliw(program)
    else:
        return None
    n_instrs = len(decoded)
    if n_instrs == 0:
        return None
    machine = program.machine
    jl = machine.jump_latency
    rf_layout, rf_total = _rf_layout(machine)
    rf_off = {name: base for name, base, _size in rf_layout}
    has_halt, has_ctl, _has_call = _op_predicates(style, decoded)
    if style == "tta":
        fu_names = [fu.name for fu in machine.all_units]
        pcap, wcap = _tta_pcap(decoded), 16

        def walk(out, start):
            return _walk_tta(out, decoded, start, jl, has_halt, has_ctl, pcap)

    else:
        fu_names = []
        maxlat = _vliw_max_latency(decoded)
        pcap, wcap = 8, max(16, 4 * (maxlat + 2) * max(1, machine.issue_width))

        def walk(out, start):
            return _walk_vliw(out, decoded, start, jl, has_halt, has_ctl, maxlat)

    fu_idx = {name: i for i, name in enumerate(fu_names)}
    blocks = []
    total = 0
    for start in _collect_entries(program, decoded):
        built = walk(_CBlock(rf_off, fu_idx, pcap, len(blocks)), start)
        if built is None:
            continue
        n, case = built
        if total + n > _MAX_TOTAL_CYCLES:
            break
        total += n
        blocks.append((start, n, case))
    if not blocks:
        return None
    return NativeProgram(
        style=style,
        source=_assemble(style, n_instrs, blocks, pcap, wcap),
        n_instrs=n_instrs,
        entries=[(s, n) for s, n, _ in blocks],
        rf_layout=rf_layout,
        rf_total=rf_total,
        fu_names=fu_names,
        pcap=pcap,
        wcap=wcap,
        n_blocks=len(blocks),
    )
