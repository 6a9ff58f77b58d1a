/* The native simulation engine (mode="native").
 *
 * One fixed interpreter for every TTA and VLIW program.  It is compiled
 * once per (compiler, flags) by repro.sim.native and runs programs that
 * repro.sim.cgen has encoded into flat int32 tables (prog[]).  It follows
 * the fast stepper of repro.sim.predecode cycle for cycle, so every exit
 * code, cycle count, counter and error matches the checked reference.
 *
 * State (shared with the Python driver through repro_native_run):
 *
 *   prog[]   int32   the encoded program (header, per-pc record offsets,
 *                    records; layout in repro.sim.cgen)
 *   v[]      uint32  the value space every operand indexes: all register
 *                    files concatenated, then (TTA) one sample cell per
 *                    FU and the latch cells, then the immediate pool
 *   fu32[]   uint32  per FU: [o1, result]                        (TTA)
 *   pd[]     int64   per FU: due-cycle ring of PCAP entries      (TTA)
 *                    write-back queue due cycles                 (VLIW)
 *   pv[]     uint32  per FU: value ring of PCAP entries          (TTA)
 *                    write-back queue values                     (VLIW)
 *   fum[]    int32   per FU: [len, head, has_result]             (TTA)
 *                    write-back queue v[] offsets                (VLIW)
 *   mem[]    uint8   the data memory (the simulator's bytearray)
 *   ctl[]    int64   [cycle, pc, rc, rt, ra, max_cycles, err_a, err_b,
 *                    mem_size, wb_len]: in/out machine state
 *   execs[]  int64   executions per pc
 *
 * A run returns ST_HALT, or a negative status with the error operands in
 * ctl[]; the driver rebuilds the reference engine's exact error from them
 * and the synced-back state.  The names and numbers below are shared with
 * repro.sim.cgen (tests/test_native.py checks the opcode list).
 */
#include <stdint.h>
#include <string.h>

/* ctl[] slots */
enum { CTL_CYCLE, CTL_PC, CTL_RC, CTL_RT, CTL_RA, CTL_MAX_CYCLES,
       CTL_ERR_A, CTL_ERR_B, CTL_MEM_SIZE, CTL_WB_LEN };

/* prog[] header slots; the per-pc record offsets follow them */
enum { H_STYLE, H_N_INSTRS, H_JL1, H_PCAP, H_CELLS, H_WCAP, H_WORDS };

/* return statuses */
enum { ST_HALT = 3, ST_FU_READ = -1, ST_FU_PUSH = -2, ST_OVERLAP = -3,
       ST_PC_RANGE = -4, ST_MEM_RANGE = -5, ST_BUDGET = -6,
       ST_INTERNAL = -9 };

/* opcodes: the order of repro.sim.cgen.OPCODES */
enum opcode {
    OP_HALT, OP_GETRA, OP_SETRA, OP_COPY,
    OP_JUMP, OP_CALL, OP_RET, OP_CJUMP, OP_CJUMPZ,
    OP_LDW, OP_LDH, OP_LDHU, OP_LDQ, OP_LDQU,
    OP_STW, OP_STH, OP_STQ,
    OP_ADD, OP_SUB, OP_MUL, OP_AND, OP_IOR, OP_XOR, OP_EQ, OP_GT, OP_GTU,
    OP_SHL, OP_SHRU, OP_SHR, OP_SXHW, OP_SXQW
};

/* the twins of repro.sim.predecode._ALU_EXPR: uint32_t wraps mod 2**32,
 * signed compare and shift go through int32_t two's-complement views */
static uint32_t alu(int op, uint32_t a, uint32_t b)
{
    switch (op) {
    case OP_ADD: return a + b;
    case OP_SUB: return a - b;
    case OP_MUL: return a * b;
    case OP_AND: return a & b;
    case OP_IOR: return a | b;
    case OP_XOR: return a ^ b;
    case OP_EQ: return a == b;
    case OP_GT: return (int32_t)a > (int32_t)b;
    case OP_GTU: return a > b;
    case OP_SHL: return a << (b & 31u);
    case OP_SHRU: return a >> (b & 31u);
    case OP_SHR: return (uint32_t)((int32_t)a >> (int32_t)(b & 31u));
    case OP_SXHW: return (uint32_t)(int32_t)(int16_t)(uint16_t)a;
    case OP_SXQW: return (uint32_t)(int32_t)(int8_t)(uint8_t)a;
    }
    return 0;
}

/* The simulated memory is little-endian.  A 2- or 4-byte access is one
 * memcpy, byte-swapped on a big-endian host.  Both return the access
 * width on a fault (the address is the operand as the program made it),
 * 0 otherwise. */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#define LE16(x) __builtin_bswap16(x)
#define LE32(x) __builtin_bswap32(x)
#else
#define LE16(x) (x)
#define LE32(x) (x)
#endif

static int load(int op, uint32_t a, const uint8_t *mem, uint64_t memsz,
                uint32_t *out)
{
    int width = op == OP_LDW ? 4 : op == OP_LDH || op == OP_LDHU ? 2 : 1;
    uint32_t w;
    uint16_t h;
    if ((uint64_t)a + width > memsz)
        return width;
    switch (op) {
    case OP_LDW: memcpy(&w, mem + a, 4); *out = LE32(w); break;
    case OP_LDH: memcpy(&h, mem + a, 2);
        *out = (uint32_t)(int32_t)(int16_t)LE16(h); break;
    case OP_LDHU: memcpy(&h, mem + a, 2); *out = LE16(h); break;
    case OP_LDQ: *out = (uint32_t)(int32_t)(int8_t)mem[a]; break;
    default: *out = mem[a]; break;
    }
    return 0;
}

static int store(int op, uint32_t a, uint32_t value, uint8_t *mem,
                 uint64_t memsz)
{
    int width = op == OP_STW ? 4 : op == OP_STH ? 2 : 1;
    uint32_t w;
    uint16_t h;
    if ((uint64_t)a + width > memsz)
        return width;
    if (op == OP_STW) {
        w = LE32(value);
        memcpy(mem + a, &w, 4);
    } else if (op == OP_STH) {
        h = LE16((uint16_t)value);
        memcpy(mem + a, &h, 2);
    } else {
        mem[a] = (uint8_t)value;
    }
    return 0;
}

/* what an operation did (execute's nonnegative returns) */
enum { FX_NONE, FX_HALT, FX_RESULT, FX_JUMP };

/* One operation of either style on operands a and b: a TTA trigger's
 * value and its unit's o1, or a VLIW operation's two sources (a store's
 * address and data, a conditional jump's condition and target).  Returns
 * FX_RESULT with the result in *out, FX_JUMP with the target in *out,
 * FX_NONE or FX_HALT, or ST_MEM_RANGE with the access width in *out. */
static int execute(int op, uint32_t a, uint32_t b, int64_t pc, int64_t jl1,
                   uint32_t *ra, uint8_t *mem, uint64_t memsz, int64_t *out)
{
    uint32_t result;
    int fault;
    switch (op) {
    case OP_HALT:
        return FX_HALT;
    case OP_SETRA:
        *ra = a;
        return FX_NONE;
    case OP_GETRA:
        *out = *ra;
        return FX_RESULT;
    case OP_COPY:
        *out = a;
        return FX_RESULT;
    case OP_JUMP:
        *out = a;
        return FX_JUMP;
    case OP_CALL:
        *ra = (uint32_t)(pc + jl1);
        *out = a;
        return FX_JUMP;
    case OP_RET:
        *out = *ra;
        return FX_JUMP;
    case OP_CJUMP:
        if (!a)
            return FX_NONE;
        *out = b;
        return FX_JUMP;
    case OP_CJUMPZ:
        if (a)
            return FX_NONE;
        *out = b;
        return FX_JUMP;
    case OP_LDW: case OP_LDH: case OP_LDHU: case OP_LDQ: case OP_LDQU:
        fault = load(op, a, mem, memsz, &result);
        if (fault) {
            *out = fault;
            return ST_MEM_RANGE;
        }
        *out = result;
        return FX_RESULT;
    case OP_STW: case OP_STH: case OP_STQ:
        fault = store(op, a, b, mem, memsz);
        if (fault) {
            *out = fault;
            return ST_MEM_RANGE;
        }
        return FX_NONE;
    default:
        *out = alu(op, a, b);
        return FX_RESULT;
    }
}

/* ------------------------------------------------------------------------
 * TTA
 *
 * A record is [n_reads, n_latches, n_o1, n_trigs, n_writes], then per FU
 * read its unit; per latch (src, cell); per o1 move (src, unit); per
 * trigger (src, unit, opcode, latency); per RF write (src, dst).  Sources
 * and destinations index v[].
 * --------------------------------------------------------------------- */

/* _FU.push: the monotonicity check first (the reference raises before it
 * appends).  A full ring commits its due entries, which changes no result
 * and no error text: any later read would commit them first, a unit that
 * has committed can never raise the errors whose text shows its pending
 * list, and the newest entry, which a push error names, stays.  Only the
 * unit's state as synced back after a later error shows it (the reference
 * keeps those entries pending).  By the due-window bound (PCAP > the
 * longest latency + 1) the commit always frees a slot. */
static int fu_push(int32_t *m, int64_t *fpd, uint32_t *fpv, uint32_t *res,
                   int32_t pmsk, int64_t due, uint32_t value, int64_t c)
{
    int32_t s;
    if (m[0] && due <= fpd[(m[1] + m[0] - 1) & pmsk])
        return ST_FU_PUSH;
    if (m[0] == pmsk + 1) {
        while (m[0] && fpd[m[1]] <= c) {
            *res = fpv[m[1]];
            m[2] = 1;
            m[1] = (m[1] + 1) & pmsk;
            m[0]--;
        }
        if (m[0] == pmsk + 1)
            return ST_INTERNAL;
    }
    s = (m[1] + m[0]) & pmsk;
    fpd[s] = due;
    fpv[s] = value;
    m[0]++;
    return 0;
}

static int run_tta(const int32_t *prog, uint32_t *v, uint32_t *fu32,
                   int64_t *pd, uint32_t *pv, int32_t *fum, uint8_t *mem,
                   int64_t *ctl, int64_t *execs)
{
    const int64_t n_instrs = prog[H_N_INSTRS];
    const int32_t *index = prog + H_WORDS;
    const int64_t jl1 = prog[H_JL1];
    const int32_t pcap = prog[H_PCAP], pmsk = pcap - 1;
    uint32_t *cells = v + prog[H_CELLS];
    const int64_t maxc = ctl[CTL_MAX_CYCLES];
    const uint64_t memsz = (uint64_t)ctl[CTL_MEM_SIZE];
    int64_t c = ctl[CTL_CYCLE], pc = ctl[CTL_PC], rc = ctl[CTL_RC];
    int64_t rt = ctl[CTL_RT], err_a = 0, err_b = 0;
    uint32_t ra = (uint32_t)ctl[CTL_RA];
    int st;

    for (;;) {
        const int32_t *r;
        int32_t n_reads, n_latches, n_o1, n_trigs, n_writes, i, halted = 0;
        if (c == rc) {
            pc = rt;
            rc = -1;
        }
        if (pc < 0 || pc >= n_instrs) {
            st = ST_PC_RANGE;
            err_a = pc;
            break;
        }
        execs[pc]++;
        r = prog + index[pc];
        n_reads = r[0];
        n_latches = r[1];
        n_o1 = r[2];
        n_trigs = r[3];
        n_writes = r[4];
        r += 5;
        /* sample every unit the instruction reads, in move order: the
         * reference's lazy commit, then the read or its error */
        for (i = 0; i < n_reads; i++) {
            int32_t f = r[i];
            int32_t *m = fum + 3 * f;
            const int64_t *fpd = pd + f * pcap;
            while (m[0] && fpd[m[1]] <= c) {
                fu32[2 * f + 1] = pv[f * pcap + m[1]];
                m[2] = 1;
                m[1] = (m[1] + 1) & pmsk;
                m[0]--;
            }
            if (!m[2]) {
                st = ST_FU_READ;
                err_a = f;
                err_b = c;
                goto out;
            }
            cells[f] = fu32[2 * f + 1];
        }
        r += n_reads;
        /* an RF write's source that an earlier write of the instruction
         * overwrites is latched first */
        for (i = 0; i < n_latches; i++, r += 2)
            v[r[1]] = v[r[0]];
        for (i = 0; i < n_o1; i++, r += 2)
            fu32[2 * r[1]] = v[r[0]];
        for (i = 0; i < n_trigs; i++, r += 4) {
            int32_t f = r[1];
            int64_t due = c + r[3], out;
            int fx = execute(r[2], v[r[0]], fu32[2 * f], pc, jl1, &ra, mem,
                             memsz, &out);
            if (fx == FX_HALT) {
                halted = 1;
            } else if (fx == FX_RESULT) {
                st = fu_push(fum + 3 * f, pd + f * pcap, pv + f * pcap,
                             fu32 + 2 * f + 1, pmsk, due, (uint32_t)out, c);
                if (st) {
                    err_a = f;
                    err_b = due;
                    goto out;
                }
            } else if (fx == FX_JUMP) {
                /* fires jump_latency + 1 cycles later */
                if (rc >= 0) {
                    st = ST_OVERLAP;
                    goto out;
                }
                rc = c + jl1;
                rt = out;
            } else if (fx < 0) {
                st = fx;
                err_a = v[r[0]];
                err_b = out;
                goto out;
            }
        }
        for (i = 0; i < n_writes; i++, r += 2)
            v[r[1]] = v[r[0]];
        if (halted) {
            st = ST_HALT;
            break;
        }
        c++;
        pc++;
        if (c > maxc) {
            st = ST_BUDGET;
            break;
        }
    }
out:
    ctl[CTL_CYCLE] = c;
    ctl[CTL_PC] = pc;
    ctl[CTL_RC] = rc;
    ctl[CTL_RT] = rt;
    ctl[CTL_RA] = ra;
    ctl[CTL_ERR_A] = err_a;
    ctl[CTL_ERR_B] = err_b;
    return st;
}

/* ------------------------------------------------------------------------
 * VLIW
 *
 * A record is [n_ops], then per op (opcode, src0, src1, dst, latency);
 * sources and destinations index v[].  The write-back queue pd/pv/fum
 * (due, value, destination) is kept sorted by due, a later write after
 * the earlier ones of the same due, which is the reference heap's
 * (due, seq) pop order.
 * --------------------------------------------------------------------- */

/* queue one write; nonzero on overflow (unreachable: live entries are
 * bounded by (longest latency + 2) * issue width) */
static int wb_push(int64_t *wd, uint32_t *wv, int32_t *wo, int32_t wcap,
                   int32_t *head, int32_t *len, int64_t due, int32_t dst,
                   uint32_t value)
{
    int32_t h = *head, l = *len, at, i;
    if (l >= wcap)
        return 1;
    if (h + l >= wcap) {
        for (i = 0; i < l; i++) {
            wd[i] = wd[h + i];
            wv[i] = wv[h + i];
            wo[i] = wo[h + i];
        }
        h = *head = 0;
    }
    at = h + l;
    while (at > h && wd[at - 1] > due)
        at--;
    for (i = h + l; i > at; i--) {
        wd[i] = wd[i - 1];
        wv[i] = wv[i - 1];
        wo[i] = wo[i - 1];
    }
    wd[at] = due;
    wv[at] = value;
    wo[at] = dst;
    *len = l + 1;
    return 0;
}

static int run_vliw(const int32_t *prog, uint32_t *v, int64_t *wd,
                    uint32_t *wv, int32_t *wo, uint8_t *mem, int64_t *ctl,
                    int64_t *execs)
{
    const int64_t n_instrs = prog[H_N_INSTRS];
    const int32_t *index = prog + H_WORDS;
    const int64_t jl1 = prog[H_JL1];
    const int32_t wcap = prog[H_WCAP];
    const int64_t maxc = ctl[CTL_MAX_CYCLES];
    const uint64_t memsz = (uint64_t)ctl[CTL_MEM_SIZE];
    int64_t c = ctl[CTL_CYCLE], pc = ctl[CTL_PC], rc = ctl[CTL_RC];
    int64_t rt = ctl[CTL_RT], err_a = 0, err_b = 0;
    uint32_t ra = (uint32_t)ctl[CTL_RA];
    int32_t whead = 0, wlen = (int32_t)ctl[CTL_WB_LEN], i;
    int st;

    for (;;) {
        const int32_t *r;
        int32_t n_ops, halted = 0;
        /* commit the writes whose write-back cycle has passed */
        while (wlen > 0 && wd[whead] < c) {
            v[wo[whead]] = wv[whead];
            whead++;
            wlen--;
        }
        if (c == rc) {
            pc = rt;
            rc = -1;
        }
        if (pc < 0 || pc >= n_instrs) {
            st = ST_PC_RANGE;
            err_a = pc;
            break;
        }
        execs[pc]++;
        r = prog + index[pc];
        n_ops = r[0];
        for (r++; n_ops > 0; n_ops--, r += 5) {
            int64_t out;
            int fx = execute(r[0], v[r[1]], v[r[2]], pc, jl1, &ra, mem, memsz,
                             &out);
            if (fx == FX_HALT) {
                halted = 1;
            } else if (fx == FX_RESULT) {
                /* written back latency cycles later */
                if (wb_push(wd, wv, wo, wcap, &whead, &wlen, c + r[4], r[3],
                            (uint32_t)out)) {
                    st = ST_INTERNAL;
                    goto out;
                }
            } else if (fx == FX_JUMP) {
                if (rc >= 0) {
                    st = ST_OVERLAP;
                    goto out;
                }
                rc = c + jl1;
                rt = out;
            } else if (fx < 0) {
                st = fx;
                err_a = v[r[1]];
                err_b = out;
                goto out;
            }
        }
        if (halted) {
            /* flush in-flight writes so the exit code is final */
            for (; wlen > 0; whead++, wlen--)
                v[wo[whead]] = wv[whead];
            st = ST_HALT;
            break;
        }
        c++;
        pc++;
        if (c > maxc) {
            st = ST_BUDGET;
            break;
        }
    }
out:
    /* hand the queue back from slot 0 */
    for (i = 0; i < wlen; i++) {
        wd[i] = wd[whead + i];
        wv[i] = wv[whead + i];
        wo[i] = wo[whead + i];
    }
    ctl[CTL_WB_LEN] = wlen;
    ctl[CTL_CYCLE] = c;
    ctl[CTL_PC] = pc;
    ctl[CTL_RC] = rc;
    ctl[CTL_RT] = rt;
    ctl[CTL_RA] = ra;
    ctl[CTL_ERR_A] = err_a;
    ctl[CTL_ERR_B] = err_b;
    return st;
}

int repro_native_run(const int32_t *prog, uint32_t *v, uint32_t *fu32,
                     int64_t *pd, uint32_t *pv, int32_t *fum, uint8_t *mem,
                     int64_t *ctl, int64_t *execs)
{
    if (prog[H_STYLE] == 0)
        return run_tta(prog, v, fu32, pd, pv, fum, mem, ctl, execs);
    return run_vliw(prog, v, pd, pv, fum, mem, ctl, execs);
}
