"""Native (generated-C) simulation engine, ``mode="native"``.

This is the fourth rung of the single-run engine ladder (checked →
fast → turbo → native): :mod:`repro.sim.cgen` emits the turbo engine's
basic blocks as one C translation unit, this module compiles it to a
shared object and drives it through the same pc-keyed dispatch as the
turbo driver.  Control only returns to Python for block boundaries the
C dispatcher cannot chain (carried redirects, uncompiled entries,
budget-edge blocks) — those are stepped by the turbo driver's exact
single-cycle fallback — and for dynamic errors, whose reference
``SimError``/``ValueError`` messages are reconstructed byte-identically
from the synced-back machine state.

Compilation and caching:

* the compiler is discovered once per run via ``$REPRO_CC`` or the
  first of ``cc``/``gcc``/``clang`` on PATH; ``$REPRO_NO_NATIVE_CC``
  (any non-empty value) disables discovery — ``mode="native"`` then
  degrades to the turbo engine with a one-time ``RuntimeWarning``;
* the degradation is loud: the warning names the reason, which for a
  failed build is the compiler's exit code and stderr tail (or its
  timeout), and every failed compile counts ``sim.native.cc_failed``;
  C generation and the C compile run in their own ``sim.native.cgen``
  and ``sim.native.cc`` spans, so a trace shows the compile apart from
  the simulation;
* built shared objects are cached at three levels: per-``Program``
  (``predecode_cache``), per-process (dlopened library by source key)
  and persistently in the artifact store's binary-blob kind, keyed by
  SHA-256 of (``SIM_ENGINE_VERSION``, compiler id, generated C source)
  so warm sweeps and service workers never invoke the C compiler;
* the FFI binding is cffi when importable, ctypes otherwise
  (``$REPRO_NATIVE_FFI=cffi|ctypes`` forces one for the differential
  tests).

Byte-identity with ``mode="checked"`` across exit code, cycles, every
statistics counter and error text is asserted by ``tests/test_native.py``
for all kernels × both styles.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from heapq import heappop as _heappop
from heapq import heappush as _heappush

from repro import obs
from repro.backend.abi import return_value_reg
from repro.sim.blockcompile import SIM_ENGINE_VERSION, _expand_hits
from repro.sim.cgen import (
    CTL_CYCLE,
    CTL_ERR_A,
    CTL_ERR_B,
    CTL_MAX_CYCLES,
    CTL_MEM_SIZE,
    CTL_PC,
    CTL_RA,
    CTL_RC,
    CTL_RT,
    CTL_WB_LEN,
    CTL_WORDS,
    ENTRY_SYMBOL,
    ST_BUDGET,
    ST_FU_PUSH,
    ST_FU_READ,
    ST_HALT,
    ST_MEM_RANGE,
    ST_OVERLAP,
    build_native_program,
)
from repro.sim.errors import SimError
from repro.sim.predecode import (
    _bind_tta_sampler,
    _bind_tta_thunk,
    _bind_vliw_op,
    static_decode_tta,
    static_decode_vliw,
)

#: set to any non-empty value to disable C compiler discovery entirely
NO_CC_ENV = "REPRO_NO_NATIVE_CC"
#: explicit compiler executable (name or path) overriding discovery
CC_ENV = "REPRO_CC"
#: force the FFI binding: "cffi" or "ctypes" (default: cffi, then ctypes)
FFI_ENV = "REPRO_NATIVE_FFI"

#: cache keys on ``Program.predecode_cache`` (None = engine unavailable)
_NATIVE_KEYS = {"tta": "tta-native", "vliw": "vliw-native"}
#: ``predecode_cache`` key of the reason the engine is unavailable
_REASON_KEY = "native-unavailable"

_ABSENT = object()

#: process-wide dlopened bindings keyed by shared-object key (a str
#: records a permanent build failure's reason so it is not retried)
_LIB_CACHE: dict[str, object] = {}

#: flags for every generated translation unit.  The compile dominates a
#: program's first native run and its cost is linear in the volume of
#: emitted code, which cgen keeps small (see its module docstring).  -O1,
#: not -O2: on gcc 12, -O2 takes 2-5x as long on the same C for a modest
#: run-speed gain.  A module constant rather than an environment knob; the
#: sanitizer tests monkeypatch it (the flags are part of the shared-object
#: key, so such builds never mix with these).
_CC_FLAGS = ("-O1", "-fPIC", "-shared", "-fno-strict-aliasing", "-w")
_CC_TIMEOUT_S = 120

#: one-time degradation warning latch (tests reset it)
_WARNED = False


# ---------------------------------------------------------------------------
# compiler discovery and shared-object build
# ---------------------------------------------------------------------------


def find_compiler() -> str | None:
    """Path of the C compiler to use, or ``None`` when disabled/absent."""
    if os.environ.get(NO_CC_ENV):
        return None
    override = os.environ.get(CC_ENV)
    if override:
        return shutil.which(override)
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def _compiler_id(cc: str) -> str:
    """Short stable fingerprint of the compiler binary, so a toolchain
    upgrade on a shared cache volume invalidates stored objects."""
    cached = _CC_IDS.get(cc)
    if cached is not None:
        return cached
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        out = b""
    ident = hashlib.sha256(cc.encode() + b"\0" + out).hexdigest()[:16]
    _CC_IDS[cc] = ident
    return ident


_CC_IDS: dict[str, str] = {}


def _so_key(source: str, cc_id: str) -> str:
    """Artifact-store key of the shared object for *source*: any change
    to the engine version, the compiler, its flags, or the generated C
    re-keys it."""
    flags = " ".join(_CC_FLAGS)
    blob = f"native-v{SIM_ENGINE_VERSION}\0{cc_id}\0{flags}\0".encode()
    return hashlib.sha256(blob + source.encode()).hexdigest()


class _CcFailed(Exception):
    """The C compiler did not produce a shared object; the message is the
    reason shown in the degradation warning."""


def _compile_so(cc: str, source: str) -> bytes:
    """Compile *source* to shared-object bytes; raises :class:`_CcFailed`
    with the exit code and stderr tail (or the timeout) on failure."""
    with obs.span("sim.native.cc"), tempfile.TemporaryDirectory(
        prefix="repro-native-cc-"
    ) as tmp:
        c_path = os.path.join(tmp, "program.c")
        so_path = os.path.join(tmp, "program.so")
        with open(c_path, "w") as handle:
            handle.write(source)
        cmd = [cc, *_CC_FLAGS, "-o", so_path, c_path]
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=_CC_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise _CcFailed(f"{cc}: timeout after {_CC_TIMEOUT_S} s") from None
        except (OSError, subprocess.SubprocessError) as exc:
            raise _CcFailed(f"{cc}: {exc}") from None
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip()[-300:]
            raise _CcFailed(f"{cc}: exit {proc.returncode}: {tail}")
        try:
            with open(so_path, "rb") as handle:
                return handle.read()
        except OSError as exc:
            raise _CcFailed(f"{cc}: no shared object ({exc})") from None


_SO_DIR: str | None = None


def _so_dir() -> str:
    """Session-lifetime directory holding the dlopen-able ``.so`` files
    (the store keeps only checksummed payload bytes, and dlopen needs a
    real path)."""
    global _SO_DIR
    if _SO_DIR is None:
        _SO_DIR = tempfile.mkdtemp(prefix="repro-native-so-")
        atexit.register(shutil.rmtree, _SO_DIR, ignore_errors=True)
    return _SO_DIR


def _write_so(path: str, blob: bytes) -> None:
    fd, tmp_name = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    with os.fdopen(fd, "wb") as handle:
        handle.write(blob)
    os.replace(tmp_name, path)


# ---------------------------------------------------------------------------
# FFI bindings (cffi preferred, ctypes fallback) — one tiny shared surface
# ---------------------------------------------------------------------------

_SIGNATURE = (
    f"int {ENTRY_SYMBOL}(uint32_t *, uint32_t *, int64_t *, uint32_t *, "
    "int32_t *, uint8_t *, int64_t *, int64_t *);"
)


class _CffiBinding:
    kind = "cffi"

    def __init__(self, path: str):
        from cffi import FFI

        self._ffi = ffi = FFI()
        ffi.cdef(_SIGNATURE)
        self._lib = ffi.dlopen(path)
        self._fn = getattr(self._lib, ENTRY_SYMBOL)

    def alloc_u32(self, n: int):
        return self._ffi.new("uint32_t[]", max(1, n))

    def alloc_i32(self, n: int):
        return self._ffi.new("int32_t[]", max(1, n))

    def alloc_i64(self, n: int):
        return self._ffi.new("int64_t[]", max(1, n))

    def mem_view(self, data: bytearray):
        return self._ffi.from_buffer("uint8_t[]", data, require_writable=True)

    def call(self, rf, fu32, pd, pv, fum, mem, ctl, execs) -> int:
        return self._fn(rf, fu32, pd, pv, fum, mem, ctl, execs)


class _CtypesBinding:
    kind = "ctypes"

    def __init__(self, path: str):
        import ctypes

        self._ct = ctypes
        lib = ctypes.CDLL(path)
        fn = getattr(lib, ENTRY_SYMBOL)
        fn.restype = ctypes.c_int
        fn.argtypes = [
            ctypes.POINTER(ctypes.c_uint32),
            ctypes.POINTER(ctypes.c_uint32),
            ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_uint32),
            ctypes.POINTER(ctypes.c_int32),
            ctypes.POINTER(ctypes.c_uint8),
            ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_int64),
        ]
        self._lib = lib
        self._fn = fn

    def alloc_u32(self, n: int):
        return (self._ct.c_uint32 * max(1, n))()

    def alloc_i32(self, n: int):
        return (self._ct.c_int32 * max(1, n))()

    def alloc_i64(self, n: int):
        return (self._ct.c_int64 * max(1, n))()

    def mem_view(self, data: bytearray):
        return (self._ct.c_uint8 * len(data)).from_buffer(data)

    def call(self, rf, fu32, pd, pv, fum, mem, ctl, execs) -> int:
        return self._fn(rf, fu32, pd, pv, fum, mem, ctl, execs)


def _make_binding(path: str):
    choice = os.environ.get(FFI_ENV, "").strip().lower()
    if choice not in ("", "cffi", "ctypes"):
        raise ValueError(f"unknown native FFI binding {choice!r}")
    if choice in ("", "cffi"):
        try:
            return _CffiBinding(path)
        except ImportError:
            if choice == "cffi":
                raise
    return _CtypesBinding(path)


# ---------------------------------------------------------------------------
# engine acquisition
# ---------------------------------------------------------------------------


class NativeEngine:
    """One program's compiled shared object plus its dispatch metadata."""

    __slots__ = ("nat", "binding", "entry_len")

    def __init__(self, nat, binding):
        self.nat = nat
        self.binding = binding
        #: entry pc -> block length, mirroring the C dispatch gate
        self.entry_len = {start: length for start, length in nat.entries}


def _load_or_compile(cc: str, key: str, source: str):
    """Binding for *source*, via the store's blob cache when possible, or
    the reason (a str) it could not be built."""
    from repro.pipeline.store import default_store

    store = default_store()
    so_path = os.path.join(_so_dir(), f"{key}.so")
    if store is not None:
        blob = store.load_blob(key)
        if blob is not None:
            _write_so(so_path, blob)
            try:
                binding = _make_binding(so_path)
            except OSError:
                # cached object not loadable here (other arch/toolchain,
                # truncated write survivor): rebuild and re-store below
                pass
            else:
                obs.count("sim.native.so_store_hits")
                return binding
    try:
        blob = _compile_so(cc, source)
    except _CcFailed as exc:
        obs.count("sim.native.cc_failed")
        return f"C compile failed: {exc}"
    obs.count("sim.native.so_compiled")
    _write_so(so_path, blob)
    try:
        binding = _make_binding(so_path)
    except OSError as exc:
        return f"compiled shared object did not load: {exc}"
    if store is not None:
        store.store_blob(key, blob)
    return binding


def _build_engine(program):
    """The program's :class:`NativeEngine`, or the reason (a str) there
    is none."""
    cc = find_compiler()
    if cc is None:
        obs.count("sim.native.no_compiler")
        return "no C compiler found"
    with obs.span("sim.native.cgen"):
        nat = build_native_program(program)
    if nat is None:
        return "program could not be compiled to native code"
    key = _so_key(nat.source, _compiler_id(cc))
    binding = _LIB_CACHE.get(key, _ABSENT)
    if binding is _ABSENT:
        binding = _load_or_compile(cc, key, nat.source)
        _LIB_CACHE[key] = binding
    elif not isinstance(binding, str):
        obs.count("sim.native.so_memory_hits")
    if isinstance(binding, str):
        return binding
    return NativeEngine(nat, binding)


def _get_engine(program):
    """The program's native engine, or ``None`` when unavailable (cached
    either way on ``predecode_cache`` so the decision is made once, with
    the reason next to it for the degradation warning)."""
    key = _NATIVE_KEYS.get(program.style)
    if key is None:
        return None
    cache = program.predecode_cache
    engine = cache.get(key, _ABSENT)
    if engine is _ABSENT:
        engine = _build_engine(program)
        if isinstance(engine, str):
            cache[_REASON_KEY] = engine
            engine = None
        cache[key] = engine
    return engine


def _warn_no_native(reason: str) -> None:
    global _WARNED
    if _WARNED:
        return
    _WARNED = True
    warnings.warn(
        f"mode='native' unavailable ({reason}); falling back to the "
        "turbo engine",
        RuntimeWarning,
        stacklevel=3,
    )


def _unavailable_reason(program) -> str:
    return program.predecode_cache.get(_REASON_KEY, "unavailable")


# ---------------------------------------------------------------------------
# shared error reconstruction
# ---------------------------------------------------------------------------


def _raise_native_error(status: int, err_a: int, err_b: int, fus):
    """Raise the reference engine's exact error for a negative C status.

    The machine state was synced back *before* this is called, so the
    FU ``pending`` lists seen here are byte-identical to the reference
    engine's at the failing cycle (see the cgen module docstring for why
    the lazy ring drain cannot perturb them).
    """
    from repro.sim.tta_sim import fu_unavailable_error

    if status == ST_FU_READ:
        raise fu_unavailable_error(fus[err_a], err_b)
    if status == ST_FU_PUSH:
        fu = fus[err_a]
        raise ValueError(
            f"{fu.name}: result due {err_b} not after pending {fu.pending[-1][0]}"
        )
    if status == ST_OVERLAP:
        raise SimError("overlapping control transfers")
    if status == ST_MEM_RANGE:
        raise SimError(f"memory access out of range: {err_a:#x}+{err_b}")
    raise SimError(f"native engine internal error (status {status})")


# ---------------------------------------------------------------------------
# TTA driver
# ---------------------------------------------------------------------------


def run_tta_native(sim):
    """Execute *sim*'s program with the generated-C engine.

    Bit- and cycle-exact with ``TTASimulator`` in checked mode, including
    every statistics counter (enforced by ``tests/test_native.py``).
    """
    from repro.sim.tta_sim import TTAResult

    engine = _get_engine(sim.program)
    if engine is None:
        _warn_no_native(_unavailable_reason(sim.program))
        from repro.sim.blockcompile import run_tta_turbo

        return run_tta_turbo(sim)

    program = sim.program
    decoded = static_decode_tta(program)
    machine = program.machine
    jl = machine.jump_latency
    max_cycles = sim.max_cycles
    n_instrs = len(decoded)
    hits = [0] * n_instrs

    nat = engine.nat
    ffi = engine.binding
    n_fus = len(nat.fu_names)
    pcap = nat.pcap
    pmsk = pcap - 1
    rf_arr = ffi.alloc_u32(nat.rf_total)
    fu32 = ffi.alloc_u32(2 * n_fus)
    pd = ffi.alloc_i64(n_fus * pcap)
    pv = ffi.alloc_u32(n_fus * pcap)
    fum = ffi.alloc_i32(3 * n_fus)
    ctl = ffi.alloc_i64(CTL_WORDS)
    execs = ffi.alloc_i64(nat.n_blocks)
    mem = ffi.mem_view(sim.memory.data)
    ctl[CTL_MAX_CYCLES] = max_cycles
    ctl[CTL_MEM_SIZE] = len(sim.memory.data)

    fus = [sim.fus[name] for name in nat.fu_names]
    rf_lists = [(sim.rfs[name], base, size) for name, base, size in nat.rf_layout]
    entry_len = engine.entry_len

    def push_state(cycle, pc, rc, rt):
        for regs, base, size in rf_lists:
            rf_arr[base : base + size] = regs
        for i, fu in enumerate(fus):
            # committing due results here is observationally neutral (any
            # read would commit first) and bounds the pending ring
            fu.commit(cycle)
            fu32[2 * i] = fu.o1
            fu32[2 * i + 1] = fu.result
            fum[3 * i] = len(fu.pending)
            fum[3 * i + 1] = 0
            fum[3 * i + 2] = 1 if fu.has_result else 0
            base = i * pcap
            for j, (due, value) in enumerate(fu.pending):
                pd[base + j] = due
                pv[base + j] = value
        ctl[CTL_CYCLE] = cycle
        ctl[CTL_PC] = pc
        ctl[CTL_RC] = rc
        ctl[CTL_RT] = rt
        ctl[CTL_RA] = sim.ra

    def pull_state():
        for regs, base, size in rf_lists:
            regs[:] = rf_arr[base : base + size]
        for i, fu in enumerate(fus):
            fu.o1 = fu32[2 * i]
            fu.result = fu32[2 * i + 1]
            fu.has_result = bool(fum[3 * i + 2])
            length = fum[3 * i]
            head = fum[3 * i + 1]
            base = i * pcap
            fu.pending = [
                (
                    pd[base + ((head + j) & pmsk)],
                    pv[base + ((head + j) & pmsk)],
                )
                for j in range(length)
            ]
        sim.ra = ctl[CTL_RA]
        return ctl[CTL_CYCLE], ctl[CTL_PC], ctl[CTL_RC], ctl[CTL_RT]

    fallback: dict[int, tuple] = {}

    def bind_instr(pc):
        rf_moves, o1_moves, trig_moves, _counts = decoded[pc]
        bound = (
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
        fallback[pc] = bound
        return bound

    pc = 0
    cycle = 0
    rc = -1  # pending redirect fire cycle (-1 = none)
    rt = 0
    while True:
        if rc < 0 and 0 <= pc < n_instrs:
            blk_len = entry_len.get(pc)
            if blk_len is not None and cycle + blk_len <= max_cycles + 1:
                push_state(cycle, pc, rc, rt)
                obs.count("sim.native.calls")
                status = ffi.call(rf_arr, fu32, pd, pv, fum, mem, ctl, execs)
                cycle, pc, rc, rt = pull_state()
                if status == ST_HALT:
                    break
                if status == ST_BUDGET:
                    raise SimError("cycle budget exceeded (runaway program?)")
                if status < 0:
                    _raise_native_error(status, ctl[CTL_ERR_A], ctl[CTL_ERR_B], fus)
                # status 0: the C gate rejected the next entry (carried
                # redirect, uncovered pc, budget edge), so on re-entering
                # the loop the mirrored gate above falls through to the
                # precise single-cycle step below; budget was already
                # checked in C after every executed block
                continue
        # precise single-cycle fallback (the turbo driver's, verbatim)
        if cycle == rc:
            pc = rt
            rc = -1
        if pc < 0 or pc >= n_instrs:
            raise SimError(f"PC out of range: {pc}")
        bound = fallback.get(pc)
        if bound is None:
            bound = bind_instr(pc)
        rf_moves, o1_moves, trig_moves = bound
        hits[pc] += 1
        if rf_moves:
            pending = [(regs, idx, sample(cycle)) for sample, regs, idx in rf_moves]
        else:
            pending = ()
        for sample, fu in o1_moves:
            fu.o1 = sample(cycle)
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
        for regs, idx, value in pending:
            regs[idx] = value
        if halted:
            break
        cycle += 1
        pc += 1
        if cycle > max_cycles:
            raise SimError("cycle budget exceeded (runaway program?)")

    rv = return_value_reg(machine)
    stats = TTAResult(sim.rfs[rv.rf][rv.idx], cycle + 1)
    block_counters = [
        (start, length, [execs[i]])
        for i, (start, length) in enumerate(nat.entries)
    ]
    _expand_hits(hits, block_counters)
    for count, (_, _, _, counts) in zip(hits, decoded):
        if count:
            stats.moves += count * counts[0]
            stats.triggers += count * counts[1]
            stats.rf_reads += count * counts[2]
            stats.bypass_reads += count * counts[3]
            stats.rf_writes += count * counts[4]
    sim._last_hits = hits
    sim._last_blocks = [(s, n, ctr[0]) for s, n, ctr in block_counters]
    sim._last_engine = "native"
    return stats


# ---------------------------------------------------------------------------
# VLIW driver
# ---------------------------------------------------------------------------


def run_vliw_native(sim):
    """Execute *sim*'s program with the generated-C engine.

    Bit- and cycle-exact with ``VLIWSimulator`` in checked mode,
    including the exposed delayed-write-back semantics.
    """
    from repro.sim.vliw_sim import VLIWResult

    engine = _get_engine(sim.program)
    if engine is None:
        _warn_no_native(_unavailable_reason(sim.program))
        from repro.sim.blockcompile import run_vliw_turbo

        return run_vliw_turbo(sim)

    program = sim.program
    decoded = static_decode_vliw(program)
    machine = program.machine
    jl1 = machine.jump_latency + 1
    max_cycles = sim.max_cycles
    n_instrs = len(decoded)
    hits = [0] * n_instrs
    op_counts = [len(bundle) for bundle in decoded]

    rfs = {rf.name: [0] * rf.size for rf in machine.register_files}
    sim._fast_rfs = rfs
    heap = sim._pending_slot_writes

    nat = engine.nat
    ffi = engine.binding
    wcap = nat.wcap
    rf_arr = ffi.alloc_u32(nat.rf_total)
    fu32 = ffi.alloc_u32(2)  # unused by VLIW code, the ABI is shared
    pd = ffi.alloc_i64(wcap)
    pv = ffi.alloc_u32(wcap)
    fum = ffi.alloc_i32(wcap)
    ctl = ffi.alloc_i64(CTL_WORDS)
    execs = ffi.alloc_i64(nat.n_blocks)
    mem = ffi.mem_view(sim.memory.data)
    ctl[CTL_MAX_CYCLES] = max_cycles
    ctl[CTL_MEM_SIZE] = len(sim.memory.data)

    rf_lists = [(rfs[name], base, size) for name, base, size in nat.rf_layout]
    base_of = {id(rfs[name]): base for name, base, _size in nat.rf_layout}
    slot_of = []
    for name, _base, size in nat.rf_layout:
        regs = rfs[name]
        slot_of.extend((regs, idx) for idx in range(size))
    entry_len = engine.entry_len

    def push_state(cycle, pc, rc, rt):
        for regs, base, size in rf_lists:
            rf_arr[base : base + size] = regs
        # sorted() on the heap list is exactly its (due, seq) pop order
        entries = sorted(heap)
        if len(entries) > wcap:
            raise SimError("native engine internal error (write-back overflow)")
        for j, (due, _seq, regs, idx, value) in enumerate(entries):
            pd[j] = due
            pv[j] = value
            fum[j] = base_of[id(regs)] + idx
        ctl[CTL_WB_LEN] = len(entries)
        heap.clear()
        ctl[CTL_CYCLE] = cycle
        ctl[CTL_PC] = pc
        ctl[CTL_RC] = rc
        ctl[CTL_RT] = rt
        ctl[CTL_RA] = sim.ra

    def pull_state():
        for regs, base, size in rf_lists:
            regs[:] = rf_arr[base : base + size]
        # the queue is already in pop order, so fresh increasing sequence
        # numbers reproduce the reference heap exactly
        for j in range(ctl[CTL_WB_LEN]):
            regs, idx = slot_of[fum[j]]
            sim._seq += 1
            _heappush(heap, (pd[j], sim._seq, regs, idx, pv[j]))
        sim.ra = ctl[CTL_RA]
        return ctl[CTL_CYCLE], ctl[CTL_PC], ctl[CTL_RC], ctl[CTL_RT]

    fallback: dict[int, tuple] = {}

    def bind_bundle(pc):
        bound = tuple(_bind_vliw_op(op, sim, rfs, jl1) for op in decoded[pc])
        fallback[pc] = bound
        return bound

    pc = 0
    cycle = 0
    rc = -1
    rt = 0
    while True:
        if rc < 0 and 0 <= pc < n_instrs:
            blk_len = entry_len.get(pc)
            if blk_len is not None and cycle + blk_len <= max_cycles + 1:
                push_state(cycle, pc, rc, rt)
                obs.count("sim.native.calls")
                status = ffi.call(rf_arr, fu32, pd, pv, fum, mem, ctl, execs)
                cycle, pc, rc, rt = pull_state()
                if status == ST_HALT:
                    break
                if status == ST_BUDGET:
                    raise SimError("cycle budget exceeded (runaway program?)")
                if status < 0:
                    _raise_native_error(status, ctl[CTL_ERR_A], ctl[CTL_ERR_B], ())
                continue
        # precise single-cycle fallback (the turbo driver's, verbatim)
        while heap and heap[0][0] < cycle:
            _, _, regs, idx, value = _heappop(heap)
            regs[idx] = value
        if cycle == rc:
            pc = rt
            rc = -1
        if pc < 0 or pc >= n_instrs:
            raise SimError(f"PC out of range: {pc}")
        bound = fallback.get(pc)
        if bound is None:
            bound = bind_bundle(pc)
        hits[pc] += 1
        halted = False
        for op_fn in bound:
            effect = op_fn(cycle, pc)
            if effect is not None:
                if effect is True:
                    halted = True
                elif rc >= 0:
                    raise SimError("overlapping control transfers")
                else:
                    rc, rt = effect
        if halted:
            while heap:
                _, _, regs, idx, value = _heappop(heap)
                regs[idx] = value
            break
        cycle += 1
        pc += 1
        if cycle > max_cycles:
            raise SimError("cycle budget exceeded (runaway program?)")

    rv = return_value_reg(machine)
    result = VLIWResult(rfs[rv.rf][rv.idx], cycle + 1, cycle + 1)
    block_counters = [
        (start, length, [execs[i]])
        for i, (start, length) in enumerate(nat.entries)
    ]
    _expand_hits(hits, block_counters)
    result.ops = sum(count * ops for count, ops in zip(hits, op_counts))
    sim._sync_regs_from_fast(rfs)
    sim._last_hits = hits
    sim._last_blocks = [(s, n, ctr[0]) for s, n, ctr in block_counters]
    sim._last_engine = "native"
    return result
