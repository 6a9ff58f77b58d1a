"""Native (C) simulation engine, ``mode="native"``, the default.

This is the top rung of the single-run engine ladder (checked → fast →
native; ``turbo`` is a name for fast).  One fixed C interpreter,
``engine.c``, runs every TTA and VLIW program: :mod:`repro.sim.cgen`
encodes a program into flat integer tables
(:func:`build_native_program`), and this module builds the engine's
shared object and runs a program on it in one call
(:func:`native_run`), which the stepping driver the fast engine uses
(:func:`~repro.sim.predecode.run_tta` /
:func:`~repro.sim.predecode.run_vliw`) makes in place of its Python
step loop.  The engine follows the fast stepper cycle for cycle, runs
the program to its halt or its first error and counts executions per
pc, which is the hit vector the statistics come from.  Dynamic errors
come back as a status, and the reference engine's ``SimError`` /
``ValueError`` is rebuilt byte-identically from the synced-back
machine state.

Compilation and caching:

* the compiler is discovered once per run via ``$REPRO_CC`` or the
  first of ``cc``/``gcc``/``clang`` on PATH; ``$REPRO_NO_NATIVE_CC``
  (any non-empty value) disables discovery — ``mode="native"`` then
  degrades to the fast engine with a one-time ``RuntimeWarning``;
* the degradation is loud: the warning names the reason, which for a
  failed build is the compiler's exit code and stderr tail (or its
  timeout), every failed compile counts ``sim.native.cc_failed``, and
  every run that fell back, for any reason, counts
  ``sim.native.degraded_runs``;
  table encoding and the C compile run in their own ``sim.native.cgen``
  and ``sim.native.cc`` spans, so a trace shows the compile apart from
  the simulation;
* the engine is built lazily, on a process's first native run, and
  once per (compiler, flags): its shared object is cached per process
  (one dlopened library, :data:`_LIB_CACHE`) and persistently in the
  artifact store's binary-blob kind, keyed by SHA-256 of
  (``SIM_ENGINE_VERSION``, compiler id, flags, engine source), so warm
  sweeps and service workers never invoke the C compiler; a program's
  tables are cached on its ``predecode_cache``;
* the shared object is called through ctypes (the standard library;
  C is entered once per run, so the binding's per-call cost does not
  matter).

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
from array import array
from heapq import heappush as _heappush

from repro import obs
from repro.sim.blockcompile import SIM_ENGINE_VERSION
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
    ST_PC_RANGE,
    build_native_program,
)
from repro.sim.errors import SimError

#: set to any non-empty value to disable C compiler discovery entirely
NO_CC_ENV = "REPRO_NO_NATIVE_CC"
#: explicit compiler executable (name or path) overriding discovery
CC_ENV = "REPRO_CC"

#: cache keys on ``Program.predecode_cache`` (None = engine unavailable)
_NATIVE_KEYS = {"tta": "tta-native", "vliw": "vliw-native"}
#: ``predecode_cache`` key of the reason the engine is unavailable
_REASON_KEY = "native-unavailable"

_ABSENT = object()

#: the process's dlopened engine bindings keyed by shared-object key, one
#: per (compiler, flags) (a str records a permanent build failure's
#: reason so it is not retried)
_LIB_CACHE: dict[str, object] = {}

#: flags of the engine build, which a process pays on its first native
#: run (nothing on a warm store).  -O0: with gcc 12 on one 2-core x86 host
#: the engine builds in 0.05 s at -O0, 0.10 s at -O1 and 0.16 s at -O2;
#: -O1 runs 1.5-2x faster warm (mips on m-tta-2: 0.9 against 1.3 ms), which
#: a process repays only after some hundred runs of that length, more
#: than ``explore`` makes.  A module constant rather than an environment
#: knob; the sanitizer tests monkeypatch it (the flags are part of the
#: shared-object key, so such builds never mix with these).
_CC_FLAGS = ("-O0", "-fPIC", "-shared", "-fno-strict-aliasing", "-w")
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
    """Artifact-store key of the shared object built from *source*: any
    change to the engine version, the compiler, its flags, or the engine
    source re-keys it."""
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
        c_path = os.path.join(tmp, "engine.c")
        so_path = os.path.join(tmp, "engine.so")
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
# the ctypes binding of the engine's entry point
# ---------------------------------------------------------------------------


class _CtypesBinding:
    def __init__(self, path: str):
        import ctypes

        self._ct = ctypes
        lib = ctypes.CDLL(path)
        fn = getattr(lib, ENTRY_SYMBOL)
        fn.restype = ctypes.c_int
        fn.argtypes = [
            ctypes.POINTER(ctypes.c_int32),
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

    def i32_view(self, data: array):
        return (self._ct.c_int32 * len(data)).from_buffer(data)

    def u32_copy(self, blob: bytes):
        return (self._ct.c_uint32 * (len(blob) // 4)).from_buffer_copy(blob)

    def mem_view(self, data: bytearray):
        return (self._ct.c_uint8 * len(data)).from_buffer(data)

    def call(self, prog, v, fu32, pd, pv, fum, mem, ctl, execs) -> int:
        return self._fn(prog, v, fu32, pd, pv, fum, mem, ctl, execs)


# ---------------------------------------------------------------------------
# engine acquisition
# ---------------------------------------------------------------------------


class NativeEngine:
    """One program's encoded tables bound to the engine's shared object."""

    __slots__ = ("nat", "binding", "prog", "values")

    def __init__(self, nat, binding):
        self.nat = nat
        self.binding = binding
        #: ``prog[]`` as the engine reads it
        self.prog = binding.i32_view(nat.prog)
        #: the initial ``v[]``: zeros and the immediate pool
        values = array("I", bytes(4 * max(1, nat.n_values)))
        for at, value in nat.consts:
            values[at] = value
        self.values = values.tobytes()


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
                binding = _CtypesBinding(so_path)
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
        binding = _CtypesBinding(so_path)
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
        binding = _LIB_CACHE[key] = _load_or_compile(cc, key, nat.source)
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
    """Record one run degraded to fast; warn on the first per process."""
    global _WARNED
    obs.count("sim.native.degraded_runs")
    if _WARNED:
        return
    _WARNED = True
    warnings.warn(
        f"mode='native' unavailable ({reason}); falling back to the "
        "fast engine",
        RuntimeWarning,
        stacklevel=5,
    )


def _unavailable_reason(program) -> str:
    return program.predecode_cache.get(_REASON_KEY, "unavailable")


# ---------------------------------------------------------------------------
# shared error reconstruction
# ---------------------------------------------------------------------------


def _raise_native_error(status: int, err_a: int, err_b: int, fus):
    """Raise the reference engine's exact error for a negative status.

    The machine state was synced back *before* this is called, so an
    error built from an FU's ``pending`` list reads it as the reference
    engine would at the failing cycle (see the cgen module docstring for
    why the full-ring commit cannot change such a text).
    """
    from repro.sim.tta_sim import fu_unavailable_error

    if status == ST_BUDGET:
        raise SimError("cycle budget exceeded (runaway program?)")
    if status == ST_PC_RANGE:
        raise SimError(f"PC out of range: {err_a}")
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
# the run
# ---------------------------------------------------------------------------


def native_run(sim, rfs):
    """Run *sim*'s program to its halt on the C engine: push the machine
    state (register files *rfs*, FU latches and pending results or the
    VLIW write-back queue, ``ra``), call the engine once and pull the
    state back.  Returns ``(halt cycle, per-pc execution counts)``;
    raises the reference engine's error when the run ends in one.
    Returns ``None`` after recording a degraded run when there is no
    engine, and the caller steps the program on the fast engine."""
    engine = _get_engine(sim.program)
    if engine is None:
        _warn_no_native(_unavailable_reason(sim.program))
        return None
    nat = engine.nat
    ffi = engine.binding
    v = ffi.u32_copy(engine.values)
    ctl = ffi.alloc_i64(CTL_WORDS)
    execs = ffi.alloc_i64(nat.n_instrs)
    mem = ffi.mem_view(sim.memory.data)
    ctl[CTL_MAX_CYCLES] = sim.max_cycles
    ctl[CTL_MEM_SIZE] = len(sim.memory.data)
    rf_lists = [(rfs[name], base, size) for name, base, size in nat.rf_layout]
    queues = _tta_queues if nat.style == "tta" else _vliw_queues
    fus, buffers, push_queues, pull_queues = queues(nat, ffi, sim, rfs, ctl)
    for regs, base, size in rf_lists:
        v[base : base + size] = regs
    push_queues()
    ctl[CTL_CYCLE] = 0
    ctl[CTL_PC] = 0
    ctl[CTL_RC] = -1
    ctl[CTL_RT] = 0
    ctl[CTL_RA] = sim.ra
    obs.count("sim.native.calls")
    status = ffi.call(engine.prog, v, *buffers, mem, ctl, execs)
    for regs, base, size in rf_lists:
        regs[:] = v[base : base + size]
    pull_queues()
    sim.ra = ctl[CTL_RA]
    if status != ST_HALT:
        _raise_native_error(status, ctl[CTL_ERR_A], ctl[CTL_ERR_B], fus)
    return ctl[CTL_CYCLE], list(execs)


def degraded(program) -> bool:
    """Whether a native run of *program* fell back to the fast engine
    (no compiler, a failed build, or a program the encoder refused)."""
    return _REASON_KEY in program.predecode_cache


def _tta_queues(nat, ffi, sim, rfs, ctl):
    """FU latches and in-flight results: ``(fus, (fu32, pd, pv, fum),
    push, pull)`` for the TTA side of the shared ABI."""
    n_fus = len(nat.fu_names)
    pcap = nat.pcap
    pmsk = pcap - 1
    fu32 = ffi.alloc_u32(2 * n_fus)
    pd = ffi.alloc_i64(n_fus * pcap)
    pv = ffi.alloc_u32(n_fus * pcap)
    fum = ffi.alloc_i32(3 * n_fus)
    fus = [sim.fus[name] for name in nat.fu_names]

    def push():
        for i, fu in enumerate(fus):
            if len(fu.pending) > pcap:
                raise SimError("native engine internal error (pending ring overflow)")
            fu32[2 * i] = fu.o1
            fu32[2 * i + 1] = fu.result
            fum[3 * i] = len(fu.pending)
            fum[3 * i + 1] = 0
            fum[3 * i + 2] = 1 if fu.has_result else 0
            base = i * pcap
            for j, (due, value) in enumerate(fu.pending):
                pd[base + j] = due
                pv[base + j] = value

    def pull():
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

    return fus, (fu32, pd, pv, fum), push, pull


def _vliw_queues(nat, ffi, sim, rfs, ctl):
    """The delayed-write-back queue: ``((), (fu32, pd, pv, fum), push,
    pull)`` for the VLIW side of the shared ABI."""
    wcap = nat.wcap
    fu32 = ffi.alloc_u32(2)  # unused by the VLIW engine, the ABI is shared
    pd = ffi.alloc_i64(wcap)
    pv = ffi.alloc_u32(wcap)
    fum = ffi.alloc_i32(wcap)
    heap = sim._pending_slot_writes
    base_of = {id(rfs[name]): base for name, base, _size in nat.rf_layout}
    slot_of = []
    for name, _base, size in nat.rf_layout:
        regs = rfs[name]
        slot_of.extend((regs, idx) for idx in range(size))

    def push():
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

    def pull():
        # the queue is already in pop order, so fresh increasing sequence
        # numbers reproduce the reference heap exactly
        for j in range(ctl[CTL_WB_LEN]):
            regs, idx = slot_of[fum[j]]
            _heappush(heap, (pd[j], next(sim._seq), regs, idx, pv[j]))

    return (), (fu32, pd, pv, fum), push, pull
