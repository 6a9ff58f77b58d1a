"""Stable content fingerprints for sweep artifacts.

A cache entry's key must change exactly when its result could change:

* the **machine description** — every architectural field of the design
  point (function units and their opsets, register files, bus
  connectivity, immediate widths, scalar timing), canonically serialised
  with all sets sorted so iteration order never leaks into the key;
* the **kernel source text** — the exact MiniC text that will be
  compiled (not a file path or mtime);
* the **toolchain** — the package version *plus* a digest over every
  ``repro`` source file, so editing the scheduler or the simulator
  invalidates results computed by the old code;
* the **flags** — the key class of the simulation mode (below),
  optimisation level and the **sim-engine version token**
  (:data:`repro.sim.blockcompile.SIM_ENGINE_VERSION`).  The toolchain
  digest only sees *this* checkout's sources; the explicit version
  token also retires entries produced by engines whose semantics
  changed without a local source edit (installed-package runs, store
  sharing across checkouts), so a cached artifact can never mask a
  codegen semantics change.

The engine that computes a result is not part of its key: ``fast``,
``turbo`` and ``native`` are byte-identical by contract (the pinned
corpus goldens and the cross-engine suites enforce it), so they share
the key class ``"result"`` and a result one of them computed serves the
others.  ``checked`` keeps its own class, because its point is to
re-verify every cycle; so does every *mode* string that names no engine
(``"program"`` for compiled programs, the fuzz verdict flags).

Keys are hex SHA-256 digests, deterministic across processes, machines
and Python versions (``PYTHONHASHSEED`` never enters the picture).
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

from repro.machine.machine import Machine
from repro.machine.serialize import machine_from_json, machine_to_dict
from repro.sim.modes import DEFAULT_MODE

#: canonical machine description used inside fingerprints -- one layout
#: shared with the serialisation layer so a task's ``machine_desc`` and
#: its cache key can never disagree about what a field means
describe_machine = machine_to_dict


#: the engines that share the result key class (see the module docstring)
_SHARED_RESULT_MODES = ("fast", "turbo", "native")


def _canonical_json(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@lru_cache(maxsize=1)
def toolchain_fingerprint() -> str:
    """Digest of the toolchain: package version + all ``repro`` sources.

    Hashing the source tree (path-relative names and contents, sorted)
    means any code change — a scheduler tweak, a simulator fix, a new
    analytic-model coefficient — retires every cached artifact the old
    code produced.  Cheap: computed once per process over ~100 files.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    digest.update(f"repro=={repro.__version__}\n".encode())
    # .mc kernel sources are deliberately excluded: each task hashes the
    # exact source text it compiles, so editing one kernel invalidates
    # only that kernel's entries, not the whole store.
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        digest.update(f"{rel}\n".encode())
        digest.update(path.read_bytes())
        digest.update(b"\n")
    return digest.hexdigest()


def fingerprint(
    machine: Machine,
    source: str,
    *,
    mode: str = DEFAULT_MODE,
    optimize: bool = True,
    toolchain: str | None = None,
    engine_version: int | None = None,
) -> str:
    """Hex SHA-256 key for one (machine, kernel-source, flags) artifact.

    *mode* enters only as its key class, so ``fast``, ``turbo`` and
    ``native`` get one key (see the module docstring).
    *toolchain* defaults to :func:`toolchain_fingerprint`;
    *engine_version* defaults to
    :data:`repro.sim.blockcompile.SIM_ENGINE_VERSION`.  Tests inject
    synthetic values for both to exercise invalidation without editing
    sources.
    """
    if engine_version is None:
        from repro.sim.blockcompile import SIM_ENGINE_VERSION

        engine_version = SIM_ENGINE_VERSION
    key_class = "result" if mode in _SHARED_RESULT_MODES else mode
    if toolchain is None:
        toolchain = toolchain_fingerprint()
    memo = (
        machine,
        hashlib.sha256(source.encode("utf-8", "surrogatepass")).digest(),
        key_class, bool(optimize), toolchain, int(engine_version),
    )
    key = _KEYS.get(memo)
    if key is None:
        payload = {
            "machine": describe_machine(machine),
            "source": source,
            "toolchain": toolchain,
            "flags": {
                "key": key_class,
                "optimize": bool(optimize),
                "engine": int(engine_version),
            },
        }
        key = hashlib.sha256(_canonical_json(payload)).hexdigest()
        if len(_KEYS) >= _KEYS_MAX:
            _KEYS.clear()
        _KEYS[memo] = key
    return key


#: finished :func:`fingerprint` keys by (machine, source digest, flags):
#: a served store hit re-keys the same preset and kernel again and
#: again, and serialising the machine is most of a key's cost.  Keyed
#: by the machine *value* (machines are frozen); nothing is stored on
#: the object, whose ``__dict__`` is pickled with every compiled
#: program.  Emptied when full.
_KEYS: dict[tuple, str] = {}
_KEYS_MAX = 1024


def job_fingerprint(
    kind: str,
    fields: dict,
    *,
    toolchain: str | None = None,
    engine_version: int | None = None,
) -> str:
    """Hex SHA-256 key for a *service job* that is not a bare (machine,
    kernel-source, flags) measurement — e.g. a traced ``/v1/run`` or
    one with its own cycle budget, or a sweep request identified for
    in-flight coalescing.

    *fields* must be a canonical, JSON-serialisable description of
    everything that can change the job's outcome (typically including a
    :func:`fingerprint` of the underlying measurement).  The key obeys
    the same toolchain-digest + engine-version contract as task
    fingerprints, so a code or engine-semantics change retires every
    served artifact the old code produced.
    """
    if engine_version is None:
        from repro.sim.blockcompile import SIM_ENGINE_VERSION

        engine_version = SIM_ENGINE_VERSION
    payload = {
        "job": kind,
        "fields": fields,
        "toolchain": toolchain if toolchain is not None else toolchain_fingerprint(),
        "engine": int(engine_version),
    }
    return hashlib.sha256(_canonical_json(payload)).hexdigest()


def module_fingerprint(
    source: str,
    name: str,
    optimize: bool = True,
    *,
    toolchain: str | None = None,
    engine_version: int | None = None,
) -> str:
    """Hex SHA-256 key for the optimised IR module of *source*.

    The front half does not depend on the machine, so the key holds only
    the source text, the module *name* and *optimize*, under the
    :func:`job_fingerprint` toolchain-digest + engine-version contract.
    """
    return job_fingerprint(
        "module",
        {"source": source, "name": name, "optimize": bool(optimize)},
        toolchain=toolchain,
        engine_version=engine_version,
    )


def resolve_task_machine(task) -> Machine:
    """The :class:`Machine` a task targets.

    Tasks carrying a ``machine_desc`` (canonical machine JSON) describe
    *generated* design points -- exploration mutants, ad-hoc machines --
    and are materialised from that description; tasks without one name a
    built-in preset.  This is the single lookup the executor and the
    fingerprint layer share, so a generated machine is measured and
    cache-keyed structurally instead of KeyErroring on its name.
    """
    desc = getattr(task, "machine_desc", None)
    if desc:
        return machine_from_json(desc)
    from repro.machine import build_machine

    return build_machine(task.machine)


def task_fingerprint(
    task, *, toolchain: str | None = None, engine_version: int | None = None
) -> str:
    """Fingerprint for a :class:`~repro.pipeline.types.SweepTask`."""
    return fingerprint(
        resolve_task_machine(task),
        task.source,
        mode=task.mode,
        optimize=task.optimize,
        toolchain=toolchain,
        engine_version=engine_version,
    )
