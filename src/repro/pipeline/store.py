"""Content-addressed on-disk artifact store.

Layout (under the store root, default ``~/.cache/repro/artifacts`` or
``$REPRO_CACHE_DIR``)::

    results/<k0k1>/<key>.json    # EvalResult entries (JSON payload)
    programs/<k0k1>/<key>.pkl    # CompiledProgram entries (pickle payload)
    modules/<k0k1>/<key>.pkl     # optimised IR modules (pickle payload)
    json/<k0k1>/<key>.json       # generic JSON entries (fuzz verdicts, ...)
    blobs/<k0k1>/<key>.bin       # opaque binary entries (native-engine .so)

where ``<key>`` is the hex SHA-256 content fingerprint from
:mod:`repro.pipeline.fingerprint` and ``<k0k1>`` its first two hex
digits (fan-out so no directory grows unbounded).

Every entry file is self-verifying: a one-line header carrying the
SHA-256 of the payload bytes, then the payload.  Loads re-hash the
payload; any mismatch, truncation, unparseable header or undecodable
payload classifies the entry as **corrupt**, deletes it, and returns a
miss so the caller transparently rebuilds it.  Writes go through a
temporary file in the same directory followed by :func:`os.replace`, so
concurrent writers (the multiprocessing pool, parallel CI jobs on a
shared cache volume) can never expose a half-written entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.pipeline.types import EvalResult

_HEADER_PREFIX = b"repro-artifact sha256="
#: a well-formed entry key: lower-case hex, at least 8 digits
_KEY_RE = re.compile("[0-9a-f]{8,}")
_KIND_RESULTS = "results"
_KIND_PROGRAMS = "programs"
_KIND_MODULES = "modules"
_KIND_JSON = "json"
_KIND_BLOBS = "blobs"
_ALL_KINDS = (_KIND_RESULTS, _KIND_PROGRAMS, _KIND_MODULES, _KIND_JSON, _KIND_BLOBS)

#: environment override for the store root
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: set to any non-empty value to disable the default store entirely
NO_CACHE_ENV = "REPRO_NO_CACHE"

#: age after which an orphaned ``.tmp`` file (writer killed between
#: ``mkstemp`` and ``os.replace``) is garbage-collected on store init;
#: generous enough that no live writer can still own it
TMP_GC_AGE_S = 3600.0


def default_cache_dir() -> Path:
    """Store root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/artifacts``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "artifacts"


@dataclass
class StoreStats:
    """Counters for one store's lifetime in this process."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt_dropped: int = 0
    stale_tmp_removed: int = 0
    #: binary-blob entries written (native-engine shared objects)
    blob_writes: int = 0


class ArtifactStore:
    """Content-addressed cache of compiled programs and eval results."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = StoreStats()
        self._gc_stale_tmp()

    # A handle pickled into another process (a service job child) keeps
    # its root and starts its own counters.  Unpickling skips
    # ``__init__``, so the receiver does not re-run the stale-tmp GC its
    # sender already ran over the whole store.
    def __getstate__(self) -> dict:
        return {"root": self.root}

    def __setstate__(self, state: dict) -> None:
        self.root = state["root"]
        self.stats = StoreStats()

    # ---- paths ----------------------------------------------------------

    def _entry_path(self, kind: str, key: str, suffix: str) -> Path:
        if not _KEY_RE.fullmatch(key):
            raise ValueError(f"malformed artifact key {key!r}")
        return self.root / kind / key[:2] / f"{key}{suffix}"

    def result_path(self, key: str) -> Path:
        return self._entry_path(_KIND_RESULTS, key, ".json")

    def program_path(self, key: str) -> Path:
        return self._entry_path(_KIND_PROGRAMS, key, ".pkl")

    def module_path(self, key: str) -> Path:
        return self._entry_path(_KIND_MODULES, key, ".pkl")

    def json_path(self, key: str) -> Path:
        return self._entry_path(_KIND_JSON, key, ".json")

    def blob_path(self, key: str) -> Path:
        return self._entry_path(_KIND_BLOBS, key, ".bin")

    # ---- raw entry I/O --------------------------------------------------

    def _write_entry(self, path: Path, payload: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        header = _HEADER_PREFIX + hashlib.sha256(payload).hexdigest().encode() + b"\n"
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header)
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1

    def _read_entry(self, path: Path) -> bytes | None:
        """Payload bytes, or ``None`` on miss/corruption (corrupt entries
        are deleted so the caller's rebuild repairs the store)."""
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        newline = blob.find(b"\n")
        header, payload = blob[: newline + 1], blob[newline + 1 :]
        if (
            newline < 0
            or not header.startswith(_HEADER_PREFIX)
            or hashlib.sha256(payload).hexdigest().encode()
            != header[len(_HEADER_PREFIX) : -1]
        ):
            self._drop_corrupt(path)
            return None
        self.stats.hits += 1
        return payload

    def _drop_corrupt(self, path: Path) -> None:
        self.stats.corrupt_dropped += 1
        self.stats.misses += 1
        try:
            path.unlink()
        except OSError:
            pass

    # ---- EvalResult entries ---------------------------------------------

    def store_result(self, key: str, result: EvalResult) -> Path:
        path = self.result_path(key)
        payload = json.dumps(result.to_dict(), sort_keys=True, indent=0).encode()
        self._write_entry(path, payload)
        return path

    def load_result(self, key: str) -> EvalResult | None:
        path = self.result_path(key)
        payload = self._read_entry(path)
        if payload is None:
            return None
        try:
            return EvalResult.from_dict(json.loads(payload))
        except (ValueError, KeyError, TypeError):
            # checksum passed but the payload is semantically unusable
            # (schema bump, hand-edited entry): rebuild it.
            self.stats.hits -= 1
            self._drop_corrupt(path)
            return None

    # ---- generic JSON entries -------------------------------------------

    def store_json(self, key: str, payload: dict) -> Path:
        """Store an arbitrary JSON-serialisable dict (same atomicity and
        self-verification guarantees as the typed entry kinds).  Used by
        the fuzzing subsystem to memoise passing differential verdicts."""
        path = self.json_path(key)
        blob = json.dumps(payload, sort_keys=True, indent=0).encode()
        self._write_entry(path, blob)
        return path

    def load_json(self, key: str) -> dict | None:
        path = self.json_path(key)
        blob = self._read_entry(path)
        if blob is None:
            return None
        try:
            payload = json.loads(blob)
        except ValueError:
            self.stats.hits -= 1
            self._drop_corrupt(path)
            return None
        if not isinstance(payload, dict):
            self.stats.hits -= 1
            self._drop_corrupt(path)
            return None
        return payload

    # ---- opaque binary entries ------------------------------------------

    def store_blob(self, key: str, payload: bytes) -> Path:
        """Store opaque binary data (same atomicity and self-verification
        guarantees as the typed entry kinds).  Used by the native engine
        to memoise its compiled shared object, keyed by the engine source,
        compiler and flags."""
        path = self.blob_path(key)
        self._write_entry(path, bytes(payload))
        self.stats.blob_writes += 1
        return path

    def load_blob(self, key: str) -> bytes | None:
        """Payload bytes, or ``None`` on miss/corruption (corrupt entries
        are deleted so the caller transparently rebuilds them)."""
        return self._read_entry(self.blob_path(key))

    # ---- pickled entries: CompiledPrograms and optimised IR modules -----

    def _store_pickle(self, path: Path, obj) -> Path:
        self._write_entry(path, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        return path

    def _load_pickle(self, path: Path):
        payload = self._read_entry(path)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            self.stats.hits -= 1
            self._drop_corrupt(path)
            return None

    def store_program(self, key: str, compiled) -> Path:
        return self._store_pickle(self.program_path(key), compiled)

    def load_program(self, key: str):
        return self._load_pickle(self.program_path(key))

    def store_module(self, key: str, module) -> Path:
        """Store an optimised IR module, keyed by
        :func:`~repro.pipeline.fingerprint.module_fingerprint`."""
        return self._store_pickle(self.module_path(key), module)

    def load_module(self, key: str):
        return self._load_pickle(self.module_path(key))

    # ---- maintenance ----------------------------------------------------

    def _gc_stale_tmp(self, age_s: float = TMP_GC_AGE_S) -> int:
        """Remove orphaned write-temporaries older than *age_s* seconds.

        A writer killed between ``mkstemp`` and ``os.replace`` leaks its
        ``.tmp`` file; nothing ever reads or replaces it again, so any
        temp file past the age threshold is garbage.  Fresh temp files
        (a concurrent writer mid-flight) are left alone.
        """
        cutoff = time.time() - age_s
        removed = 0
        for kind in _ALL_KINDS:
            base = self.root / kind
            if not base.exists():
                continue
            for path in base.rglob("*.tmp"):
                try:
                    if path.is_file() and path.stat().st_mtime < cutoff:
                        path.unlink()
                        removed += 1
                except OSError:
                    continue  # concurrent GC/writer won the race; fine
        self.stats.stale_tmp_removed += removed
        return removed

    def clear(self) -> int:
        """Delete every entry; returns how many files were removed."""
        removed = 0
        for kind in _ALL_KINDS:
            base = self.root / kind
            if not base.exists():
                continue
            for path in base.rglob("*"):
                if path.is_file():
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def entry_count(self) -> dict[str, int]:
        counts = {}
        for kind in _ALL_KINDS:
            base = self.root / kind
            counts[kind] = (
                sum(1 for p in base.rglob("*") if p.is_file() and not p.name.endswith(".tmp"))
                if base.exists()
                else 0
            )
        return counts


_DEFAULT_STORE: ArtifactStore | None = None


def default_store() -> ArtifactStore | None:
    """Process-wide store at the default location, or ``None`` when the
    cache is disabled via ``$REPRO_NO_CACHE``."""
    global _DEFAULT_STORE
    if os.environ.get(NO_CACHE_ENV):
        return None
    if _DEFAULT_STORE is None or _DEFAULT_STORE.root != default_cache_dir():
        _DEFAULT_STORE = ArtifactStore()
    return _DEFAULT_STORE
