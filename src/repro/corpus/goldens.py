"""Golden-stats files: checksummed pinned expectations per kernel.

A golden file (``<name>.golden.json``) freezes everything the
execution engines are allowed to produce for one kernel::

    {
      "schema": 1,
      "name": "stress-2024-003",
      "source_sha256": "...",          # the exact .mc text this pins
      "expected_exit": 77,             # oracle verdict at pin time
      "modes": ["checked", ...],       # engines replay must run
      "max_cycles": 5000000,
      "machines": {                    # per-preset pinned run records
        "m-tta-2": {"checked": {"exit_code": ..., "cycles": ...,
                                "moves": ..., ...}, "fast": {...}, ...},
        "mblaze-3": {"scalar": {...}},
        ...
      },
      "checksum": "..."                # sha256 over everything above
    }

The payload is serialized with sorted keys and no timestamps, so the
same pin run produces byte-identical files on any host and under any
``PYTHONHASHSEED``.  The checksum makes hand-edits and bit rot loud:
:func:`load_golden` raises :class:`GoldenError` on malformed JSON, an
unknown schema, a checksum mismatch, or missing fields, and replay
treats that as a failure, never as "nothing to check".  So is a golden
whose ``modes`` names an engine outside :data:`repro.sim.modes.MODES`
(one pinned before that engine was removed).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.sim.modes import MODES

#: bump when the payload layout changes; old goldens must be re-pinned
GOLDEN_SCHEMA = 1

#: filename suffix for golden files (``<name>`` + this)
GOLDEN_SUFFIX = ".golden.json"


class GoldenError(Exception):
    """A golden file is missing, malformed, or fails its checksum."""


def source_sha256(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k != "checksum"}
    return hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()


def make_golden(
    name: str,
    source: str,
    expected_exit: int,
    machines: dict[str, dict],
    modes: tuple[str, ...],
    max_cycles: int,
) -> dict:
    """Build a checksummed golden payload from pinned run records.

    *machines* maps preset name -> (mode -> full result record) exactly
    as :class:`repro.fuzz.diff.FuzzCaseReport` records them.
    """
    payload = {
        "schema": GOLDEN_SCHEMA,
        "name": name,
        "source_sha256": source_sha256(source),
        "expected_exit": int(expected_exit),
        "modes": list(modes),
        "max_cycles": int(max_cycles),
        "machines": {m: dict(runs) for m, runs in sorted(machines.items())},
    }
    payload["checksum"] = _checksum(payload)
    return payload


def golden_path_for(mc_path: Path | str) -> Path:
    """``<dir>/<name>.golden.json`` for ``<dir>/<name>.mc``."""
    mc_path = Path(mc_path)
    return mc_path.with_name(mc_path.stem + GOLDEN_SUFFIX)


def save_golden(path: Path | str, payload: dict) -> Path:
    """Write *payload* (must carry a valid checksum) deterministically."""
    if payload.get("checksum") != _checksum(payload):
        raise GoldenError(f"refusing to save golden with bad checksum: {path}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_golden(path: Path | str) -> dict:
    """Read and fully validate a golden file.

    Raises :class:`GoldenError` with a readable reason on any problem;
    never returns a partially-trusted payload.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise GoldenError(f"golden file unreadable: {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise GoldenError(f"golden file is not valid JSON: {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise GoldenError(f"golden file is not a JSON object: {path}")
    if payload.get("schema") != GOLDEN_SCHEMA:
        raise GoldenError(
            f"golden file {path} has schema {payload.get('schema')!r}, "
            f"expected {GOLDEN_SCHEMA}; re-pin with `repro corpus pin`"
        )
    for key in ("name", "source_sha256", "expected_exit", "modes", "max_cycles", "machines"):
        if key not in payload:
            raise GoldenError(f"golden file {path} is missing {key!r}")
    if payload.get("checksum") != _checksum(payload):
        raise GoldenError(
            f"golden file {path} fails its checksum (hand-edited or "
            f"corrupted); re-pin with `repro corpus pin`"
        )
    if not isinstance(payload["machines"], dict) or not payload["machines"]:
        raise GoldenError(f"golden file {path} pins no machines")
    unknown = [mode for mode in payload["modes"] if mode not in MODES]
    if unknown:
        raise GoldenError(
            f"golden file {path} pins unknown mode(s) "
            f"{', '.join(map(repr, unknown))} (known: {', '.join(MODES)}); "
            f"re-pin with `repro corpus pin`"
        )
    return payload


def diff_runs(name: str, machine: str, golden_runs: dict, observed_runs: dict) -> list[str]:
    """Readable drift lines between pinned and observed run records.

    Compares mode sets, then every field of every mode's record.  An
    empty list means byte-for-byte agreement.
    """
    lines: list[str] = []
    gmodes = set(golden_runs)
    omodes = set(observed_runs)
    for mode in sorted(gmodes - omodes):
        lines.append(f"{name} on {machine}: mode {mode!r} pinned but not replayed")
    for mode in sorted(omodes - gmodes):
        lines.append(f"{name} on {machine}: mode {mode!r} replayed but not pinned")
    for mode in sorted(gmodes & omodes):
        want, got = golden_runs[mode], observed_runs[mode]
        fields = sorted(set(want) | set(got))
        for field in fields:
            if want.get(field) != got.get(field):
                lines.append(
                    f"{name} on {machine}/{mode}: {field}: "
                    f"golden={want.get(field)!r} observed={got.get(field)!r}"
                )
    return lines
