"""Regression corpus: minimized reproducers persisted for pytest replay.

Every divergence a fuzz campaign finds is shrunk and written as a pair
of files under the corpus directory (default ``fuzz/corpus/`` at the
repository root, overridable via ``$REPRO_FUZZ_CORPUS``)::

    <entry>.mc      # the minimized MiniC reproducer
    <entry>.json    # metadata: seed, index, machine, mode, kind,
                    # expected/observed exit codes, generator version

``tests/test_fuzz_regressions.py`` replays every entry on every commit:
each reproducer must now agree with the oracle on its recorded machine
across all engines, so a fixed bug stays fixed forever.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

#: environment override for the corpus directory
CORPUS_DIR_ENV = "REPRO_FUZZ_CORPUS"

_NAME_RE = re.compile(r"[^A-Za-z0-9._-]+")


def default_corpus_dir() -> Path:
    """``$REPRO_FUZZ_CORPUS`` or ``<repo>/fuzz/corpus``."""
    env = os.environ.get(CORPUS_DIR_ENV)
    if env:
        return Path(env).expanduser()
    # src/repro/fuzz/corpus.py -> repository root is three levels up
    # from the package directory (src/repro/fuzz).
    return Path(__file__).resolve().parents[3] / "fuzz" / "corpus"


@dataclass(frozen=True)
class CorpusEntry:
    """One persisted reproducer."""

    name: str
    source: str
    meta: dict = field(default_factory=dict)
    path: Path | None = None

    @property
    def machine(self) -> str | None:
        return self.meta.get("machine")

    @property
    def mode(self) -> str | None:
        return self.meta.get("mode")


def _safe_name(name: str) -> str:
    cleaned = _NAME_RE.sub("-", name).strip("-")
    if not cleaned:
        raise ValueError(f"unusable corpus entry name {name!r}")
    return cleaned


def save_reproducer(
    directory: Path | str,
    name: str,
    source: str,
    meta: dict,
) -> Path:
    """Write ``<name>.mc`` + ``<name>.json`` under *directory*.

    Returns the ``.mc`` path.  Existing entries with the same name are
    overwritten (re-finding a known bug refreshes its reproducer).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = _safe_name(name)
    mc_path = directory / f"{name}.mc"
    mc_path.write_text(source)
    (directory / f"{name}.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )
    return mc_path


def load_entry(mc_path: Path) -> CorpusEntry:
    """The reproducer at *mc_path* with its ``.json`` sidecar metadata.

    A missing or unparseable sidecar gives empty metadata -- a
    reproducer must never be silently skipped because its metadata
    rotted.
    """
    meta: dict = {}
    sidecar = mc_path.with_suffix(".json")
    if sidecar.exists():
        try:
            loaded = json.loads(sidecar.read_text())
            if isinstance(loaded, dict):
                meta = loaded
        except ValueError:
            pass
    return CorpusEntry(name=mc_path.stem, source=mc_path.read_text(), meta=meta,
                       path=mc_path)


def load_corpus(directory: Path | str | None = None) -> list[CorpusEntry]:
    """Every reproducer under *directory* (see :func:`load_entry`),
    sorted by name."""
    directory = Path(directory) if directory is not None else default_corpus_dir()
    if not directory.is_dir():
        return []
    return [load_entry(mc_path) for mc_path in sorted(directory.glob("*.mc"))]
