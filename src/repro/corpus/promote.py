"""Promotion campaigns: fuzz-generate, score, select, pin, persist.

A promotion run is deterministic end-to-end for a fixed seed: the
generator, the oracle, the trait profiler, the diverse-subset selector
and the golden pinning are all seeded/exact, and nothing time- or
hash-order-dependent reaches the persisted files, so two runs with the
same seed produce byte-identical corpora on any host.

Each promoted kernel ``stress-<seed>-<index>`` is written as three
files under the promoted-corpus directory::

    <name>.mc            # the generated MiniC source, verbatim
    <name>.json          # provenance + traits (seed, index, axis, ...)
    <name>.golden.json   # pinned per-(machine, engine) stats

Candidates whose oracle run fails (generator pathology, step-budget
exhaustion) are skipped and counted; candidates that expose an actual
engine divergence make the campaign fail — promotion is not the place
to paper over a conformance bug (that is ``repro fuzz``'s job to
minimize and vault).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.corpus.goldens import GoldenError, save_golden
from repro.corpus.replay import golden_path_for, pin_entry
from repro.corpus.score import KernelTraits, SCORE_MACHINE, interestingness, measure_traits, select_diverse
from repro.fuzz.diff import FUZZ_MAX_CYCLES
from repro.fuzz.gen import GENERATOR_VERSION, generate_kernels
from repro.fuzz.oracle import GeneratorError, reference_run
from repro.sim.modes import MODES

#: metadata schema for <name>.json provenance sidecars
PROMOTED_META_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class PromoteConfig:
    seed: int
    count: int = 40  # candidates to generate and score
    target: int = 12  # corpus size to select
    machines: tuple[str, ...] = ()  # empty = every preset
    modes: tuple[str, ...] = MODES
    score_machine: str = SCORE_MACHINE
    max_cycles: int = FUZZ_MAX_CYCLES
    jobs: int = 1
    out_dir: Path | str | None = None  # None = default promoted dir


@dataclasses.dataclass
class PromoteReport:
    seed: int
    generated: int = 0
    oracle_rejected: int = 0
    selected: list[dict] = dataclasses.field(default_factory=list)
    out_dir: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def promote(config: PromoteConfig, log=None) -> PromoteReport:
    """Run one promotion campaign; returns the report, writes the corpus."""
    from repro.kernels import promoted_dir
    from repro.machine.presets import preset_names

    def say(msg: str) -> None:
        if log:
            log(msg)

    machines = config.machines or preset_names()
    out_dir = Path(config.out_dir) if config.out_dir is not None else promoted_dir()

    say(f"generating {config.count} candidates (seed {config.seed})")
    kernels = generate_kernels(config.seed, config.count)
    report = PromoteReport(seed=config.seed, generated=len(kernels), out_dir=str(out_dir))

    # oracle + trait measurement; candidates the oracle rejects are
    # skipped (they never become workloads), engine bugs abort below.
    verdicts: dict[str, int] = {}
    traits: list[KernelTraits] = []
    sources: dict[str, str] = {}
    origin: dict[str, tuple[int, int]] = {}
    for kernel in kernels:
        try:
            exit_code = reference_run(kernel.source)
        except GeneratorError:
            report.oracle_rejected += 1
            continue
        measured = measure_traits(
            kernel.name,
            kernel.source,
            machine=config.score_machine,
            max_cycles=config.max_cycles,
        )
        verdicts[kernel.name] = exit_code
        sources[kernel.name] = kernel.source
        origin[kernel.name] = (kernel.seed, kernel.index)
        traits.append(measured)
    say(
        f"scored {len(traits)} candidates on {config.score_machine} "
        f"({report.oracle_rejected} oracle-rejected)"
    )

    chosen = select_diverse(traits, config.target)
    say(f"selected {len(chosen)} kernels across {len(set(a for _, a in chosen))} axes")

    out_dir.mkdir(parents=True, exist_ok=True)
    for t, axis in chosen:
        seed, index = origin[t.name]
        name = f"stress-{seed}-{index:03d}"
        source = sources[t.name]
        say(f"pinning {name} ({axis}) on {len(machines)} machines")
        payload = pin_entry(
            name,
            source,
            machines,
            modes=config.modes,
            max_cycles=config.max_cycles,
            expected_exit=verdicts[t.name],
            jobs=config.jobs,
        )
        mc_path = out_dir / f"{name}.mc"
        mc_path.write_text(source)
        meta = {
            "schema": PROMOTED_META_SCHEMA,
            "generator": GENERATOR_VERSION,
            "seed": seed,
            "index": index,
            "axis": axis,
            "score": interestingness(t),
            "score_machine": config.score_machine,
            "traits": t.to_dict(),
        }
        (out_dir / f"{name}.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n"
        )
        save_golden(golden_path_for(mc_path), payload)
        report.selected.append({"name": name, "axis": axis, **meta["traits"]})

    say(f"promoted {len(report.selected)} kernels into {out_dir}")
    return report


def corpus_stats(
    promoted: Path | str | None = None,
) -> dict:
    """Summary of the promoted corpus: entries, traits, pinned coverage."""
    from repro.corpus.goldens import load_golden
    from repro.kernels import promoted_dir

    out_dir = Path(promoted) if promoted is not None else promoted_dir()
    entries = []
    machines: set[str] = set()
    if out_dir.is_dir():
        for mc_path in sorted(out_dir.glob("*.mc")):
            meta: dict = {}
            sidecar = mc_path.with_suffix(".json")
            if sidecar.exists():
                try:
                    loaded = json.loads(sidecar.read_text())
                    if isinstance(loaded, dict):
                        meta = loaded
                except ValueError:
                    pass
            entry = {"name": mc_path.stem}
            for key in ("axis", "seed", "index", "score"):
                if key in meta:
                    entry[key] = meta[key]
            entry.update(meta.get("traits", {}))
            golden_path = golden_path_for(mc_path)
            try:
                golden = load_golden(golden_path)
                entry["machines_pinned"] = len(golden["machines"])
                machines.update(golden["machines"])
            except GoldenError as exc:
                entry["golden_error"] = str(exc)
            entries.append(entry)
    return {
        "dir": str(out_dir),
        "entries": entries,
        "count": len(entries),
        "machines": sorted(machines),
    }
