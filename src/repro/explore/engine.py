"""The design-space exploration campaign loop.

``run_explore`` grows a population of TTA design points outward from one
or more preset baselines: every generation it mutates the current Pareto
frontier's survivors (:mod:`repro.explore.mutate`), evaluates each new
candidate on every campaign kernel through the shared sweep pipeline
(:func:`repro.pipeline.sweep_tasks` — content-addressed store, parallel
executor, the default simulation engine), scores it with the analytic
FPGA model, and keeps the non-dominated set over (geomean cycles, core
LUTs, fmax).

Everything is deterministic in the seed: candidate structures, their
display names, evaluation results and therefore the frontier itself are
pure functions of ``(seed, base, kernels, generations, population,
toolchain)``.  Because every (machine, kernel) pair is fingerprinted
into the artifact store *as it completes*, a killed campaign re-run with
the same seed replays instantly up to where it died and continues from
there — resumability falls out of the cache, no checkpoint file needed.

Candidates the compiler cannot schedule (aggressively pruned
interconnects, starved register files) surface as per-pair task errors;
they are recorded as infeasible design points and excluded from the
frontier, never aborting the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.explore.mutate import campaign_rng, mutate_machine
from repro.explore.pareto import ParetoPoint, geomean, pareto_frontier
from repro.machine.machine import Machine, MachineStyle
from repro.machine.serialize import machine_digest, machine_to_dict
from repro.pipeline.sweep import sweep_tasks, tasks_for_machines
from repro.sim.modes import DEFAULT_MODE

#: version of the ``repro explore --json`` payload; bump on layout change
EXPLORE_JSON_SCHEMA = 1

#: how many times the spawner may try per requested candidate before
#: concluding the neighbourhood is exhausted
_SPAWN_PATIENCE = 25


class ExploreError(RuntimeError):
    """Campaign-level failure (no feasible baseline, bad configuration)."""


@dataclass(frozen=True)
class ExploreConfig:
    """Parameters of one exploration campaign."""

    base: tuple[str, ...] = ("m-tta-2",)
    kernels: tuple[str, ...] | None = None
    generations: int = 3
    population: int = 8
    seed: int = 0
    mode: str = DEFAULT_MODE
    jobs: int = 1
    optimize: bool = True

    def to_dict(self) -> dict:
        return {
            "base": list(self.base),
            "kernels": list(self.kernels) if self.kernels is not None else None,
            "generations": self.generations,
            "population": self.population,
            "seed": self.seed,
            "mode": self.mode,
            "optimize": self.optimize,
        }


@dataclass(frozen=True)
class InfeasiblePoint:
    """A generated design point the toolchain could not carry end-to-end."""

    name: str
    digest: str
    origin: str
    kernel: str
    error_type: str
    message: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "digest": self.digest,
            "origin": self.origin,
            "kernel": self.kernel,
            "error_type": self.error_type,
            "message": self.message,
        }


@dataclass
class ExploreStats:
    """Wall-clock / cache accounting (deliberately *not* part of the
    frontier JSON: two runs of the same seed must emit identical bytes,
    and cache-hit counts differ between a cold and a warm run)."""

    evaluated: int = 0
    infeasible: int = 0
    cache_hits: int = 0
    computed: int = 0
    #: computed pairs that asked for native and ran on fast
    degraded: int = 0
    elapsed_s: float = 0.0


@dataclass
class ExploreResult:
    """Everything one campaign produced."""

    config: ExploreConfig
    kernels: tuple[str, ...]
    frontier: list[ParetoPoint] = field(default_factory=list)
    #: canonical machine descriptions of the frontier members, so any
    #: frontier design can be re-materialised and re-verified
    machines: dict[str, dict] = field(default_factory=dict)
    infeasible: list[InfeasiblePoint] = field(default_factory=list)
    #: per-generation summary rows (candidate/feasible counts, frontier)
    history: list[dict] = field(default_factory=list)
    stats: ExploreStats = field(default_factory=ExploreStats)

    def to_dict(self) -> dict:
        """The frontier JSON payload — byte-identical for a given seed
        and toolchain regardless of cache state, parallelism or wall
        clock (stats stay out on purpose)."""
        return {
            "schema_version": EXPLORE_JSON_SCHEMA,
            "config": self.config.to_dict(),
            "kernels": list(self.kernels),
            "frontier": [p.to_dict() for p in self.frontier],
            "machines": {name: self.machines[name] for name in sorted(self.machines)},
            "infeasible": [p.to_dict() for p in self.infeasible],
            "history": self.history,
        }


def _resolve_bases(names: tuple[str, ...]) -> list[Machine]:
    from repro.machine import build_machine

    bases = []
    for name in names:
        machine = build_machine(name)
        if machine.style is not MachineStyle.TTA:
            raise ExploreError(
                f"explore mutates TTA machines only; base {name!r} is "
                f"{machine.style.value}"
            )
        bases.append(machine)
    return bases


def _core_luts(machine: Machine) -> int:
    from repro.fpga import synthesize

    return synthesize(machine).resources.core_luts


def _spawn(
    parents: list[Machine],
    rng,
    population: int,
    seen: set[str],
) -> list[Machine]:
    """Up to *population* structurally-new children of *parents*."""
    children: list[Machine] = []
    attempts = 0
    while len(children) < population and attempts < population * _SPAWN_PATIENCE:
        attempts += 1
        parent = parents[rng.randrange(len(parents))]
        child = mutate_machine(parent, rng)
        if child is None:
            continue
        digest = machine_digest(child)
        if digest in seen:
            continue
        seen.add(digest)
        children.append(child)
    return children


def run_explore(
    config: ExploreConfig,
    *,
    store=None,
    use_cache: bool = True,
    progress=None,
) -> ExploreResult:
    """Run one campaign; see the module docstring.

    *store*/*use_cache* follow :func:`repro.pipeline.sweep_tasks`
    semantics; *progress* is the usual per-pair sweep callback, shared
    by every generation (totals are per-generation).
    """
    import time

    from repro.pipeline.sweep import resolve_kernel_sources

    if config.generations < 0 or config.population < 1:
        raise ExploreError(
            f"need generations >= 0 and population >= 1, got "
            f"{config.generations}/{config.population}"
        )
    # None = the paper's eight; explicit subsets may also name extra
    # (fft) or promoted corpus kernels as exploration workloads
    kernels, _ = resolve_kernel_sources(config.kernels)
    started = time.perf_counter()
    result = ExploreResult(config=config, kernels=kernels)
    rng = campaign_rng(config.seed)

    by_digest: dict[str, Machine] = {}
    points: dict[str, ParetoPoint] = {}
    seen: set[str] = set()

    def evaluate(machines: list[Machine], generation: int) -> None:
        with obs.span(
            "explore.evaluate", generation=generation, candidates=len(machines)
        ):
            tasks = tasks_for_machines(
                machines, kernels, mode=config.mode, optimize=config.optimize
            )
            outcome = sweep_tasks(
                tasks,
                jobs=config.jobs,
                store=store,
                use_cache=use_cache,
                progress=progress,
            )
        result.stats.cache_hits += outcome.stats.cache_hits
        result.stats.computed += outcome.stats.computed
        result.stats.degraded += outcome.stats.degraded
        for machine in machines:
            digest = machine_digest(machine)
            failures = [
                (k, outcome.errors[(machine.name, k)])
                for k in kernels
                if (machine.name, k) in outcome.errors
            ]
            if failures:
                kernel, error = failures[0]
                result.infeasible.append(
                    InfeasiblePoint(
                        name=machine.name,
                        digest=digest,
                        origin=machine.description,
                        kernel=kernel,
                        error_type=error.error_type,
                        message=error.message.splitlines()[0] if error.message else "",
                    )
                )
                result.stats.infeasible += 1
                continue
            measured = [outcome.results[(machine.name, k)] for k in kernels]
            by_digest[digest] = machine
            points[digest] = ParetoPoint(
                name=machine.name,
                digest=digest,
                cycles=geomean(r.cycles for r in measured),
                core_luts=_core_luts(machine),
                fmax_mhz=measured[0].fmax_mhz,
                per_kernel={r.kernel: r.cycles for r in measured},
                origin=machine.description or "preset",
            )
            result.stats.evaluated += 1

    with obs.span(
        "explore.campaign",
        seed=config.seed,
        generations=config.generations,
        population=config.population,
    ):
        bases = _resolve_bases(config.base)
        for base in bases:
            seen.add(machine_digest(base))
        evaluate(bases, generation=0)
        if not points:
            first = result.infeasible[0] if result.infeasible else None
            detail = (
                f": {first.name}/{first.kernel}: {first.error_type}: {first.message}"
                if first
                else ""
            )
            raise ExploreError(f"no feasible baseline design point{detail}")
        frontier = pareto_frontier(points.values())
        result.history.append(_history_row(0, len(bases), points, frontier))

        for generation in range(1, config.generations + 1):
            with obs.span("explore.generation", generation=generation):
                parents = [by_digest[p.digest] for p in frontier]
                with obs.span("explore.mutate", parents=len(parents)):
                    children = _spawn(parents, rng, config.population, seen)
                if not children:
                    break
                evaluate(children, generation=generation)
                frontier = pareto_frontier(points.values())
                result.history.append(
                    _history_row(generation, len(children), points, frontier)
                )

    result.frontier = frontier
    result.machines = {
        p.name: machine_to_dict(by_digest[p.digest]) for p in frontier
    }
    result.stats.elapsed_s = time.perf_counter() - started
    if obs.enabled():
        obs.count("explore.evaluated", result.stats.evaluated)
        obs.count("explore.infeasible", result.stats.infeasible)
        obs.count("explore.frontier", len(frontier))
    return result


def _history_row(
    generation: int, candidates: int, points: dict, frontier: list[ParetoPoint]
) -> dict:
    return {
        "generation": generation,
        "candidates": candidates,
        "feasible_total": len(points),
        "frontier_size": len(frontier),
        "frontier": [p.name for p in frontier],
    }
