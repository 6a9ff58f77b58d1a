"""Seeded inputs for the three cold-start workloads.

Everything here is a pure function of ``(seed, seconds)``: the same seed
gives the same plan, and the program under test only ever sees the
plan's contents (kernel names, machine names, request sequence), never
the seed.  Nothing here imports ``repro``, so the orchestrator can build
plans without warming any program state.

Plan sizes follow from ``seconds`` through per-item costs measured on a
2-core x86-64 host (Python 3.11, gcc 12).  The costs only size the plan;
they are never reported as results.
"""

from __future__ import annotations

import hashlib
import json
import random

#: the 13 machine presets (``repro.machine.preset_names()``)
PRESETS = ("mblaze-3", "mblaze-5", "m-tta-1", "m-vliw-2", "p-vliw-2", "m-tta-2",
           "p-tta-2", "bm-tta-2", "m-vliw-3", "p-vliw-3", "m-tta-3", "p-tta-3",
           "bm-tta-3")

# ---------------------------------------------------------------------------
# sweep-cold
# ---------------------------------------------------------------------------

#: cost-matched kernel strata with the serial fast-mode cost, in seconds,
#: of one kernel over all 13 presets.  One round draws one kernel per
#: stratum without replacement, so every seed sweeps about the same
#: amount of work and ``ops_per_s`` does not depend on which kernels the
#: seed picked.  ``jpeg`` (12.0 s) and ``blowfish`` (7.7 s) have no
#: cost-matched partner and are not drawn.
SWEEP_STRATA: tuple[dict[str, float], ...] = (
    {"aes": 5.00, "motion": 4.64},
    {"fft": 3.32, "sha": 3.29, "adpcm": 3.03, "gsm": 2.88},
    {"stress-2024-000": 2.45, "stress-2024-019": 2.12},
    {"mips": 1.81, "stress-2024-001": 1.75, "stress-2024-035": 1.65,
     "stress-2024-032": 1.56},
    {"stress-2024-007": 1.28, "stress-2024-012": 1.23, "stress-2024-010": 1.11},
    {"stress-2024-023": 0.90, "stress-2024-028": 0.80, "stress-2024-022": 0.69},
)

#: reference cost of one round (mean of each stratum, summed)
_ROUND_S = sum(sum(s.values()) / len(s) for s in SWEEP_STRATA)

# ---------------------------------------------------------------------------
# explore-native
# ---------------------------------------------------------------------------

#: TTA presets run_explore accepts as campaign bases
TTA_PRESETS = ("m-tta-1", "m-tta-2", "p-tta-2", "bm-tta-2", "m-tta-3",
               "p-tta-3", "bm-tta-3")
EXPLORE_KERNELS = ("mips",)
#: one cold native evaluation of mips (cgen + cc + run) on a TTA preset
_EXPLORE_EVAL_S = 6.0
#: structurally-new mutants spawned from the bases per run (the
#: campaign's generation step, without evaluating them)
EXPLORE_MUTANTS = 16

# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

#: cost strata of the served kernels: the three cheapest sweep strata.
#: One round draws one kernel per stratum; each kernel is served on
#: every preset.
SERVE_STRATA = SWEEP_STRATA[3:]
#: the requests of one (machine, kernel) pair, in order, as the
#: repository's two CI serve steps send them for their one pair:
#:
#: - ``scripts/serve_smoke.py``: compile, run fast (cold), run fast (warm);
#: - ``benchmarks/bench_serve.py --smoke``: run turbo from 4 clients (one
#:   cold, three warm), then 10 warm fast runs from each of 4 clients.
#:
#: That is 3 misses and 44 hits per pair, as ``(kind, mode, count)``.
SERVE_SESSION: tuple[tuple[str, str | None, int], ...] = (
    ("compile", None, 1),
    ("run", "fast", 2),
    ("run", "turbo", 4),
    ("run", "fast", 40),
)
#: reference cost of one round (one kernel per stratum on 13 presets)
_SERVE_ROUND_S = 14.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def digest(obj) -> str:
    """Short content digest of a JSON-able value."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _draw(rng: random.Random, strata, rounds: int) -> list[str]:
    """One kernel per stratum and round, without replacement."""
    kernels: list[str] = []
    for stratum in strata:
        names = sorted(stratum)
        rng.shuffle(names)
        kernels.extend(names[: min(rounds, len(names))])
    return kernels


def sweep_plan(seed: int, seconds: float) -> dict:
    rng = _rng("sweep-cold", seed)
    kernels = _draw(rng, SWEEP_STRATA, max(1, round(seconds / _ROUND_S)))
    rng.shuffle(kernels)
    return {"kernels": kernels, "mode": "fast"}


def explore_plan(seed: int, seconds: float) -> dict:
    rng = _rng("explore-native", seed)
    count = max(2, min(len(TTA_PRESETS), int(seconds // _EXPLORE_EVAL_S)))
    bases = rng.sample(TTA_PRESETS, count)
    return {"base": bases, "kernels": list(EXPLORE_KERNELS), "campaign_seed": seed,
            "mutants": EXPLORE_MUTANTS}


def serve_plan(seed: int, seconds: float) -> dict:
    """Every (preset, kernel) pair's :data:`SERVE_SESSION`, interleaved.

    The seed draws the kernels (one per cost stratum and round) and
    interleaves the sessions.  Each pair's requests keep their session
    order, so the misses are exactly each pair's first compile, fast run
    and turbo run, for every seed.
    """
    rng = _rng("serve-mixed", seed)
    kernels = sorted(_draw(rng, SERVE_STRATA, max(1, round(seconds / _SERVE_ROUND_S))))
    jobs: list[dict] = []
    sessions: list[list[int]] = []
    for machine in PRESETS:
        for kernel in kernels:
            session: list[int] = []
            for kind, mode, count in SERVE_SESSION:
                job = {"kind": kind, "machine": machine, "kernel": kernel}
                if mode is not None:
                    job["mode"] = mode
                if job not in jobs:
                    jobs.append(job)
                session += [jobs.index(job)] * count
            sessions.append(session)
    # the next request comes from a pair drawn by how many requests it
    # has left, so the sessions overlap in time as concurrent callers'
    # would
    sequence: list[int] = []
    left = [len(session) for session in sessions]
    while any(left):
        pair = rng.choices(range(len(sessions)), weights=left)[0]
        sequence.append(sessions[pair][len(sessions[pair]) - left[pair]])
        left[pair] -= 1
    return {"kernels": kernels, "jobs": jobs, "sequence": sequence}


PLANS = {
    "sweep-cold": sweep_plan,
    "explore-native": explore_plan,
    "serve-mixed": serve_plan,
}


def make_plan(workload: str, seed: int, seconds: float) -> dict:
    plan = PLANS[workload](seed, seconds)
    plan["input_digest"] = input_digest(workload, plan)
    return plan


def input_digest(workload: str, plan: dict) -> str:
    """Digest of the *set* of inputs a plan runs, ignoring order: two
    plans with equal digests must produce identical exact counts."""
    if workload == "sweep-cold":
        return digest(sorted(plan["kernels"]))
    if workload == "explore-native":
        return digest([sorted(plan["base"]), plan["kernels"]])
    return digest([plan["jobs"], sorted(plan["sequence"])])
