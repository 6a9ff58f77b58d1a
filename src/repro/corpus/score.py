"""Interestingness scoring and diverse-subset selection for promotion.

A candidate kernel earns its place in the stress corpus by being an
*extreme* along some structural or behavioral axis, measured from one
profiled run on a scoring machine (the fast engine's per-pc hit vector
makes the dynamic opcode histogram free):

* **branchy** — dynamic control-transfer ops (jump/cjump/cjumpz);
* **fu-diverse** — distinct opcodes triggered (FU-mix coverage);
* **mem-heavy / mem-light** — dynamic load+store traffic extremes;
* **long / short** — cycle-count extremes.

:func:`select_diverse` is afl-cmin in spirit: rather than keeping the
N highest on one scalar score, it round-robins over the axes, taking
the top remaining candidate of each, so the selected corpus covers the
behavior space.  Everything is integer arithmetic over sorted inputs —
deterministic across hosts and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: preset used for trait measurement (any TTA/VLIW preset works; traits
#: only rank candidates relative to each other)
SCORE_MACHINE = "m-tta-2"

#: dynamic control-transfer opcodes (calls/rets are counted separately
#: as part of FU diversity)
BRANCH_OPS = ("jump", "cjump", "cjumpz")

LOAD_OPS = ("ldw", "ldh", "ldq", "ldqu", "ldhu")
STORE_OPS = ("stw", "sth", "stq")


@dataclass(frozen=True)
class KernelTraits:
    """One candidate's measured behavior on the scoring machine."""

    name: str
    exit_code: int
    cycles: int
    branch_ops: int
    loads: int
    stores: int
    distinct_opcodes: int
    opcode_counts: dict[str, int] = field(default_factory=dict, repr=False)

    @property
    def mem_ops(self) -> int:
        return self.loads + self.stores

    def to_dict(self) -> dict:
        return {
            "exit_code": self.exit_code,
            "cycles": self.cycles,
            "branch_ops": self.branch_ops,
            "loads": self.loads,
            "stores": self.stores,
            "mem_ops": self.mem_ops,
            "distinct_opcodes": self.distinct_opcodes,
        }


def measure_traits(
    name: str,
    source: str,
    machine: str = SCORE_MACHINE,
    max_cycles: int = 5_000_000,
) -> KernelTraits:
    """Compile *source* for the scoring machine and profile one run."""
    from repro.backend import compile_for_machine
    from repro.frontend import compile_source
    from repro.machine import build_machine
    from repro.sim import run_compiled_profiled

    module = compile_source(source, module_name=name, optimize=True)
    compiled = compile_for_machine(module, build_machine(machine))
    result, profile = run_compiled_profiled(compiled, max_cycles=max_cycles)
    counts = profile.opcode_counts
    return KernelTraits(
        name=name,
        exit_code=result.exit_code,
        cycles=result.cycles,
        branch_ops=sum(counts.get(op, 0) for op in BRANCH_OPS),
        loads=sum(counts.get(op, 0) for op in LOAD_OPS),
        stores=sum(counts.get(op, 0) for op in STORE_OPS),
        distinct_opcodes=len(counts),
        opcode_counts=dict(counts),
    )


def interestingness(traits: KernelTraits) -> int:
    """A scalar tiebreak score: extremeness summed over the axes.

    Only used to order candidates *within* an axis bucket and in
    reports; selection itself is the multi-axis round-robin of
    :func:`select_diverse`.
    """
    return (
        traits.branch_ops * 3
        + traits.distinct_opcodes * 100
        + traits.mem_ops
        + traits.cycles // 64
    )


#: selection axes: (label, sort key over KernelTraits, descending?)
AXES: tuple[tuple[str, str, bool], ...] = (
    ("branchy", "branch_ops", True),
    ("fu-diverse", "distinct_opcodes", True),
    ("mem-heavy", "mem_ops", True),
    ("mem-light", "mem_ops", False),
    ("long", "cycles", True),
    ("short", "cycles", False),
)


def _axis_value(traits: KernelTraits, attr: str) -> int:
    if attr == "mem_ops":
        return traits.mem_ops
    return getattr(traits, attr)


def select_diverse(candidates: list[KernelTraits], target: int) -> list[tuple[KernelTraits, str]]:
    """Pick up to *target* candidates covering the behavior axes.

    Round-robins over :data:`AXES`, each axis claiming its most extreme
    not-yet-selected candidate; name-sorted input and name tiebreaks
    keep the selection deterministic.  Returns ``(traits, axis_label)``
    pairs in selection order.
    """
    if target <= 0:
        return []
    pool = sorted(candidates, key=lambda t: t.name)
    chosen: list[tuple[KernelTraits, str]] = []
    taken: set[str] = set()
    while len(chosen) < target and len(taken) < len(pool):
        progressed = False
        for label, attr, descending in AXES:
            if len(chosen) >= target:
                break
            remaining = [t for t in pool if t.name not in taken]
            if not remaining:
                break
            sign = -1 if descending else 1
            best = min(remaining, key=lambda t: (sign * _axis_value(t, attr), t.name))
            taken.add(best.name)
            chosen.append((best, label))
            progressed = True
        if not progressed:
            break
    return chosen
