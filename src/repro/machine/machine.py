"""The Machine class: one complete soft-core design point."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from repro.machine.components import Bus, FunctionUnit, RegisterFile


class MachineStyle(enum.Enum):
    """Programming model of the design point.

    * ``TTA`` -- exposed-datapath; programs are parallel data transports,
      scheduled onto the machine's buses with software bypassing.
    * ``VLIW`` -- operation-triggered multi-issue; programs are bundles of
      complete operations, all operands via the register file(s).
    * ``SCALAR`` -- single-issue operation-triggered RISC with a hardware
      pipeline timing model (the MicroBlaze stand-in).
    """

    TTA = "tta"
    VLIW = "vliw"
    SCALAR = "scalar"


@dataclass(frozen=True)
class ScalarTiming:
    """Pipeline timing model for SCALAR machines.

    Cycle cost of each instruction class beyond the 1-cycle base issue
    rate, modelling stalls of an in-order scalar pipeline.  The defaults
    correspond to a 3-stage MicroBlaze-like pipeline without operand
    forwarding.
    """

    load_extra: int = 1
    store_extra: int = 0
    mul_extra: int = 2
    shift_extra: int = 1
    taken_branch_extra: int = 2
    untaken_branch_extra: int = 0
    call_extra: int = 2
    pipeline_stages: int = 3


@dataclass(frozen=True)
class Machine:
    """A complete description of one soft-core design point.

    Attributes:
        name: design point name (``m-tta-2`` ...).
        style: programming model (TTA / VLIW / SCALAR).
        issue_width: operations issued per cycle in VLIW/SCALAR mode; for
            TTA machines this records the *intended* sustained issue rate
            (used only for reporting).
        function_units: datapath FUs (excluding the control unit).
        control_unit: the control FU (jumps, calls).
        register_files: general-purpose RFs.
        buses: transport buses; required for TTA machines, empty otherwise.
        simm_bits: short-immediate width encodable in a move source field /
            issue-slot source field.  Wider constants need a long-immediate
            transport (TTA: +1 bus slot; VLIW/SCALAR: +1 issue slot).
        jump_latency: exposed control-transfer latency (delay slots).
        scalar_timing: pipeline stall model for SCALAR machines.
    """

    name: str
    style: MachineStyle
    issue_width: int
    function_units: tuple[FunctionUnit, ...]
    control_unit: FunctionUnit
    register_files: tuple[RegisterFile, ...]
    buses: tuple[Bus, ...] = ()
    simm_bits: int = 8
    jump_latency: int = 3
    scalar_timing: ScalarTiming | None = None
    description: str = field(default="", compare=False)

    # ---- lookup helpers -------------------------------------------------

    @cached_property
    def all_units(self) -> tuple[FunctionUnit, ...]:
        """Datapath FUs plus the control unit."""
        return (*self.function_units, self.control_unit)

    @cached_property
    def fu_by_name(self) -> dict[str, FunctionUnit]:
        return {fu.name: fu for fu in self.all_units}

    @cached_property
    def rf_by_name(self) -> dict[str, RegisterFile]:
        return {rf.name: rf for rf in self.register_files}

    @cached_property
    def units_for_op(self) -> dict[str, tuple[FunctionUnit, ...]]:
        """Map each operation mnemonic to the units able to execute it."""
        table: dict[str, list[FunctionUnit]] = {}
        for fu in self.all_units:
            for op in fu.ops:
                table.setdefault(op, []).append(fu)
        return {op: tuple(fus) for op, fus in table.items()}

    def unit_kind_of_endpoint(self, endpoint: str) -> str:
        """Classify an endpoint string: 'fu', 'rf' or 'imm'."""
        if endpoint == "IMM":
            return "imm"
        unit = endpoint.split(".", 1)[0]
        if unit in self.fu_by_name:
            return "fu"
        if unit in self.rf_by_name:
            return "rf"
        raise KeyError(f"unknown endpoint {endpoint!r} in machine {self.name}")

    # ---- derived properties ---------------------------------------------

    @property
    def total_registers(self) -> int:
        return sum(rf.size for rf in self.register_files)

    @property
    def bus_count(self) -> int:
        return len(self.buses)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Machine({self.name}, {self.style.value}, issue={self.issue_width}, "
            f"fus={len(self.function_units)}, rfs={len(self.register_files)}, "
            f"buses={len(self.buses)})"
        )
