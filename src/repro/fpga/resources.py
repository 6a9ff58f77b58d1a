"""LUT/FF/DSP estimation per component.

Register files (LaForest-Steffan, distributed RAM):

* one 32-deep x 32b simple-dual-port bank = 24 LUTs (RAM32M packs six
  bits per four LUTs); a 64-deep bank = 44 LUTs (RAM64M, three bits per
  four LUTs); deeper files stack 64-deep banks plus output muxing;
* a file with R read ports and one write port replicates the bank R
  times;
* a file with W > 1 write ports uses W x R banks plus a live-value table
  and per-read-port output muxing -- this is the super-linear blow-up
  that makes the monolithic VLIW register files expensive (paper
  Section II and Table III).

The interconnect is costed from the machine's actual bus connectivity:
each bus input is a mux over its source endpoints and each destination
port is a mux over the buses that can drive it (32 bits wide, packed
into 6-LUTs at ~3 mux inputs per LUT-bit level).  VLIW datapaths are
costed on their equivalent transport structure (paper Fig. 4a: a VLIW
datapath is a TTA with a fully-connected bypass network).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.machine.components import Bus, FunctionUnit, RegisterFile
from repro.machine.encoding import encode_machine
from repro.machine.machine import Machine, MachineStyle
from repro.machine.presets import _full_buses  # structural reuse for VLIW costing

#: per-FU LUT costs (32-bit integer units; the multiplier lives in DSPs)
_FU_LUTS = {"alu": 340, "lsu": 130, "cu": 170}
_FU_FFS = {"alu": 180, "lsu": 110, "cu": 90}
_DSP_PER_MUL = 3

#: mux packing: one 6-LUT implements ~3 mux inputs per bit
_MUX_LUTS_PER_BIT_INPUT = 1.0 / 3.0
_DATA_WIDTH = 32

#: MicroBlaze vendor-IP constants (paper Table III; closed IP, measured
#: not modelled -- see package docstring).
MICROBLAZE_RESOURCES = {
    "mblaze-3": {"core_luts": 715, "rf_luts": 128, "lutram": 128, "ic_luts": 0, "ffs": 303, "dsps": 3},
    "mblaze-5": {"core_luts": 829, "rf_luts": 64, "lutram": 64, "ic_luts": 0, "ffs": 582, "dsps": 3},
}


@lru_cache(maxsize=1)
def _vendor_digests() -> dict[str, str]:
    """Structural digest -> vendor preset name for the measured cores."""
    from repro.machine.presets import build_machine
    from repro.machine.serialize import machine_digest

    return {
        machine_digest(build_machine(name)): name
        for name in MICROBLAZE_RESOURCES
    }


def vendor_preset_name(machine: Machine) -> str | None:
    """Vendor preset whose *measured* numbers apply to *machine*, if any.

    Matching is **structural** (name/description-blind digest): a
    renamed clone of a measured core still gets the vendor constants,
    while a machine merely *named* like one -- e.g. an exploration
    mutant derived from it -- falls through to the analytic model
    instead of inheriting measurements of hardware it no longer is.
    """
    from repro.machine.serialize import machine_digest

    return _vendor_digests().get(machine_digest(machine))


@dataclass(frozen=True)
class ResourceReport:
    """Estimated FPGA resources of one design point."""

    machine_name: str
    core_luts: int
    rf_luts: int
    lutram: int
    ic_luts: int
    ffs: int
    dsps: int
    #: approximate slices (4 LUTs / 8 FFs per slice on 7-series)
    @property
    def slices(self) -> int:
        return max((self.core_luts + 3) // 4, (self.ffs + 7) // 8)


def rf_luts(rf: RegisterFile) -> tuple[int, int]:
    """(total LUTs, LUTs used as RAM) for one register file."""
    depth = rf.size
    if depth <= 32:
        per_copy = 24
    else:
        banks = (depth + 63) // 64
        per_copy = banks * 44 + (banks - 1) * 16  # stacked banks + mux
    reads, writes = rf.read_ports, rf.write_ports
    if writes <= 1:
        copies = max(reads, 1)
        ram = copies * per_copy
        logic = 0
    else:
        copies = reads * writes
        ram = copies * per_copy
        lvt_bits = max(1, (writes - 1).bit_length())
        lvt = int(depth * lvt_bits * 0.5)
        out_mux = int(reads * _DATA_WIDTH * (writes - 1) * 0.7)
        logic = lvt + out_mux + 30 * writes
    return ram + logic, ram


def _transport_structure(machine: Machine) -> tuple[Bus, ...]:
    """The bus structure to cost the interconnect on."""
    if machine.style is MachineStyle.TTA:
        return machine.buses
    # A VLIW datapath's routing is equivalent to a fully-connected
    # transport network sustaining its issue rate (paper Fig. 4a):
    # three transports per issue slot.
    count = machine.issue_width * 3
    return _full_buses(count, machine.all_units, machine.register_files)


def ic_luts(machine: Machine) -> int:
    """Interconnect mux LUTs from the (real or equivalent) bus structure."""
    buses = _transport_structure(machine)
    total = 0.0
    # Bus input muxes: one mux over all source endpoints per bus.
    for bus in buses:
        n_sources = len(bus.sources)
        total += _DATA_WIDTH * max(0, n_sources - 1) * _MUX_LUTS_PER_BIT_INPUT
    # Destination port muxes: each port selects among the buses driving it.
    ports: dict[str, int] = {}
    for bus in buses:
        for dst in bus.destinations:
            ports[dst] = ports.get(dst, 0) + 1
    for fanin in ports.values():
        total += _DATA_WIDTH * max(0, fanin - 1) * _MUX_LUTS_PER_BIT_INPUT
    # Synthesis shares decoding/mux logic across wide transport networks;
    # scale sublinearly beyond the six-bus point (calibrated on Table III).
    scale = 0.75 * min(1.0, (6.0 / max(len(buses), 6)) ** 0.8)
    return int(total * scale)


def _decode_luts(machine: Machine) -> int:
    """Instruction decode: proportional to the instruction width (the TTA
    format needs very little logic per bit; the VLIW word is denser)."""
    width = encode_machine(machine).instruction_width
    factor = 1.0 if machine.style is MachineStyle.TTA else 1.6
    return int(width * factor)


def estimate_resources(machine: Machine) -> ResourceReport:
    """Estimate the FPGA resources of *machine*."""
    vendor = vendor_preset_name(machine)
    if vendor is not None:
        return ResourceReport(machine.name, **MICROBLAZE_RESOURCES[vendor])

    rf_total = 0
    ram_total = 0
    for rf in machine.register_files:
        luts, ram = rf_luts(rf)
        rf_total += luts
        ram_total += ram
    interconnect = ic_luts(machine)
    fu_total = 0
    ff_total = 120  # PC, fetch and glue registers
    dsps = 0
    for fu in machine.all_units:
        kind = fu.kind.value
        fu_total += _FU_LUTS[kind]
        ff_total += _FU_FFS[kind]
        if "mul" in fu.ops:
            dsps += _DSP_PER_MUL
    decode = _decode_luts(machine)
    # Pipeline/port registers grow with transport parallelism.
    ff_total += 32 * len(_transport_structure(machine))
    ff_total += 40 * len(machine.register_files)
    core = rf_total + interconnect + fu_total + decode
    return ResourceReport(
        machine_name=machine.name,
        core_luts=int(core),
        rf_luts=int(rf_total),
        lutram=int(ram_total),
        ic_luts=int(interconnect),
        ffs=int(ff_total),
        dsps=dsps,
    )
