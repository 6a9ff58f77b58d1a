#!/usr/bin/env python3
"""Design a custom TTA soft core and measure the cost of your choices.

This is the co-design loop the paper's toolchain (TCE) is built for:
start from a machine description, compile your application, look at
cycles and estimated FPGA cost, adjust the datapath, repeat.

Here we build a 4-bus TTA with two partitioned register files from
scratch (no preset), validate it, and compare it against the stock
m-tta-1 and m-tta-2 design points on a small FIR filter.

Run:  python examples/custom_core.py
"""

from repro import build_machine, compile_for_machine, compile_source, run_compiled, synthesize
from repro.isa.operations import ALU_OPS, CU_OPS, LSU_OPS, OpKind
from repro.machine import Bus, FunctionUnit, Machine, RegisterFile, validate_machine
from repro.machine.machine import MachineStyle

FIR = """
int x[96];
int h[8] = { 3, -1, 4, 1, -5, 9, 2, -6 };
int y[88];

int main(void)
{
    int n, k, acc;
    for (n = 0; n < 96; n++)
        x[n] = (n * 13) % 256 - 128;
    for (n = 0; n < 88; n++) {
        acc = 0;
        for (k = 0; k < 8; k++)
            acc += x[n + k] * h[k];
        y[n] = acc >> 6;
    }
    acc = 0;
    for (n = 0; n < 88; n++)
        acc ^= y[n] & 0xFFFF;
    return acc & 0xFF;
}
"""


def build_custom_tta() -> Machine:
    """A 4-bus TTA with two small 1r1w register files."""
    alu = FunctionUnit("ALU0", OpKind.ALU, frozenset(ALU_OPS))
    lsu = FunctionUnit("LSU0", OpKind.LSU, frozenset(LSU_OPS))
    cu = FunctionUnit("CU", OpKind.CU, frozenset(CU_OPS))
    rf0 = RegisterFile("RF0", 32, read_ports=1, write_ports=1)
    rf1 = RegisterFile("RF1", 32, read_ports=1, write_ports=1)

    sources = frozenset(
        {"IMM", alu.result_port, lsu.result_port, cu.result_port,
         rf0.read_endpoint, rf1.read_endpoint}
    )
    destinations = frozenset(
        {alu.trigger_port, alu.operand_port, lsu.trigger_port, lsu.operand_port,
         cu.trigger_port, cu.operand_port, rf0.write_endpoint, rf1.write_endpoint}
    )
    buses = tuple(Bus(i, sources, destinations) for i in range(4))

    machine = Machine(
        name="custom-tta-4",
        style=MachineStyle.TTA,
        issue_width=1,
        function_units=(alu, lsu),
        control_unit=cu,
        register_files=(rf0, rf1),
        buses=buses,
        simm_bits=7,
        description="custom 4-bus TTA with two partitioned 1r1w RFs",
    )
    validate_machine(machine)
    return machine


def main() -> None:
    module = compile_source(FIR)
    machines = [build_machine("m-tta-1"), build_custom_tta(), build_machine("m-tta-2")]

    print(f"{'machine':14s} {'buses':>5s} {'cycles':>8s} {'LUTs':>6s} "
          f"{'fmax':>7s} {'runtime':>9s}")
    for machine in machines:
        compiled = compile_for_machine(module, machine)
        result = run_compiled(compiled)
        report = synthesize(machine)
        runtime_us = result.cycles / report.fmax_mhz
        print(
            f"{machine.name:14s} {len(machine.buses):5d} {result.cycles:8d} "
            f"{report.resources.core_luts:6d} {report.fmax_mhz:5.0f}MHz "
            f"{runtime_us:7.1f}us  (exit={result.exit_code})"
        )

    print("\nThe 4-bus custom point should land between the 3-bus m-tta-1")
    print("and the 6-bus m-tta-2 in both cycles and LUTs -- the area/")
    print("performance dial the paper's Fig. 6 sweeps.")


if __name__ == "__main__":
    main()
