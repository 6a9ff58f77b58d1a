"""repro -- Transport-Triggered Soft Cores, reproduced in Python.

A full-stack soft-core co-design toolkit in the spirit of TCE, built to
reproduce "Transport-Triggered Soft Cores" (Jääskeläinen et al., 2018):

* describe a TTA/VLIW/scalar design point (:mod:`repro.machine`),
* compile MiniC through a shared optimising compiler
  (:mod:`repro.frontend`, :mod:`repro.ir`, :mod:`repro.backend`),
* simulate cycle-accurately (:mod:`repro.sim`),
* estimate FPGA cost and fmax (:mod:`repro.fpga`),
* and regenerate the paper's tables and figures (:mod:`repro.eval`).

Quickstart::

    from repro import compile_and_run

    result = compile_and_run("int main(void){ return 6*7; }", "m-tta-2")
    print(result.exit_code, result.cycles)
"""

from repro.backend import CompiledProgram, compile_for_machine
from repro.frontend import compile_source
from repro.fpga import synthesize
from repro.ir import Interpreter, Module
from repro.machine import (
    Machine,
    build_machine,
    encode_machine,
    preset_names,
    validate_machine,
)
from repro.sim import run_compiled

__version__ = "1.0.0"

__all__ = [
    "CompiledProgram",
    "Interpreter",
    "Machine",
    "Module",
    "build_machine",
    "compile_and_run",
    "compile_for_machine",
    "compile_source",
    "encode_machine",
    "preset_names",
    "run_compiled",
    "synthesize",
    "validate_machine",
]


def compile_and_run(source: str, machine_name: str):
    """Compile MiniC *source* for the named design point and simulate it.

    Returns the simulator result (``exit_code``, ``cycles`` and
    style-specific statistics).
    """
    module = compile_source(source)
    machine = build_machine(machine_name)
    compiled = compile_for_machine(module, machine)
    return run_compiled(compiled)
