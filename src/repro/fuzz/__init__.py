"""Differential fuzzing: randomized kernels, cross-engine co-simulation,
failure minimization.

The paper's evaluation is only meaningful if every (compiler, scheduler,
simulator-engine) combination computes the same answers.  Eight
hand-written CHStone-like kernels cannot cover that state space; this
package machine-generates workloads and checks them against a trusted
oracle:

* :mod:`repro.fuzz.gen` -- seeded, fully deterministic random MiniC
  kernel generator (edge-biased arithmetic, nested control flow,
  function-call DAGs, masked in-footprint memory access, statically
  bounded loops);
* :mod:`repro.fuzz.oracle` -- the frontend reference interpreter run on
  *unoptimized* IR, so the optimizer is inside the differential net;
* :mod:`repro.fuzz.diff` -- compile each kernel for a design point and
  run it through every engine mode (checked/fast/turbo), asserting
  oracle-identical exit codes and cross-engine-identical cycle and
  statistics counters;
* :mod:`repro.fuzz.minimize` -- delta-debugging over the generated AST
  (statement removal, expression shrinking, trip-count reduction) to
  produce a small reproducer for any divergence;
* :mod:`repro.fuzz.corpus` -- persistence of minimized reproducers under
  ``fuzz/corpus/`` for pytest replay;
* :mod:`repro.fuzz.harness` -- campaign orchestration (parallel fan-out
  through :mod:`repro.pipeline`, verdict memoisation in the artifact
  store, time budgets) behind the ``repro fuzz`` CLI.
"""

from repro.fuzz.gen import (
    GENERATOR_VERSION,
    GeneratedKernel,
    generate_kernel,
    generate_kernels,
    render_kernel,
)
from repro.fuzz.oracle import GeneratorError, reference_run
from repro.fuzz.diff import (
    Divergence,
    FuzzCase,
    FuzzCaseReport,
    execute_fuzz_task,
    run_case,
)
from repro.fuzz.minimize import minimize_kernel
from repro.fuzz.corpus import (
    CorpusEntry,
    default_corpus_dir,
    load_corpus,
    save_reproducer,
)
from repro.fuzz.harness import FUZZ_JSON_SCHEMA, FuzzConfig, FuzzReport, run_fuzz

__all__ = [
    "CorpusEntry",
    "Divergence",
    "FuzzCase",
    "FuzzCaseReport",
    "FuzzConfig",
    "FUZZ_JSON_SCHEMA",
    "FuzzReport",
    "GENERATOR_VERSION",
    "GeneratedKernel",
    "GeneratorError",
    "default_corpus_dir",
    "execute_fuzz_task",
    "generate_kernel",
    "generate_kernels",
    "load_corpus",
    "minimize_kernel",
    "reference_run",
    "render_kernel",
    "run_case",
    "run_fuzz",
    "save_reproducer",
]
