"""Engine-name and profiling tests of the Python engines.

``turbo`` is a name for the fast engine on the TTA and VLIW cores; runs
under it must stay bit- and cycle-exact with the checked reference
engine — exit code, cycle count and **every** statistics counter — on
every CHStone-style workload, on both machine styles.  Dynamic schedule
violations (early FU reads, overlapping control transfers, cycle-budget
exhaustion) must raise the same errors at the same cycle as the
reference engines (``test_predecode.TestEngineDynamics`` checks them in
every engine).  Profiles list per-pc hot spots in every engine.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro import build_machine, compile_for_machine, compile_source
from repro.kernels import KERNELS, compile_kernel
from repro.sim import (
    SimError,
    TTASimulator,
    collect_profile,
    format_profile,
    run_compiled,
    run_compiled_profiled,
)

#: one TTA and one VLIW design point; turbo/checked agreement is
#: style-level, not design-point-level (same policy as test_predecode)
DIFF_MACHINES = ("m-tta-2", "m-vliw-2")

FIB_SRC = """
int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main(void){ return fib(12) - 144; }
"""


def _compile(src, machine_name):
    return compile_for_machine(compile_source(src), build_machine(machine_name))


# ---------------------------------------------------------------------------
# differential: every workload, turbo vs checked, every statistic
# ---------------------------------------------------------------------------


@pytest.mark.slow  # full kernel x machine differential matrix
@pytest.mark.parametrize("machine_name", DIFF_MACHINES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_identical_turbo_vs_checked(machine_name, kernel):
    compiled = compile_for_machine(compile_kernel(kernel), build_machine(machine_name))
    checked = run_compiled(compiled, mode="checked")
    turbo = run_compiled(compiled, mode="turbo")
    assert asdict(turbo) == asdict(checked), f"{machine_name}/{kernel} diverged"
    assert turbo.exit_code == 0


def test_branchy_recursion_identical_turbo_vs_checked():
    """Calls, returns and conditional branches on design points the
    kernel sweep above does not cover."""
    for name in ("m-tta-1", "bm-tta-3", "p-vliw-3"):
        compiled = _compile(FIB_SRC, name)
        checked = run_compiled(compiled, mode="checked")
        turbo = run_compiled(compiled, mode="turbo")
        assert asdict(turbo) == asdict(checked), name
        assert turbo.exit_code == 0


class TestTurboDifferentialSmoke:
    """Small turbo-vs-checked matrix the CI workflow runs on every push
    (selected by class name; keep it fast: 2 machines x 2 kernels)."""

    @pytest.mark.parametrize("machine_name", DIFF_MACHINES)
    @pytest.mark.parametrize("kernel", ("mips", "motion"))
    def test_smoke(self, machine_name, kernel):
        compiled = compile_for_machine(
            compile_kernel(kernel), build_machine(machine_name)
        )
        checked = run_compiled(compiled, mode="checked")
        turbo = run_compiled(compiled, mode="turbo")
        assert asdict(turbo) == asdict(checked), f"{machine_name}/{kernel} diverged"
        assert turbo.exit_code == 0


# ---------------------------------------------------------------------------
# turbo dynamic semantics: the cycle budget in lockstep with fast
# ---------------------------------------------------------------------------


class TestTurboDynamics:
    """The cycle budget at a block boundary.  The other dynamic errors
    are checked in every engine by ``test_predecode.TestEngineDynamics``."""

    @pytest.mark.parametrize("mode", ("checked", "fast", "turbo"))
    @pytest.mark.parametrize("machine_name", DIFF_MACHINES)
    def test_cycle_budget_exact_at_boundary(self, machine_name, mode):
        """A budget one cycle short fails; the exact cycle count passes —
        in lockstep with the fast engine."""
        compiled = _compile(FIB_SRC, machine_name)
        cycles = run_compiled(compiled, mode="fast").cycles
        # result.cycles == halt_cycle + 1, and a run succeeds iff
        # halt_cycle <= max_cycles: the tightest passing budget is
        # cycles - 1 and one cycle less must raise in every engine.
        ok = run_compiled(compiled, mode=mode, max_cycles=cycles - 1)
        assert ok.cycles == cycles
        with pytest.raises(SimError, match="cycle budget"):
            run_compiled(compiled, mode=mode, max_cycles=cycles - 2)


# ---------------------------------------------------------------------------
# profiling: zero-overhead hit vectors -> hot spots + opcode histograms
# ---------------------------------------------------------------------------


class TestProfiling:
    def test_turbo_profile_accounts_every_instruction(self):
        compiled = _compile(FIB_SRC, "m-tta-2")
        result, profile = run_compiled_profiled(compiled, mode="turbo")
        assert result.exit_code == 0
        assert profile.engine == "turbo"
        assert profile.cycles == result.cycles
        assert profile.instructions == sum(profile.pc_hits) > 0
        # one region per executed pc: instruction totals must match
        assert all(b.length == 1 for b in profile.blocks)
        assert sum(b.instructions for b in profile.blocks) == profile.instructions
        # hottest-first ordering
        instrs = [b.instructions for b in profile.blocks]
        assert instrs == sorted(instrs, reverse=True)
        assert profile.opcode_counts  # fib triggers plenty of ops

    @pytest.mark.parametrize("machine_name", DIFF_MACHINES)
    def test_fast_and_turbo_profiles_agree(self, machine_name):
        compiled = _compile(FIB_SRC, machine_name)
        _, fast = run_compiled_profiled(compiled, mode="fast")
        _, turbo = run_compiled_profiled(compiled, mode="turbo")
        assert fast.engine == "fast" and turbo.engine == "turbo"
        assert fast.pc_hits == turbo.pc_hits
        assert fast.opcode_counts == turbo.opcode_counts
        assert fast.cycles == turbo.cycles
        # every region is a single pc
        assert fast.blocks == turbo.blocks
        assert all(b.length == 1 for b in fast.blocks)

    def test_checked_engine_has_no_profile(self):
        compiled = _compile(FIB_SRC, "m-tta-2")
        sim = TTASimulator(compiled.program, mode="checked")
        sim.preload(compiled.data_init)
        result = sim.run()
        with pytest.raises(ValueError, match="no profile data"):
            collect_profile(sim, result)

    def test_missing_engine_label_raises_not_mislabels(self):
        """A hit vector without an engine label is a half-populated
        simulator: refuse to profile rather than guess 'fast'."""
        compiled = _compile(FIB_SRC, "m-tta-2")
        sim = TTASimulator(compiled.program, mode="fast")
        sim.preload(compiled.data_init)
        result = sim.run()
        del sim._last_engine
        with pytest.raises(ValueError, match="no profile data"):
            collect_profile(sim, result)

    def test_profiled_run_rejects_scalar_and_checked(self):
        compiled = _compile(FIB_SRC, "mblaze-3")
        with pytest.raises(ValueError, match="TTA and VLIW cores only"):
            run_compiled_profiled(compiled)
        tta = _compile(FIB_SRC, "m-tta-2")
        with pytest.raises(ValueError, match="mode='fast' or mode='turbo'"):
            run_compiled_profiled(tta, mode="checked")

    def test_format_profile_renders(self):
        compiled = _compile(FIB_SRC, "m-tta-2")
        _, profile = run_compiled_profiled(compiled, mode="turbo")
        text = format_profile(profile)
        assert "hot blocks" in text
        assert "trigger histogram" in text
        assert "engine         : turbo" in text
