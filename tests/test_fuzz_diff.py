"""The differential case runner: oracle comparison, cross-engine
comparison, and the report/verdict plumbing."""

from __future__ import annotations

import pytest

from repro.fuzz import FuzzCase, FuzzCaseReport, run_case
from repro.fuzz.diff import REPORT_SCHEMA
from repro.sim import MODES

OK_SOURCE = """
int main() {
  unsigned h = 2166136261u;
  int a[8];
  for (int i = 0; i < 8; i = i + 1) { a[i] = i * 5 - 7; }
  for (int i = 0; i < 8; i = i + 1) { h = (h ^ (unsigned)a[i]) * 16777619u; }
  return (int)(h & 63u);
}
"""


def _expected(source: str) -> int:
    from repro.fuzz import reference_run

    return reference_run(source)


def _case(machine: str, source: str = OK_SOURCE, expected: int | None = None,
          modes=MODES) -> FuzzCase:
    return FuzzCase(
        machine=machine,
        kernel="diff-test",
        source=source,
        expected_exit=_expected(source) if expected is None else expected,
        modes=tuple(modes),
    )


@pytest.mark.parametrize("machine", ["m-tta-2", "m-vliw-2"])
def test_agreeing_case_runs_every_mode(machine):
    report = run_case(_case(machine))
    assert report.ok
    assert set(report.runs) == set(MODES)
    # cross-engine: every statistics field identical, not just exit codes
    baseline = report.runs["checked"]
    for mode in MODES[1:]:
        assert report.runs[mode] == baseline


def test_scalar_machine_uses_single_pseudo_mode():
    report = run_case(_case("mblaze-3"))
    assert report.ok
    assert set(report.runs) == {"scalar"}


@pytest.mark.parametrize("skew", ["cycles", "error"])
def test_scalar_engines_disagreeing_is_a_stats_mismatch(monkeypatch, skew):
    """The scalar core's checked interpreter runs alongside its block
    engine; a different record or error from it is a divergence."""
    import repro.sim
    from repro.sim import SimError

    real = repro.sim.run_compiled

    def skewed(compiled, *args, mode, **kwargs):
        result = real(compiled, *args, mode=mode, **kwargs)
        if mode == "checked":
            if skew == "error":
                raise SimError("PC out of range: 99")
            result.cycles += 1
        return result

    monkeypatch.setattr(repro.sim, "run_compiled", skewed)
    report = run_case(_case("mblaze-3"))
    assert [(d.mode, d.kind) for d in report.divergences] == [("scalar", "stats-mismatch")]
    assert "checked=" in report.divergences[0].detail
    assert set(report.runs) == {"scalar"}


def test_wrong_expectation_is_one_divergence_per_mode():
    report = run_case(_case("m-tta-2", expected=255))
    assert not report.ok
    kinds = {(d.mode, d.kind) for d in report.divergences}
    assert kinds == {(m, "exit-mismatch") for m in MODES}
    for d in report.divergences:
        assert d.expected == 255
        assert d.observed == report.runs[d.mode]["exit_code"]
        assert "exit-mismatch" in d.summary()


def test_mode_subset_is_respected():
    report = run_case(_case("m-tta-2", modes=("checked", "fast")))
    assert report.ok
    assert set(report.runs) == {"checked", "fast"}


def test_report_roundtrips_through_dict():
    report = run_case(_case("m-tta-1", expected=254))
    payload = report.to_dict()
    assert payload["schema"] == REPORT_SCHEMA
    again = FuzzCaseReport.from_dict(payload)
    assert again is not None
    assert again.runs == report.runs
    assert again.divergences == report.divergences
    # verdicts from another schema must be recomputed, not trusted
    payload["schema"] = REPORT_SCHEMA + 1
    assert FuzzCaseReport.from_dict(payload) is None


def test_infrastructure_errors_propagate_not_classified(monkeypatch):
    """Harness faults (OOM, I/O) must escape run_case so the executor
    records a TaskError, never be laundered into a 'crash' divergence."""
    import repro.sim as sim_mod

    def exploding(*args, **kwargs):
        raise MemoryError("simulated harness OOM")

    monkeypatch.setattr(sim_mod, "run_compiled", exploding)
    with pytest.raises(MemoryError, match="simulated harness OOM"):
        run_case(_case("m-tta-2", modes=("checked",)))


def test_cross_engine_divergence_is_reported_without_oracle_help(monkeypatch):
    """A checked-vs-fast drift surfaces even when the oracle agrees with
    one of them: inject a wrong ``sub`` into the checked TTA engine."""
    import repro.isa.semantics as semantics
    import repro.sim.tta_sim as tta_sim

    real = semantics.evaluate

    def buggy(op, operands):
        if op == "sub":
            return (operands[0] - operands[1] + 1) & 0xFFFFFFFF
        return real(op, operands)

    monkeypatch.setattr(tta_sim, "evaluate", buggy)
    report = run_case(_case("m-tta-2", modes=("checked", "fast")))
    assert not report.ok
    kinds = {d.kind for d in report.divergences}
    # the checked engine disagrees with the oracle (exit-mismatch) and
    # with the fast engine (stats-mismatch via the cross-engine sweep)
    assert "exit-mismatch" in kinds or "stats-mismatch" in kinds
    assert any(d.mode in ("checked", "fast") for d in report.divergences)
