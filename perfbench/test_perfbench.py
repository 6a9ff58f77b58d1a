"""Tests of the benchmark's own logic: plans, output checks, exact-count
comparison and trace accounting.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import (  # noqa: E402
    ACTIVE_LAYERS,
    check_against_records,
    check_pair,
    compare_counts,
    golden_entry,
    inactive_layers,
    percentile,
)
from hostspeed import NOMINAL_PROBE_S, op_slowdowns  # noqa: E402
from plans import SERVE_SESSION, SWEEP_STRATA, make_plan  # noqa: E402
from tracing import SELF_METRICS, Recorder, adopt, bucket_totals, self_times  # noqa: E402

GOLDEN = ROOT / "fuzz" / "promoted" / "stress-2024-000.golden.json"


def _golden():
    return json.loads(GOLDEN.read_text())


# -- output checks -----------------------------------------------------------


def test_pair_matching_its_golden_passes():
    golden = _golden()
    entry = golden_entry(golden, "m-tta-2", "tta")
    assert check_pair(dict(entry), golden["expected_exit"], entry) == []


@pytest.mark.parametrize("field", ["cycles", "moves", "bypass_reads"])
def test_tampered_golden_counter_fails(field):
    golden = _golden()
    entry = golden_entry(golden, "m-tta-2", "tta")
    tampered = dict(entry, **{field: entry[field] + 1})
    problems = check_pair(dict(entry), golden["expected_exit"], tampered)
    assert problems and field in problems[0]


def test_tampered_expected_exit_fails():
    golden = _golden()
    entry = golden_entry(golden, "mblaze-3", "scalar")
    assert entry is not None
    problems = check_pair(dict(entry), golden["expected_exit"] ^ 1, None)
    assert problems and problems[0].startswith("exit_code")


def test_missing_counter_fails():
    golden = _golden()
    entry = golden_entry(golden, "m-vliw-2", "vliw")
    observed = {k: v for k, v in entry.items() if k != "cycles"}
    assert check_pair(observed, golden["expected_exit"], entry)


def test_sweep_check_rejects_result_off_its_golden():
    """The sweep workload's own check path, on a real golden file."""
    pytest.importorskip("repro")
    from worker import SweepCold

    from repro.pipeline import EvalResult

    golden = _golden()
    entry = golden_entry(golden, "m-tta-2", "tta")

    def op(cycles):
        extras = {k: v for k, v in entry.items() if k not in ("exit_code", "cycles")}
        result = EvalResult("m-tta-2", "stress-2024-000", entry["exit_code"], cycles,
                            1, 1, 1.0, extras)
        return {"lat_ms": 1.0, "miss": True, "task": None, "result": result}

    workload = SweepCold()
    workload.store = type("Store", (), {"stats": type("S", (), {
        "hits": 0, "misses": 0, "blob_writes": 0})()})()
    ops = [op(entry["cycles"]), op(entry["cycles"] + 1)]
    workload.finish(ops)
    assert ops[0]["problems"] == []
    assert ops[1]["problems"] and "cycles" in ops[1]["problems"][0]


# -- exact counts --------------------------------------------------------------


def test_count_mismatch_is_reported():
    assert compare_counts({"sim.cycles": 5, "ir.instrs": 3},
                          {"sim.cycles": 5, "ir.instrs": 4}) == ["ir.instrs: 3 != 4"]


def _record(seed, digest, cycles):
    return {"seed": seed, "input_digest": digest, "counts": {"sim.cycles": cycles}}


def test_counts_must_follow_inputs_across_runs():
    mine = _record(1, "a", 1)
    assert check_against_records(mine, [_record(1, "a", 2)])  # same seed drifted
    assert check_against_records(mine, [_record(2, "a", 2)])  # same inputs
    assert check_against_records(mine, [_record(2, "b", 1)])  # inputs ignored
    assert check_against_records(mine, [_record(1, "a", 1), _record(2, "b", 2)]) == []


# -- plans -----------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["sweep-cold", "explore-native", "serve-mixed"])
def test_plans_are_pure_functions_of_the_seed(workload):
    assert make_plan(workload, 3, 30) == make_plan(workload, 3, 30)
    digests = {make_plan(workload, seed, 30)["input_digest"] for seed in range(8)}
    assert len(digests) > 1


def test_sweep_draws_one_kernel_per_stratum_and_round():
    kernels = make_plan("sweep-cold", 5, 30)["kernels"]
    assert len(kernels) == len(set(kernels))
    for stratum in SWEEP_STRATA:
        assert len([k for k in kernels if k in stratum]) == min(2, len(stratum))


def test_serve_plan_keeps_every_pair_session_in_order():
    session = [(kind, mode) for kind, mode, count in SERVE_SESSION for _ in range(count)]
    for seed in range(5):
        plan = make_plan("serve-mixed", seed, 30)
        jobs = plan["jobs"]
        assert set(plan["sequence"]) == set(range(len(jobs)))
        per_pair: dict = {}
        for index in plan["sequence"]:
            job = jobs[index]
            per_pair.setdefault((job["machine"], job["kernel"]), []).append(
                (job["kind"], job.get("mode")))
        assert len(per_pair) == 13 * len(plan["kernels"])
        assert all(requests == session for requests in per_pair.values())
        # 3 misses (first compile, fast and turbo run) and 44 hits per pair
        assert len(jobs) == 3 * len(per_pair)
        assert len(plan["sequence"]) == 47 * len(per_pair)


def _timed(slowdown):
    ops = [{"lat_ms": lat, "slowdown": slowdown, "miss": lat > 5, "problems": []}
           for lat in (2.0, 4.0, 10.0)]
    return {"ops": ops, "timed_s": 0.016, "peak_rss_mb": 1.0}


def test_reported_metrics_match_benchmark_json():
    from run import LAYER_UNITS, end_to_end

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    setup = [{"setup_s": 1.0, "setup_slowdown": 1.0}]
    reported = {name: unit for name, (_value, unit) in end_to_end(_timed(1.0), setup).items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == reported


def test_a_uniformly_slower_host_reports_the_same_times():
    from run import end_to_end

    fast = end_to_end(_timed(1.0), [{"setup_s": 0.2, "setup_slowdown": 1.0}])
    slow = _timed(1.5)
    for op in slow["ops"]:
        op["lat_ms"] *= 1.5
    slow["timed_s"] *= 1.5
    slow = end_to_end(slow, [{"setup_s": 0.3, "setup_slowdown": 1.5}])
    for name, (value, _unit) in fast.items():
        assert slow[name][0] == pytest.approx(value), name


def test_op_slowdown_uses_the_probes_around_the_op():
    probes = [(0.0, NOMINAL_PROBE_S), (0.1, NOMINAL_PROBE_S),
              (5.0, 2 * NOMINAL_PROBE_S), (5.2, 2 * NOMINAL_PROBE_S)]
    assert op_slowdowns([(0.0, 0.2), (4.9, 5.1), (2.0, 2.1)], probes) == [
        pytest.approx(1.0), pytest.approx(2.0), pytest.approx(1.0)]


# -- trace accounting ------------------------------------------------------------


def _span(i, name, parent, start, end):
    return {"id": i, "name": name, "parent": parent, "op": 0, "start": start, "end": end}


def test_self_times_subtract_children():
    spans = [_span(0, "bench.workload", None, 0.0, 10.0),
             _span(1, "pipeline.sweep_tasks", 0, 1.0, 9.0),
             _span(2, "frontend", 1, 2.0, 5.0),
             _span(3, "ir", 2, 3.0, 4.0)]
    own = self_times(spans)
    assert own == {0: 2.0, 1: 5.0, 2: 2.0, 3: 1.0}
    totals = bucket_totals(spans)
    assert totals["frontend"] == 2.0 and totals["ir"] == 1.0
    assert totals["pipeline.orchestration"] == 5.0
    assert totals["bench.unattributed"] == 2.0
    assert sum(totals.values()) == 10.0
    assert set(totals) == set(SELF_METRICS)


def test_foreign_spans_nest_under_the_request_that_holds_them():
    spans = [_span(0, "bench.workload", None, 0.0, 10.0),
             _span(1, "serve.request", 0, 1.0, 2.0),
             _span(2, "serve.request", 0, 3.0, 4.0)]
    spans[2]["op"] = 7
    foreign = [_span(0, "pipeline.fingerprint", None, 3.1, 3.2),
               _span(1, "pipeline.store_read", None, 3.3, 3.9),
               _span(2, "pipeline.store_read", 1, 3.4, 3.5),
               _span(3, "pipeline.store_read", None, 9.0, 11.0)]  # after the phase
    assert adopt(spans, foreign, "serve.request") == 3
    assert [(s["name"], s["parent"], s["op"]) for s in spans[3:]] == [
        ("pipeline.fingerprint", 2, 7), ("pipeline.store_read", 2, 7),
        ("pipeline.store_read", 4, 7)]
    totals = bucket_totals(spans)
    assert totals["serve.client"] == pytest.approx(2.0 - 0.1 - 0.6)
    assert totals["pipeline.store_read"] == pytest.approx(0.6)
    assert sum(totals.values()) == pytest.approx(10.0)


def test_unknown_span_has_no_bucket():
    with pytest.raises(ValueError):
        bucket_totals([_span(0, "mystery", None, 0.0, 1.0)])


def test_recorder_is_inert_until_active():
    rec = Recorder()
    with rec.span("frontend"):
        pass
    assert rec.spans == []
    rec.active = True
    with rec.span("frontend") as record:
        pass
    assert rec.spans == [record] and record["end"] >= record["start"]


def test_percentile_inclusive():
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert percentile([5.0], 90) == 5.0
    assert percentile([float(i) for i in range(11)], 90) == pytest.approx(9.0)


# -- active layers ---------------------------------------------------------------


def test_a_layer_reading_zero_fails():
    layers = dict.fromkeys(ACTIVE_LAYERS["sweep-cold"], 1.0)
    assert inactive_layers("sweep-cold", layers) == []
    layers["frontend.self_s"] = 0.0
    del layers["backend.instrs"]
    assert inactive_layers("sweep-cold", layers) == ["frontend.self_s", "backend.instrs"]


def test_bypassed_wrapper_is_caught_on_a_real_sweep(tmp_path, monkeypatch):
    """A sweep whose frontend calls skip the wrapper (as a module-level
    ``from ... import`` would) reads 0 in frontend.* and fails the check."""
    pytest.importorskip("repro")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    import repro.frontend
    import worker

    from repro.pipeline import ArtifactStore, build_tasks, sweep_tasks

    rec = Recorder()
    hooks = worker.install_layer_spans(rec)
    monkeypatch.setattr(repro.frontend, "compile_source",
                        repro.frontend.compile_source.__wrapped__)
    tasks = build_tasks(["m-tta-2", "mblaze-3"], ["stress-2024-022"], mode="fast")
    rec.active = True
    try:
        with rec.span("bench.workload"):
            sweep_tasks(tasks, jobs=1, store=ArtifactStore(tmp_path))
    finally:
        rec.active = False
    layers = worker.layer_metrics(rec, hooks)
    layers["sim.cycles"] = 1
    assert inactive_layers("sweep-cold", layers) == ["frontend.calls", "frontend.self_s"]
