"""Observability layer tests: tracer mechanics, exporters, stack
instrumentation, pipeline aggregation and the CLI trace surface.

The two structural properties the layer guarantees:

* **disabled = no-op**: with no tracer installed, ``obs.span`` returns
  the shared ``NOOP_SPAN`` singleton and counters/gauges return
  immediately (the <2% throughput bound is asserted by
  ``benchmarks/bench_sim_throughput.py``);
* **enabled = byte-identical**: every architectural statistic is
  identical with tracing on, off, and across engines — the counters are
  derived from statistics the engines already compute, after the run.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro import build_machine, compile_for_machine, compile_source, obs
from repro.cli import main
from repro.sim import run_compiled
from repro.sim.counters import STAT_FIELDS, record_run

SRC = """
int main(void){
    int i; int s = 0;
    for (i = 0; i < 8; i++) s += i * 3;
    return s - 84;
}
"""


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing disabled."""
    obs.disable()
    yield
    obs.disable()


# ---------------------------------------------------------------------------
# tracer mechanics
# ---------------------------------------------------------------------------


class TestTracerCore:
    def test_disabled_fast_path_is_the_noop_singleton(self):
        assert not obs.enabled()
        assert obs.current() is None
        # identity, not equality: the disabled path allocates nothing
        assert obs.span("anything", key="value") is obs.NOOP_SPAN
        assert obs.span("other") is obs.NOOP_SPAN
        obs.count("nope", 5)  # no-ops, no error
        obs.gauge("nope", 1.0)
        with obs.span("still.noop"):
            pass

    def test_enable_disable_lifecycle(self):
        tracer = obs.enable()
        assert obs.enabled() and obs.current() is tracer
        with pytest.raises(RuntimeError, match="already enabled"):
            obs.enable()
        assert obs.disable() is tracer
        assert not obs.enabled()
        assert obs.disable() is None  # idempotent

    def test_tracing_context_manager(self):
        with obs.tracing() as tracer:
            obs.count("x")
            assert obs.current() is tracer
        assert not obs.enabled()
        assert tracer.counters == {"x": 1}

    def test_span_nesting_records_depth_and_completion_order(self):
        with obs.tracing() as tracer:
            with obs.span("outer", phase="a"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
        names = [(s["name"], s["depth"]) for s in tracer.spans]
        # children complete before the parent
        assert names == [("inner", 1), ("inner", 1), ("outer", 0)]
        outer = tracer.spans[-1]
        assert outer["args"] == {"phase": "a"}
        for rec in tracer.spans:
            assert rec["dur"] >= 0.0 and rec["ts"] >= 0.0

    def test_span_depth_restored_on_exception(self):
        with obs.tracing() as tracer:
            with pytest.raises(ValueError):
                with obs.span("failing"):
                    raise ValueError("boom")
            with obs.span("after"):
                pass
        assert [s["depth"] for s in tracer.spans] == [0, 0]

    def test_counters_accumulate_gauges_overwrite(self):
        with obs.tracing() as tracer:
            obs.count("c")
            obs.count("c", 4)
            obs.gauge("g", 1.5)
            obs.gauge("g", 2.5)
        assert tracer.counters == {"c": 5}
        assert tracer.gauges == {"g": 2.5}

    def test_payload_roundtrip_is_json_safe(self):
        with obs.tracing(obs.Tracer(process="unit")) as tracer:
            with obs.span("s", k=1):
                obs.count("n", 2)
        payload = tracer.to_payload()
        assert obs.Tracer.validate_payload(payload) is payload
        rt = json.loads(json.dumps(payload))
        assert rt == payload
        assert rt["process"] == "unit"
        assert rt["schema"] == obs.PAYLOAD_SCHEMA

    def test_validate_payload_rejects_malformed(self):
        with pytest.raises(ValueError, match="must be a dict"):
            obs.Tracer.validate_payload([])
        with pytest.raises(ValueError, match="schema mismatch"):
            obs.Tracer.validate_payload({"schema": -1})
        bad = obs.Tracer().to_payload()
        bad["spans"] = "nope"
        with pytest.raises(ValueError, match="spans"):
            obs.Tracer.validate_payload(bad)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


def _payload(process: str, counters=None, gauges=None, origin=0.0):
    tracer = obs.Tracer(process=process)
    tracer._origin_epoch_us = origin
    for name, value in (counters or {}).items():
        tracer.count(name, value)
    for name, value in (gauges or {}).items():
        tracer.gauge(name, value)
    with tracer.span("work"):
        pass
    return tracer.to_payload()


class TestExport:
    def test_merge_sums_counters_last_wins_gauges(self):
        merged = obs.merge_payloads(
            [
                _payload("a", {"x": 1, "y": 2}, {"g": 1.0}),
                _payload("b", {"x": 10}, {"g": 9.0, "h": 3.0}),
            ]
        )
        assert merged["counters"] == {"x": 11, "y": 2}
        assert merged["gauges"] == {"g": 9.0, "h": 3.0}
        assert [p["process"] for p in merged["payloads"]] == ["a", "b"]

    def test_chrome_trace_structure(self):
        p1 = _payload("w1", origin=100.0)
        p2 = _payload("w2", origin=250.5)
        doc = obs.to_chrome_trace([p1, p2])
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta} == {"w1", "w2"}
        assert {e["pid"] for e in spans} == {1, 2}
        # alignment: the earliest origin is the zero point, and every
        # payload's spans are shifted by exactly its origin delta
        w1 = next(e for e in spans if e["pid"] == 1)
        w2 = next(e for e in spans if e["pid"] == 2)
        assert w1["ts"] == pytest.approx(p1["spans"][0]["ts"] + 0.0, abs=0.1)
        assert w2["ts"] == pytest.approx(p2["spans"][0]["ts"] + 150.5, abs=0.1)
        assert doc["repro"]["schema"] == obs.TRACE_DOC_SCHEMA

    def test_write_load_roundtrip(self, tmp_path):
        doc = obs.to_chrome_trace([_payload("p")])
        path = obs.write_trace(tmp_path / "t.json", doc)
        assert obs.load_trace(path) == doc

    def test_write_trace_propagates_oserror(self, tmp_path):
        doc = obs.to_chrome_trace([_payload("p")])
        with pytest.raises(OSError):
            obs.write_trace(tmp_path / "missing-dir" / "t.json", doc)

    def test_load_trace_rejects_garbage(self, tmp_path):
        with pytest.raises(OSError):
            obs.load_trace(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        with pytest.raises(ValueError, match="not JSON"):
            obs.load_trace(bad)
        bad.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="traceEvents"):
            obs.load_trace(bad)
        bad.write_text('{"traceEvents": [], "repro": {"schema": -5}}')
        with pytest.raises(ValueError, match="side table"):
            obs.load_trace(bad)

    def test_summarize_and_format(self):
        doc = obs.to_chrome_trace(
            [_payload("a", {"n": 2}), _payload("b", {"n": 3})]
        )
        summary = obs.summarize(doc)
        row = next(r for r in summary["spans"] if r["name"] == "work")
        assert row["count"] == 2
        assert row["total_us"] >= row["max_us"] >= row["mean_us"] >= 0
        assert summary["counters"] == {"n": 5}
        text = obs.format_summary(summary)
        assert "work" in text and "2 process(es)" in text and "n" in text

    @staticmethod
    def _doc(spans):
        payload = _payload("p")
        payload["spans"] = [
            {"name": name, "ts": ts, "dur": dur, "depth": depth}
            for name, ts, dur, depth in spans
        ]
        return obs.to_chrome_trace([payload])

    def test_summary_self_time_subtracts_direct_children(self):
        # completion order, as the tracer records them
        doc = self._doc([
            ("leaf", 12.0, 3.0, 2),
            ("child", 10.0, 20.0, 1),
            ("child", 40.0, 30.0, 1),
            ("root", 0.0, 100.0, 0),
        ])
        rows = {r["name"]: r for r in obs.summarize(doc)["spans"]}
        assert rows["root"]["self_us"] == 50.0  # 100 - (20 + 30)
        assert rows["child"]["self_us"] == 47.0  # (20 - 3) + 30
        assert rows["child"]["total_us"] == 50.0
        assert rows["leaf"]["self_us"] == 3.0
        assert sum(r["self_us"] for r in rows.values()) == rows["root"]["total_us"]
        assert "self" in obs.format_summary(obs.summarize(doc))

    def test_summary_self_time_keeps_siblings_apart(self):
        # a child starting at its parent's ts, and siblings that touch
        doc = self._doc([
            ("a.child", 5.0, 2.0, 1),
            ("a", 5.0, 4.0, 0),
            ("b.child", 9.0, 1.0, 1),
            ("b", 9.0, 6.0, 0),
        ])
        rows = {r["name"]: r["self_us"] for r in obs.summarize(doc)["spans"]}
        assert rows == {"a": 2.0, "a.child": 2.0, "b": 5.0, "b.child": 1.0}


# ---------------------------------------------------------------------------
# stack instrumentation
# ---------------------------------------------------------------------------


class TestStackInstrumentation:
    @pytest.mark.parametrize("machine_name", ("m-tta-2", "m-vliw-2", "mblaze-3"))
    def test_compile_and_run_emit_expected_spans(self, machine_name):
        machine = build_machine(machine_name)
        with obs.tracing() as tracer:
            compiled = compile_for_machine(compile_source(SRC), machine)
            result = run_compiled(compiled)
        assert result.exit_code == 0
        names = {s["name"] for s in tracer.spans}
        assert {"frontend.parse", "frontend.sema", "frontend.irgen",
                "ir.optimize", "backend.lower", "backend.regalloc",
                "backend.link", "sim.run"} <= names
        assert any(n.startswith("ir.pass.") for n in names)
        if machine_name == "m-tta-2":
            assert "backend.schedule_tta" in names
        elif machine_name == "m-vliw-2":
            assert "backend.schedule_vliw" in names
        # scheduler + simulator counters are populated and plausible
        counters = tracer.counters
        assert counters["sched.instrs"] > 0
        assert counters["sim.runs"] == 1
        assert counters["sim.cycles"] == result.cycles
        if machine_name == "m-tta-2":
            assert counters["sched.moves"] > 0
            assert counters["sim.moves"] == result.moves
            assert counters["sim.bypass_reads"] == result.bypass_reads
        assert counters["regalloc.intervals"] > 0

    def test_stats_byte_identical_traced_vs_untraced(self):
        """The determinism guarantee: tracing perturbs nothing."""
        for machine_name in ("m-tta-2", "m-vliw-2", "mblaze-3"):
            machine = build_machine(machine_name)
            compiled = compile_for_machine(compile_source(SRC), machine)
            untraced = asdict(run_compiled(compiled))
            with obs.tracing():
                traced = asdict(run_compiled(compiled))
            assert traced == untraced, machine_name

    def test_stats_byte_identical_across_engines_while_traced(self):
        machine = build_machine("m-tta-2")
        compiled = compile_for_machine(compile_source(SRC), machine)
        reference = asdict(run_compiled(compiled, mode="checked"))
        with obs.tracing():
            for mode in ("fast", "turbo"):
                assert asdict(run_compiled(compiled, mode=mode)) == reference

    def test_turbo_and_predecode_cache_counters(self):
        """turbo runs the fast stepper: no block codegen, and a second run
        of one program reuses its static decode."""
        machine = build_machine("m-tta-2")
        compiled = compile_for_machine(compile_source(SRC), machine)
        with obs.tracing() as cold:
            run_compiled(compiled, mode="turbo")
        assert not [name for name in cold.counters if name.startswith("sim.turbo.")]
        assert not [sp for sp in cold.spans if sp["name"].endswith(".codegen")]
        assert cold.counters["sim.predecode.cache_misses"] == 1
        with obs.tracing() as warm:
            run_compiled(compiled, mode="turbo")
        assert warm.counters["sim.predecode.cache_hits"] >= 1
        assert "sim.predecode.cache_misses" not in warm.counters

    @pytest.mark.parametrize("machine_name", ["m-tta-2", "m-vliw-2"])
    def test_predecode_span_only_on_a_cache_miss(self, machine_name):
        compiled = compile_for_machine(compile_source(SRC), build_machine(machine_name))
        style = compiled.machine.style.value
        for expected in (1, 0):
            with obs.tracing() as tracer:
                run_compiled(compiled, mode="fast")
            spans = [sp for sp in tracer.spans if sp["name"] == "sim.predecode"]
            assert len(spans) == expected
            assert all(sp["args"]["style"] == style for sp in spans)
            assert tracer.counters.get("sim.predecode.cache_misses", 0) == expected

    def test_record_run_folds_only_present_fields(self):
        class FakeResult:
            cycles = 10
            moves = 4
            bundles = None

        record_run(FakeResult(), "tta")  # disabled: no-op, no error
        with obs.tracing() as tracer:
            record_run(FakeResult(), "tta")
        assert tracer.counters == {
            "sim.runs": 1,
            "sim.runs.tta": 1,
            "sim.cycles": 10,
            "sim.moves": 4,
        }
        assert set(STAT_FIELDS) >= {"moves", "bundles", "instructions"}


# ---------------------------------------------------------------------------
# pipeline aggregation + EvalResult extras
# ---------------------------------------------------------------------------


class TestPipelineAggregation:
    @pytest.fixture(scope="class")
    def traced_outcome(self):
        from repro.pipeline import sweep

        return sweep(
            machines=("m-tta-1",),
            kernels=("tiny",),
            sources={"tiny": SRC},
            use_cache=False,
            trace=True,
        )

    def test_sweep_collects_worker_payloads(self, traced_outcome):
        assert len(traced_outcome.traces) == 1
        payload = obs.Tracer.validate_payload(traced_outcome.traces[0])
        names = {s["name"] for s in payload["spans"]}
        assert "task.execute" in names and "sim.run" in names
        assert payload["counters"]["sched.instrs"] > 0

    def test_serial_traced_sweep_leaves_no_tracer_behind(self, traced_outcome):
        # the in-process worker parks/restores the ambient tracer
        assert not obs.enabled()

    def test_extras_populated_and_whitelisted(self, traced_outcome):
        result = traced_outcome.results[("m-tta-1", "tiny")]
        assert result.extras  # TTA: transport + RF traffic counters
        assert set(result.extras) <= set(STAT_FIELDS)
        assert result.extras["moves"] > 0
        assert result.extras["rf_writes"] > 0

    def test_extras_survive_the_result_schema_roundtrip(self, traced_outcome):
        from repro.pipeline.types import EvalResult

        result = traced_outcome.results[("m-tta-1", "tiny")]
        assert EvalResult.from_dict(result.to_dict()) == result

    def test_parallel_traced_sweep_ships_per_process_payloads(self):
        from repro.pipeline import sweep

        outcome = sweep(
            machines=("m-tta-1",),
            kernels=("a", "b"),
            sources={"a": SRC, "b": SRC},
            use_cache=False,
            jobs=2,
            trace=True,
        )
        assert outcome.ok and len(outcome.traces) == 2
        doc = obs.to_chrome_trace(outcome.traces)
        processes = {
            e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
        }
        assert len(processes) == 2  # one per worker, named by pid + pair

    def test_failing_task_still_ships_its_payload(self):
        from repro.pipeline import TaskError, run_tasks, build_tasks, TracedOutcome

        tasks = build_tasks(
            machines=("m-tta-1",), sources={"bad": "int main( {"}
        )
        [traced] = run_tasks(tasks, retries=0, trace=True)
        assert isinstance(traced, TracedOutcome)
        assert isinstance(traced.outcome, TaskError)
        payload = obs.Tracer.validate_payload(traced.trace)
        assert any(s["name"] == "task.execute" for s in payload["spans"])

    def test_serial_sweep_runs_each_kernels_front_half_once(self):
        from repro.pipeline import sweep
        from repro.pipeline.executor import optimized_module

        optimized_module.cache_clear()
        other = SRC.replace("i < 8", "i < 4").replace("84", "18")
        outcome = sweep(
            machines=("m-tta-2", "m-vliw-2", "mblaze-3"),
            kernels=("k1", "k2"),
            sources={"k1": SRC, "k2": other},
            use_cache=False,
            trace=True,
        )
        assert outcome.ok and len(outcome.traces) == 6
        summary = obs.summarize(obs.to_chrome_trace(outcome.traces))
        rows = {r["name"]: r["count"] for r in summary["spans"]}
        assert rows["frontend.parse"] == 2
        assert rows["ir.optimize"] == 2
        assert summary["counters"]["frontend.module_reuse"] == 4

    def test_untraced_sweep_collects_nothing(self):
        from repro.pipeline import sweep

        outcome = sweep(
            machines=("m-tta-1",),
            kernels=("tiny",),
            sources={"tiny": SRC},
            use_cache=False,
        )
        assert outcome.ok and outcome.traces == []

    def test_traffic_table_surfaces_extras(self):
        from repro.eval import traffic_table
        from repro.eval.runner import sweep_cache_clear

        sweep_cache_clear()
        rows = traffic_table(kernels=("mips",), machines=("m-tta-1", "mblaze-3"))
        by_machine = {r["machine"]: r for r in rows}
        tta = by_machine["m-tta-1"]
        assert tta["moves"] > 0 and tta["rf_writes"] > 0
        assert tta["bypass_pct"] != ""
        scalar = by_machine["mblaze-3"]
        assert scalar["instructions"] > 0
        assert scalar["moves"] == ""  # no transport network


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCLITrace:
    @pytest.fixture()
    def minic_file(self, tmp_path):
        path = tmp_path / "prog.mc"
        path.write_text(SRC)
        return str(path)

    def test_run_trace_writes_a_loadable_document(self, minic_file, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["run", minic_file, "-m", "m-tta-1", "--trace", str(out)]) == 0
        captured = capsys.readouterr()
        assert "trace:" in captured.err
        doc = obs.load_trace(out)
        summary = obs.summarize(doc)
        assert any(r["name"] == "sim.run" for r in summary["spans"])
        assert summary["counters"]["sim.cycles"] > 0

    def test_run_trace_unwritable_path_exits_2(self, minic_file, tmp_path, capsys):
        dest = tmp_path / "no-such-dir" / "t.json"
        assert main(["run", minic_file, "-m", "m-tta-1", "--trace", str(dest)]) == 2
        err = capsys.readouterr().err
        assert "error: cannot write trace" in err
        assert "Traceback" not in err

    def test_run_trace_compile_error_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.mc"
        bad.write_text("int main( {")
        out = tmp_path / "t.json"
        assert main(["run", str(bad), "--trace", str(out)]) == 2
        assert not out.exists()
        assert not obs.enabled()  # tracer released on the error path

    def test_sweep_trace_merges_driver_and_workers(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--machines", "m-tta-1", "--kernels", "mips,motion",
             "--no-cache", "-q", "--trace", str(out)]
        )
        assert code == 0
        doc = obs.load_trace(out)
        processes = {
            e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
        }
        assert "sweep driver" in processes
        assert len(processes) == 3  # driver + one payload per pair
        assert doc["repro"]["counters"]["sim.runs"] == 2
        assert doc["repro"]["counters"]["sched.moves"] > 0

    def test_sweep_trace_implies_refresh(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["sweep", "--machines", "m-tta-1", "--kernels", "mips",
                "--cache-dir", str(cache), "-q"]
        assert main(args) == 0  # warm the cache
        out = tmp_path / "warm.json"
        assert main([*args, "--trace", str(out)]) == 0
        # a warm cache would have produced zero worker payloads without
        # the implied refresh
        doc = obs.load_trace(out)
        assert len(doc["repro"]["payloads"]) == 2  # driver + 1 worker
        assert "computed" in capsys.readouterr().err

    def test_sweep_trace_unwritable_path_exits_2(self, tmp_path, capsys):
        dest = tmp_path / "no-such-dir" / "t.json"
        code = main(
            ["sweep", "--machines", "m-tta-1", "--kernels", "mips",
             "--no-cache", "-q", "--trace", str(dest)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: cannot write trace" in err
        assert "Traceback" not in err
        assert not obs.enabled()

    def test_trace_summary_renders(self, minic_file, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["run", minic_file, "-m", "m-tta-1", "--trace", str(out)]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(out)]) == 0
        text = capsys.readouterr().out
        assert "top spans" in text and "counters:" in text

    def test_trace_summary_json(self, minic_file, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["run", minic_file, "-m", "m-tta-1", "--trace", str(out)]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(out), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["processes"] and summary["spans"]

    def test_trace_summary_errors_exit_2(self, tmp_path, capsys):
        assert main(["trace", "summary", str(tmp_path / "absent.json")]) == 2
        assert "error: cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text('{"oops": true}')
        assert main(["trace", "summary", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
