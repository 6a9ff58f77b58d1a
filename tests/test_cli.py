"""CLI smoke tests."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.fixture()
def minic_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text("int main(void){ int i; int s=0; for(i=0;i<6;i++) s+=i; return s-15; }")
    return str(path)


class TestCLI:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "m-tta-2" in out and "MHz" in out

    def test_kernels(self, capsys):
        assert main(["kernels"]) == 0
        assert "sha" in capsys.readouterr().out

    def test_run_success(self, minic_file, capsys):
        assert main(["run", minic_file, "-m", "m-tta-1", "--mode", "checked"]) == 0
        out = capsys.readouterr().out
        assert "exit code : 0" in out
        assert "cycles" in out

    def test_run_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "fail.mc"
        path.write_text("int main(void){ return 7; }")
        assert main(["run", str(path), "-m", "mblaze-3"]) == 1

    def test_run_mode_turbo(self, minic_file, capsys):
        assert main(["run", minic_file, "-m", "m-tta-1", "--mode", "turbo"]) == 0
        out = capsys.readouterr().out
        assert "engine    : turbo" in out
        assert "exit code : 0" in out

    def test_run_scalar_honours_mode(self, minic_file, capsys):
        engines, others = {}, {}
        for mode in ("checked", "turbo", "native"):
            assert main(["run", minic_file, "-m", "mblaze-3", "--mode", mode]) == 0
            lines = capsys.readouterr().out.splitlines()
            engines[mode] = [line for line in lines if line.startswith("engine")]
            others[mode] = [line for line in lines if not line.startswith("engine")]
        assert engines["checked"] == ["engine    : checked"]
        assert engines["turbo"] == ["engine    : turbo"]
        assert "Python blocks" in engines["native"][0]
        # every other printed line is the same whatever the engine
        assert others["checked"] == others["turbo"] == others["native"]

    def test_run_profile(self, minic_file, capsys):
        assert main(
            ["run", minic_file, "-m", "m-tta-2", "--mode", "turbo", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "hot blocks" in out and "trigger histogram" in out

    def test_run_profile_rejects_scalar_and_checked(self, minic_file, capsys):
        assert main(["run", minic_file, "-m", "mblaze-3", "--profile"]) == 2
        assert "TTA and VLIW cores only" in capsys.readouterr().err
        assert main(["run", minic_file, "-m", "m-tta-1", "--mode", "checked", "--profile"]) == 2
        assert "fast, turbo or native engine" in capsys.readouterr().err

    def test_asm(self, minic_file, capsys):
        assert main(["asm", minic_file, "-m", "m-tta-2", "--count", "10"]) == 0
        out = capsys.readouterr().out
        assert "_start:" in out and "->" in out

    def test_synth(self, capsys):
        assert main(["synth", "m-vliw-3"]) == 0
        out = capsys.readouterr().out
        assert "core LUTs" in out

    def test_report_rejects_unknown_kernel(self, capsys):
        assert main(["report", "--kernels", "nope"]) == 2

    def test_report_rejects_unknown_machine(self, capsys):
        assert main(["report", "--machines", "nope"]) == 2
        assert "unknown machine" in capsys.readouterr().err


class TestSweepCLI:
    def test_sweep_subset(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--machines", "m-tta-1",
                "--kernels", "mips",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "m-tta-1" in captured.out and "cycles" in captured.out
        assert "1 computed" in captured.err
        # warm re-run serves from the store
        assert main(
            ["sweep", "--machines", "m-tta-1", "--kernels", "mips",
             "--cache-dir", str(tmp_path), "-q"]
        ) == 0
        assert "1 cached" in capsys.readouterr().err

    def test_sweep_json_output(self, tmp_path, capsys):
        import json

        rc = main(
            ["sweep", "--machines", "m-tta-1", "--kernels", "mips",
             "--cache-dir", str(tmp_path), "--json", "-q"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == []
        [result] = payload["results"]
        assert result["machine"] == "m-tta-1" and result["cycles"] > 0

    def test_sweep_clear_cache_and_no_cache(self, tmp_path, capsys):
        args = ["sweep", "--machines", "m-tta-1", "--kernels", "mips",
                "--cache-dir", str(tmp_path), "-q"]
        assert main(args) == 0
        assert main(args + ["--clear-cache"]) == 0
        assert "cleared 1 cache entries" in capsys.readouterr().err
        assert main(args + ["--no-cache"]) == 0
        assert "computed" in capsys.readouterr().err

    def test_sweep_rejects_unknown_machine(self, capsys):
        assert main(["sweep", "--machines", "nope"]) == 2
        assert "unknown machine" in capsys.readouterr().err

    def test_sweep_rejects_empty_subsets(self, capsys):
        # "" is an empty subset (an error), never "everything"
        assert main(["sweep", "--kernels", ""]) == 2
        assert "empty kernel subset" in capsys.readouterr().err
        assert main(["sweep", "--machines", ""]) == 2
        assert "empty machine subset" in capsys.readouterr().err

    def test_sweep_rejects_bad_jobs(self, capsys):
        for jobs in ("0", "-1"):
            assert main(["sweep", "--kernels", "mips", "--jobs", jobs]) == 2
            assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err


class TestRunErrorPaths:
    def test_run_missing_file(self, capsys):
        assert main(["run", "/no/such/file.mc", "-m", "m-tta-1"]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "file.mc" in err

    def test_run_compile_error_is_reported_not_raised(self, tmp_path, capsys):
        path = tmp_path / "broken.mc"
        path.write_text("int main( { return 0; }")
        assert main(["run", str(path), "-m", "m-tta-1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_unknown_machine_is_an_argparse_error(self, minic_file, capsys):
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(["run", minic_file, "-m", "nope"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_asm_missing_file(self, capsys):
        assert main(["asm", "/no/such/file.mc", "-m", "m-tta-2"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestFuzzCLI:
    def _fuzz(self, tmp_path, *extra):
        return main(
            [
                "fuzz", "--seed", "3", "--count", "2",
                "--machines", "m-tta-1,mblaze-3",
                "--modes", "checked,fast",
                "--no-cache", "-q",
                "--corpus-dir", str(tmp_path / "corpus"),
                *extra,
            ]
        )

    def test_fuzz_clean_campaign(self, tmp_path, capsys):
        assert self._fuzz(tmp_path) == 0
        captured = capsys.readouterr()
        assert "fuzzed 2 kernels (seed 3)" in captured.err
        assert "4/4 cases ok" in captured.err
        assert "diverged" in captured.err

    def test_fuzz_json_report(self, tmp_path, capsys):
        import json

        assert self._fuzz(tmp_path, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["seed"] == 3
        assert payload["cases_total"] == 4
        assert payload["machines"] == ["mblaze-3", "m-tta-1"]
        assert payload["modes"] == ["checked", "fast"]
        assert payload["divergences"] == []

    def test_fuzz_smoke_preset(self, tmp_path, capsys):
        rc = main(
            ["fuzz", "--smoke", "--machines", "m-tta-1", "--count", "1",
             "--no-cache", "-q", "--corpus-dir", str(tmp_path / "corpus")]
        )
        assert rc == 0
        assert "fuzzed 1 kernels" in capsys.readouterr().err

    def test_fuzz_progress_lines(self, tmp_path, capsys):
        rc = main(
            ["fuzz", "--seed", "1", "--count", "1", "--machines", "m-tta-1",
             "--modes", "fast", "--no-cache",
             "--corpus-dir", str(tmp_path / "corpus")]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "[   1/1]" in err and "ok" in err

    def test_fuzz_rejects_negative_count(self, capsys):
        assert main(["fuzz", "--count", "-2"]) == 2
        assert "--count must be >= 0" in capsys.readouterr().err

    def test_fuzz_rejects_bad_time_budget(self, capsys):
        assert main(["fuzz", "--count", "1", "--time-budget", "0"]) == 2
        assert "--time-budget must be positive" in capsys.readouterr().err

    def test_fuzz_rejects_unknown_machine(self, capsys):
        assert main(["fuzz", "--count", "1", "--machines", "nope"]) == 2
        assert "unknown machine 'nope'" in capsys.readouterr().err

    def test_fuzz_rejects_bad_jobs(self, capsys):
        for jobs in ("0", "-3"):
            assert main(["fuzz", "--count", "1", "--jobs", jobs]) == 2
            assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    def test_fuzz_rejects_empty_subsets(self, capsys):
        assert main(["fuzz", "--count", "1", "--machines", ""]) == 2
        assert "empty machine subset" in capsys.readouterr().err
        assert main(["fuzz", "--count", "1", "--modes", ""]) == 2
        assert "empty mode subset" in capsys.readouterr().err

    def test_fuzz_zero_count_is_a_no_op_campaign(self, tmp_path, capsys):
        assert self._fuzz(tmp_path, "--count", "0") == 0
        assert "fuzzed 0 kernels" in capsys.readouterr().err


class TestExploreCLI:
    def test_explore_tiny_campaign_with_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "frontier.json"
        assert main([
            "explore", "--seed", "0", "--generations", "1", "--population", "2",
            "--base", "m-tta-1", "--kernels", "mips", "--mode", "fast",
            "--no-cache", "-q", "--out", str(out_file),
        ]) == 0
        captured = capsys.readouterr()
        assert "Pareto frontier" in captured.out
        assert "explored" in captured.err
        import json as _json

        payload = _json.loads(out_file.read_text())
        assert payload["schema_version"] == 1
        assert payload["frontier"]
        assert payload["config"]["seed"] == 0

    def test_explore_json_mode(self, capsys):
        assert main([
            "explore", "--generations", "0", "--population", "1",
            "--base", "m-tta-1", "--kernels", "mips", "--mode", "fast",
            "--no-cache", "-q", "--json",
        ]) == 0
        import json as _json

        payload = _json.loads(capsys.readouterr().out)
        assert [p["name"] for p in payload["frontier"]] == ["m-tta-1"]

    def test_explore_rejects_bad_inputs(self, capsys):
        assert main(["explore", "--base", "mblaze-3", "--no-cache", "-q"]) == 2
        assert "TTA" in capsys.readouterr().err
        assert main(["explore", "--kernels", "nope", "--no-cache", "-q"]) == 2
        assert "unknown kernel" in capsys.readouterr().err
        assert main(["explore", "--jobs", "0", "--no-cache", "-q"]) == 2
        assert "--jobs" in capsys.readouterr().err


#: every command taking --jobs, as (argv prefix, spelling of the flag)
JOBS_COMMANDS = [
    (["sweep"], "-j"),
    (["explore"], "-j"),
    (["fuzz"], "-j"),
    (["corpus", "promote"], "-j"),
    (["corpus", "replay"], "-j"),
    (["corpus", "pin"], "-j"),
    (["serve"], "--jobs"),
]

MACHINES_COMMANDS = [
    ["report"],
    ["sweep"],
    ["fuzz"],
    ["corpus", "promote"],
    ["corpus", "replay"],
    ["corpus", "pin"],
]


class TestSharedFlagChecks:
    """Each shared flag is checked the same way on every command that
    takes it (exit 2 and a message, before any work starts)."""

    @pytest.mark.parametrize(("command", "flag"), JOBS_COMMANDS,
                             ids=[" ".join(c) for c, _ in JOBS_COMMANDS])
    def test_zero_jobs_rejected(self, command, flag, capsys):
        assert main([*command, flag, "0"]) == 2
        assert "--jobs must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", MACHINES_COMMANDS,
                             ids=[" ".join(c) for c in MACHINES_COMMANDS])
    def test_unknown_machine_rejected(self, command, capsys):
        assert main([*command, "--machines", "nope"]) == 2
        assert "unknown machine" in capsys.readouterr().err

    @pytest.mark.parametrize(("argv", "message"), [
        (["sweep", "--retries", "-1"], "error: --retries must be >= 0, got -1"),
        (["serve", "--max-body", "0"], "error: --max-body must be >= 1, got 0"),
        (["serve", "--drain-grace", "-1"], "error: --drain-grace must be >= 0, got -1.0"),
        (["asm", "f.mc", "-m", "m-tta-2", "--start", "-5"],
         "error: --start must be >= 0, got -5"),
        (["asm", "f.mc", "-m", "m-tta-2", "--count", "-3"],
         "error: --count must be >= 1, got -3"),
    ])
    def test_numeric_ranges_rejected(self, argv, message, capsys, monkeypatch):
        import repro.cli as cli

        # a value that slipped through must not start a sweep or a server
        monkeypatch.setattr(cli, f"_cmd_{argv[0]}", lambda args: 0)
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_import_does_not_load_numpy():
    """``import repro.cli`` in a fresh interpreter leaves numpy unloaded."""
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = f"import sys; sys.path.insert(0, {src!r}); import repro.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
