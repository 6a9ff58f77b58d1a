"""Every entry point that takes a simulation mode accepts exactly
:data:`repro.sim.MODES` (profiling: ``PROFILE_MODES``) and rejects any
other name -- notably the removed ``batch`` -- listing the known ones."""

from __future__ import annotations

import re
from types import SimpleNamespace

import pytest

import repro.cli as cli
import repro.corpus
from repro import build_machine, compile_for_machine, compile_source, pipeline
from repro.serve import normalize_params
from repro.sim import MODES, PROFILE_MODES, TTASimulator, VLIWSimulator
from repro.sim import run_compiled
from repro.sim import run_compiled_profiled


SOURCE = "int main(void){ int s = 0; for (int i = 0; i < 4; i++) s += i; return s - 6; }"


def _compiled(machine_name):
    return compile_for_machine(compile_source(SOURCE), build_machine(machine_name))


def _scalar_sweep(mode, ctx):
    """Library sweep over a scalar-only matrix: every pair must run."""
    outcome = pipeline.sweep(machines=["mblaze-3"], sources={"tiny": SOURCE},
                             mode=mode, use_cache=False)
    assert not outcome.errors, outcome.errors


def _cli(ctx, *argv):
    """Run the CLI; a rejected command line (exit 2) raises its error line."""
    try:
        status = cli.main(list(argv))
    except SystemExit as exc:
        status = exc.code
    err = ctx.capsys.readouterr().err
    if status == 2:
        raise ValueError(err.strip().splitlines()[-1])
    assert status == 0, err


def _parsed(command, *argv):
    """``repro ARGV MODE`` with the command itself stubbed out."""
    def attempt(mode, ctx):
        ctx.monkeypatch.setattr(cli, command, lambda args: 0)
        _cli(ctx, *argv, mode)
    return attempt


def _promote(mode, ctx):
    ctx.monkeypatch.setattr(repro.corpus, "promote",
                            lambda config, log: SimpleNamespace(selected=[]))
    _cli(ctx, "corpus", "promote", "-q", "--modes", mode)


ENTRY_POINTS = {
    "TTASimulator": (MODES, lambda mode, ctx: TTASimulator(
        _compiled("m-tta-2").program, mode=mode)),
    "VLIWSimulator": (MODES, lambda mode, ctx: VLIWSimulator(
        _compiled("m-vliw-2").program, mode=mode)),
    # the scalar core has one engine, yet the mode name is still checked
    "run_compiled (scalar)": (MODES, lambda mode, ctx: run_compiled(
        _compiled("mblaze-3"), mode=mode)),
    "sweep (scalar)": (MODES, _scalar_sweep),
    "run_compiled_profiled": (PROFILE_MODES, lambda mode, ctx: run_compiled_profiled(
        _compiled("m-tta-2"), mode=mode)),
    "cli run --mode": (MODES, _parsed("_cmd_run", "run", "prog.mc", "--mode")),
    "cli sweep --mode": (MODES, _parsed("_cmd_sweep", "sweep", "--mode")),
    "cli explore --mode": (MODES, _parsed("_cmd_explore", "explore", "--mode")),
    "cli fuzz --modes": (MODES, lambda mode, ctx: _cli(
        ctx, "fuzz", "--count", "0", "--no-cache", "-q",
        "--corpus-dir", str(ctx.tmp_path), "--modes", mode)),
    "cli corpus promote --modes": (MODES, _promote),
    # the request validation behind the 400 (BadJob is a ValueError)
    "serve /v1/run": (MODES, lambda mode, ctx: normalize_params(
        "run", {"machine": "m-tta-2", "kernel": "mips", "mode": mode})),
    "serve /v1/sweep": (MODES, lambda mode, ctx: normalize_params(
        "sweep", {"machines": ["m-tta-2"], "kernels": ["mips"], "mode": mode})),
}


@pytest.fixture()
def ctx(capsys, monkeypatch, tmp_path):
    return SimpleNamespace(capsys=capsys, monkeypatch=monkeypatch, tmp_path=tmp_path)


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_point_accepts_exactly_the_mode_table(entry, ctx):
    known, attempt = ENTRY_POINTS[entry]
    for mode in known:
        attempt(mode, ctx)
    for mode in ("batch", *(m for m in MODES if m not in known)):
        with pytest.raises(ValueError) as err:
            attempt(mode, ctx)
        # the rejected name, then every known one in table order (each
        # entry point words the list its own way)
        named = re.findall(rf"\b({'|'.join((*MODES, 'batch'))})\b", str(err.value))
        assert mode in named, err.value
        assert [m for m in named if m != mode] == list(known), err.value


def test_run_has_no_batch_flag(ctx):
    with pytest.raises(ValueError, match="unrecognized arguments: --batch"):
        _cli(ctx, "run", "prog.mc", "--batch", "4")
