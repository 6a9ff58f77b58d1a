"""The stress-benchmark corpus subsystem (:mod:`repro.corpus`).

Covers the promotion pipeline (determinism across processes and hash
seeds), the golden format (checksums, corruption, schema), drift
detection (an injected stats perturbation must fail replay with a
readable diff), and the kernel catalog (promoted kernels addressable
via ``repro.kernels.load``, ambiguity/duplicate handling).

The promotion fixture runs a deliberately tiny campaign (one scoring
machine, one pinned machine) so tier-1 stays fast; the full 13-machine
x 5-engine replay runs as its own CI step (``repro corpus replay``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus import (
    GoldenError,
    PromoteConfig,
    discover_entries,
    load_golden,
    promote,
    replay_entries,
)
from repro.corpus.goldens import _checksum, golden_path_for, make_golden, save_golden
from repro.corpus.replay import pin_entry
from repro.corpus.score import KernelTraits, select_diverse
from repro.sim import MODES

PIN_MACHINES = ("m-tta-2",)


@pytest.fixture(scope="module")
def promoted(tmp_path_factory):
    """A small promoted corpus: 2 kernels pinned on one machine."""
    out = tmp_path_factory.mktemp("promoted")
    report = promote(
        PromoteConfig(seed=5, count=3, target=2, machines=PIN_MACHINES, out_dir=out)
    )
    assert len(report.selected) == 2
    return out


def _replay(out: Path):
    entries = discover_entries(
        promoted_dir=out, corpus_dir=out / "no-regressions", include_builtin=False
    )
    return entries, replay_entries(entries)


class TestPromotion:
    def test_writes_mc_meta_and_golden_per_kernel(self, promoted):
        mcs = sorted(p.name for p in promoted.glob("*.mc"))
        assert len(mcs) == 2
        for mc in promoted.glob("*.mc"):
            assert mc.with_suffix(".json").exists()
            golden = load_golden(golden_path_for(mc))
            assert tuple(golden["machines"]) == PIN_MACHINES
            runs = golden["machines"]["m-tta-2"]
            assert set(runs) == set(MODES)
            for record in runs.values():
                assert record["exit_code"] == golden["expected_exit"]
                assert record["cycles"] > 0

    def test_replay_passes_on_fresh_corpus(self, promoted):
        entries, report = _replay(promoted)
        assert len(entries) == 2 and all(e.ok for e in entries)
        assert report.ok, "\n".join(report.broken + report.drift)
        assert report.cases == 2

    def test_meta_has_no_timestamps(self, promoted):
        # byte-determinism: nothing time- or host-dependent may be
        # persisted anywhere in the corpus
        for sidecar in promoted.glob("*.json"):
            payload = json.loads(sidecar.read_text())
            assert not any("time" in k or "date" in k for k in payload), sidecar


class TestPromotionDeterminism:
    def test_byte_identical_across_hashseed_and_process(self, tmp_path):
        """Same seed -> byte-identical corpus under different PYTHONHASHSEED."""
        digests = []
        for hashseed, sub in (("0", "a"), ("4242", "b")):
            out = tmp_path / sub
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
            subprocess.run(
                [
                    sys.executable, "-m", "repro", "corpus", "promote",
                    "--seed", "5", "--count", "3", "--target", "2",
                    "--machines", "m-tta-2", "--out-dir", str(out), "-q",
                ],
                check=True,
                env=env,
                cwd=Path(__file__).resolve().parents[1],
            )
            digests.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert list(digests[0]) == list(digests[1])
        for name in digests[0]:
            assert digests[0][name] == digests[1][name], f"{name} differs"


class TestDriftDetection:
    def test_injected_stats_drift_fails_with_readable_diff(self, promoted, tmp_path):
        out = tmp_path / "drifted"
        out.mkdir()
        for p in promoted.iterdir():
            (out / p.name).write_bytes(p.read_bytes())
        victim = sorted(out.glob("*.golden.json"))[0]
        payload = json.loads(victim.read_text())
        record = payload["machines"]["m-tta-2"]["turbo"]
        record["cycles"] += 1
        # keep the checksum valid: this simulates the *engines* drifting
        # from a well-formed golden, not file corruption
        payload["checksum"] = _checksum(payload)
        victim.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

        entries, report = _replay(out)
        assert not report.ok
        assert any(
            "cycles" in line and "golden=" in line and "observed=" in line
            for line in report.drift
        ), report.drift
        # the drift names the kernel, machine and engine it blames
        assert any("m-tta-2/turbo" in line for line in report.drift), report.drift

    def test_exit_code_drift_is_detected(self, promoted, tmp_path):
        out = tmp_path / "exitdrift"
        out.mkdir()
        for p in promoted.iterdir():
            (out / p.name).write_bytes(p.read_bytes())
        victim = sorted(out.glob("*.golden.json"))[0]
        payload = json.loads(victim.read_text())
        payload["expected_exit"] = (payload["expected_exit"] + 1) % 2**32
        payload["checksum"] = _checksum(payload)
        victim.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

        _, report = _replay(out)
        assert not report.ok
        assert any("exit" in line for line in report.drift), report.drift


class TestGoldenIntegrity:
    def test_corrupted_golden_json_is_broken_not_skipped(self, promoted, tmp_path):
        out = tmp_path / "corrupt"
        out.mkdir()
        for p in promoted.iterdir():
            (out / p.name).write_bytes(p.read_bytes())
        victim = sorted(out.glob("*.golden.json"))[0]
        victim.write_text("{ not json at all")

        entries, report = _replay(out)
        assert not report.ok
        assert any("not valid JSON" in line for line in report.broken), report.broken
        # the intact entry still replays
        assert report.cases == 1

    def test_hand_edited_golden_fails_checksum(self, promoted, tmp_path):
        out = tmp_path / "tampered"
        out.mkdir()
        for p in promoted.iterdir():
            (out / p.name).write_bytes(p.read_bytes())
        victim = sorted(out.glob("*.golden.json"))[0]
        payload = json.loads(victim.read_text())
        payload["machines"]["m-tta-2"]["fast"]["cycles"] += 100  # no re-checksum
        victim.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

        with pytest.raises(GoldenError, match="checksum"):
            load_golden(victim)
        _, report = _replay(out)
        assert any("checksum" in line for line in report.broken), report.broken

    def test_source_edit_invalidates_golden(self, promoted, tmp_path):
        out = tmp_path / "srcdrift"
        out.mkdir()
        for p in promoted.iterdir():
            (out / p.name).write_bytes(p.read_bytes())
        victim = sorted(out.glob("*.mc"))[0]
        victim.write_text(victim.read_text() + "\n/* tweaked */\n")

        entries, _ = _replay(out)
        bad = [e for e in entries if not e.ok]
        assert len(bad) == 1 and "hash mismatch" in bad[0].error

    def test_missing_golden_is_loud(self, promoted, tmp_path):
        out = tmp_path / "missing"
        out.mkdir()
        for p in promoted.glob("*.mc"):
            (out / p.name).write_bytes(p.read_bytes())

        entries, report = _replay(out)
        assert entries and all(not e.ok for e in entries)
        assert all("missing golden" in line for line in report.broken)

    def test_golden_pinning_a_removed_mode_is_one_broken_line(self, tmp_path, capsys):
        """A golden pinned with a since-removed engine (``batch``) replays
        as one BROKEN line naming it, not one crash per pinned pair."""
        from repro.cli import main

        source = "int main(void){ int s = 0; for (int i = 0; i < 5; i++) s += i; return s; }"
        good = pin_entry("tiny", source, ("m-tta-2", "m-vliw-2"), modes=("checked",))
        runs = {m: {**r, "batch": r["checked"]} for m, r in good["machines"].items()}
        (tmp_path / "tiny.mc").write_text(source)
        save_golden(golden_path_for(tmp_path / "tiny.mc"), make_golden(
            "tiny", source, good["expected_exit"], runs, ("checked", "batch"),
            good["max_cycles"]))
        assert main(["corpus", "replay", "--promoted-dir", str(tmp_path), "--corpus-dir",
                     str(tmp_path / "none"), "--no-builtin", "-q"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("BROKEN:"), lines
        assert "'batch'" in lines[0] and "Traceback" not in lines[0]

    def test_save_refuses_stale_checksum(self, tmp_path):
        payload = make_golden("x", "int main(void){return 0;}", 0,
                              {"m-tta-2": {"fast": {"exit_code": 0}}},
                              ("fast",), 1000)
        payload["expected_exit"] = 1  # stale checksum now
        with pytest.raises(GoldenError, match="checksum"):
            save_golden(tmp_path / "x.golden.json", payload)


class TestKernelCatalog:
    def test_promoted_kernels_are_addressable(self, promoted, monkeypatch):
        from repro.kernels import catalog, load

        monkeypatch.setenv("REPRO_PROMOTED_CORPUS", str(promoted))
        names = catalog()
        stress = [n for n in names if n.startswith("stress-")]
        assert len(stress) == 2
        assert load(stress[0]).startswith("/*")

    def test_unknown_kernel_error_lists_promoted(self, promoted, monkeypatch):
        from repro.kernels import load

        monkeypatch.setenv("REPRO_PROMOTED_CORPUS", str(promoted))
        with pytest.raises(KeyError, match="stress-5-"):
            load("definitely-not-a-kernel")

    def test_promoted_shadowing_builtin_is_ambiguous(self, tmp_path, monkeypatch):
        from repro.kernels import load

        (tmp_path / "sha.mc").write_text("int main(void) { return 0; }")
        monkeypatch.setenv("REPRO_PROMOTED_CORPUS", str(tmp_path))
        with pytest.raises(KeyError, match="ambiguous"):
            load("sha")
        # the builtin remains reachable through kernel_source
        from repro.kernels import kernel_source

        assert "sha" in kernel_source("sha")[:200]

    def test_catalog_hides_shadowed_duplicates(self, tmp_path, monkeypatch):
        from repro.kernels import ALL_KERNELS, catalog

        (tmp_path / "sha.mc").write_text("int main(void) { return 0; }")
        monkeypatch.setenv("REPRO_PROMOTED_CORPUS", str(tmp_path))
        assert catalog() == ALL_KERNELS  # no duplicate 'sha' entry

    def test_sweep_rejects_unknown_and_ambiguous(self, tmp_path, monkeypatch):
        from repro.pipeline import resolve_kernel_sources

        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel_sources("nope")
        (tmp_path / "sha.mc").write_text("int main(void) { return 0; }")
        monkeypatch.setenv("REPRO_PROMOTED_CORPUS", str(tmp_path))
        with pytest.raises(ValueError, match="ambiguous"):
            resolve_kernel_sources("sha")

    def test_load_reads_at_most_one_promoted_file(self, promoted, monkeypatch):
        """A built-in reads no corpus file and a promoted kernel reads
        its own ``.mc`` only; neither lists the corpus, and the catalog
        lists it without reading any source."""
        from repro.kernels import catalog, load

        monkeypatch.setenv("REPRO_PROMOTED_CORPUS", str(promoted))
        reads, globs = [], []
        read_text, glob = Path.read_text, Path.glob

        def counting_read(self, *args, **kwargs):
            if promoted in self.parents:
                reads.append(self.name)
            return read_text(self, *args, **kwargs)

        def counting_glob(self, *args, **kwargs):
            globs.append(self)
            return glob(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read)
        monkeypatch.setattr(Path, "glob", counting_glob)
        name = sorted(p.stem for p in promoted.glob("*.mc"))[0]
        globs.clear()
        assert "sha" in load("sha")[:200]
        assert reads == [] and globs == []
        assert load(name) == read_text(promoted / f"{name}.mc")
        assert reads == [f"{name}.mc"] and globs == []
        reads.clear()
        assert name in catalog()
        assert reads == []

    @pytest.mark.parametrize("name", [
        "../outside", "..", "sub/inner", "/abs/outside", "out\0side", "a..b",
    ])
    def test_path_like_names_are_unknown_kernels(self, tmp_path, monkeypatch, name):
        """A name is one plain file name: a separator, ``..`` or NUL in
        it is an unknown kernel, and nothing outside the corpus is read."""
        from repro.kernels import load

        corpus = tmp_path / "corpus"
        (corpus / "sub").mkdir(parents=True)
        (corpus / "sub" / "inner.mc").write_text("int main(void) { return 1; }")
        (tmp_path / "outside.mc").write_text("int main(void) { return 2; }")
        monkeypatch.setenv("REPRO_PROMOTED_CORPUS", str(corpus))
        reads = []
        read_text = Path.read_text

        def counting_read(self, *args, **kwargs):
            reads.append(self)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read)
        with pytest.raises(KeyError, match="unknown kernel"):
            load(name)
        assert not any(tmp_path in path.parents for path in reads), reads

    def test_error_texts(self, tmp_path, monkeypatch):
        """The shadowing and unknown-kernel texts name the corpus
        directory and list every addressable kernel."""
        from repro.kernels import ALL_KERNELS, load

        (tmp_path / "sha.mc").write_text("int main(void) { return 0; }")
        (tmp_path / "zz-extra.mc").write_text("int main(void) { return 0; }")
        monkeypatch.setenv("REPRO_PROMOTED_CORPUS", str(tmp_path))
        with pytest.raises(KeyError) as ambiguous:
            load("sha")
        assert ambiguous.value.args[0] == (
            f"ambiguous kernel 'sha': a promoted corpus kernel in {tmp_path} "
            f"shadows the built-in; rename the promoted kernel"
        )
        with pytest.raises(KeyError) as unknown:
            load("nope")
        assert unknown.value.args[0] == (
            f"unknown kernel 'nope'; known: {ALL_KERNELS + ('zz-extra',)}"
        )

    def test_promoted_expected_exit_comes_from_golden(self, promoted, monkeypatch):
        from repro.kernels import expected_exit

        monkeypatch.setenv("REPRO_PROMOTED_CORPUS", str(promoted))
        name = sorted(p.stem for p in promoted.glob("*.mc"))[0]
        golden = load_golden(promoted / f"{name}.golden.json")
        assert expected_exit(name) == golden["expected_exit"]
        assert expected_exit("sha") == 0


class TestSelection:
    def _traits(self, name, **kw):
        base = dict(exit_code=0, cycles=100, branch_ops=0, loads=0, stores=0,
                    distinct_opcodes=10)
        base.update(kw)
        return KernelTraits(name=name, **base)

    def test_axes_pick_extremes(self):
        pool = [
            self._traits("branchy", branch_ops=900),
            self._traits("diverse", distinct_opcodes=40),
            self._traits("memory", loads=500, stores=500),
            self._traits("boring"),
        ]
        chosen = select_diverse(pool, 3)
        names = [t.name for t, _ in chosen]
        assert names == ["branchy", "diverse", "memory"]
        assert [axis for _, axis in chosen] == ["branchy", "fu-diverse", "mem-heavy"]

    def test_selection_is_order_independent(self):
        pool = [
            self._traits("a", branch_ops=5),
            self._traits("b", distinct_opcodes=30),
            self._traits("c", cycles=9999),
            self._traits("d", loads=50),
        ]
        fwd = select_diverse(pool, 4)
        rev = select_diverse(list(reversed(pool)), 4)
        assert [(t.name, a) for t, a in fwd] == [(t.name, a) for t, a in rev]

    def test_target_bounds_selection(self):
        pool = [self._traits(f"k{i}", cycles=i) for i in range(10)]
        assert len(select_diverse(pool, 4)) == 4
        assert len(select_diverse(pool, 0)) == 0
        assert len(select_diverse(pool, 99)) == 10  # exhausts the pool


class TestBuiltinGoldens:
    def test_fft_golden_ships_and_discovers_clean(self):
        entries = [
            e
            for e in discover_entries(
                promoted_dir="/nonexistent", corpus_dir="/nonexistent"
            )
            if e.group == "builtin"
        ]
        fft = [e for e in entries if e.name == "fft"]
        assert len(fft) == 1
        assert fft[0].ok, fft[0].error
        golden = fft[0].golden
        assert golden["expected_exit"] == 0
        assert len(golden["machines"]) == 13


class TestPinTargets:
    def test_pin_targets_match_discovered_entries(self):
        """`repro corpus pin` and replay walk the same kernels: every
        discovered golden is pinnable at the same path, and nothing else
        is (paper kernels pin only when named)."""
        from repro.corpus.replay import pin_targets
        from repro.machine import preset_names

        entries = discover_entries()
        targets = pin_targets(preset_names())
        assert entries
        assert sorted(targets) == sorted(e.name for e in entries)
        for entry in entries:
            assert targets[entry.name].golden_path == entry.golden_path, entry.name

    def test_pin_rules_per_group(self, promoted, tmp_path):
        from repro.corpus.replay import pin_targets
        from repro.fuzz.corpus import save_reproducer

        vault = tmp_path / "vault"
        save_reproducer(vault, "bug", "int main(void){return 0;}", {"machine": "m-vliw-2"})
        targets = pin_targets(("m-tta-1", "m-tta-2"), names=["mips"],
                              promoted_dir=promoted, corpus_dir=vault)
        assert targets["bug"].machines == ("m-vliw-2",)
        assert targets["fft"].machines == targets["mips"].machines == ("m-tta-1", "m-tta-2")
        assert all(targets[p.stem].machines == ("m-tta-1", "m-tta-2")
                   for p in promoted.glob("*.mc"))
        assert "sha" not in targets
