"""CI smoke test for ``repro serve``.

Starts the service exactly as a user would (``python -m repro serve``
on an ephemeral port), drives one of every request shape through the
bundled client — compile, compile on a second preset (must match a
direct compile, without parsing the kernel again), run, repeat-run
(must be a store hit), a run with a field no endpoint reads (must be a
400 naming it, with nothing executed), sweep, a promoted-kernel run,
its repeat (a store hit with no store miss) and its sweep (served from
the store), stats (no more worker processes started than there are
shards) — and shuts it down with SIGTERM, asserting a clean graceful
drain.

Run:  PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.backend import compile_for_machine  # noqa: E402
from repro.frontend import compile_source  # noqa: E402
from repro.kernels import expected_exit, load  # noqa: E402
from repro.machine import build_machine  # noqa: E402
from repro.serve import ServeClient, ServeError  # noqa: E402

#: a promoted corpus kernel, whose expected exit is nonzero
PROMOTED = "stress-2024-022"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as store_dir:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env["REPRO_CACHE_DIR"] = store_dir
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2"],
            cwd=REPO, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stderr.readline()
            assert "serving on http://" in line, f"bad banner: {line!r}"
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            print(f"server up on port {port}")

            with ServeClient("127.0.0.1", port, timeout=600) as client:
                assert client.healthz()["status"] == "ok"
                print("healthz ok")

                compiled = client.compile("m-tta-2", kernel="mips")
                assert compiled["result"]["instruction_count"] > 0
                print(f"compile ok: {compiled['result']['instruction_count']} "
                      f"instructions")

                # the second preset's job does not parse the kernel again:
                # it takes the optimised IR module from its worker's memo
                # (the first compile ran in the same worker) or from the
                # store entry the first compile wrote (it ran in the other)
                other = client.compile("m-vliw-2", kernel="mips", trace=True)
                counters = other["trace"]["counters"]
                assert "frontend.module_store_miss" not in counters, counters
                assert sorted(counters.get(name, 0) for name in (
                    "frontend.module_reuse", "frontend.module_store_hit",
                )) == [0, 1], counters
                direct = compile_for_machine(
                    compile_source(load("mips"), module_name="mips"),
                    build_machine("m-vliw-2"),
                )
                assert other["result"]["instruction_count"] == \
                    direct.instruction_count, (other, direct.instruction_count)
                print(f"second-preset compile ok: "
                      f"{direct.instruction_count} instructions, as a direct "
                      f"compile, from the first compile's IR module")

                first = client.run("m-tta-2", kernel="mips", mode="fast")
                assert first["result"]["exit_code"] == 0
                assert first["cached"] is False
                print(f"run ok: {first['result']['cycles']} cycles "
                      f"(computed)")

                again = client.run("m-tta-2", kernel="mips", mode="fast")
                assert again["cached"] is True, "second run missed the store"
                assert again["result"] == first["result"], \
                    "cached result differs from computed result"
                print("repeat run ok: served from the artifact store, "
                      "byte-identical")

                # a field the run endpoint no longer reads is a loud 400
                # naming it, never a silent single run
                removed = "lanes"
                executed = client.stats()["dedup"]["executed"]
                try:
                    client.run("m-tta-2", kernel="mips", **{removed: 4})
                except ServeError as exc:
                    assert exc.status == 400, exc
                    assert f"'{removed}'" in str(exc), exc
                else:
                    raise AssertionError(f"a run with {removed!r} was accepted")
                assert client.stats()["dedup"]["executed"] == executed
                print(f"unknown-field run ok: 400 naming {removed!r}, "
                      f"nothing executed")

                swept = client.sweep(machines=["m-tta-2"],
                                     kernels=["mips", "motion"], wait=True)
                assert swept["state"] == "done"
                assert swept["result"]["stats"]["total"] == 2
                assert not swept["result"]["errors"]
                print("sweep ok: 2 pairs")

                # a promoted corpus kernel (nonzero expected exit): its run
                # is stored as the sweep result entry, so a repeat is one
                # store read with no miss, and a sweep of it reads it too
                promoted = client.run("m-tta-2", kernel=PROMOTED, mode="fast")
                assert promoted["result"]["exit_code"] == expected_exit(PROMOTED)
                assert promoted["cached"] is False
                misses = client.stats()["store"]["misses"]
                repeat = client.run("m-tta-2", kernel=PROMOTED, mode="fast")
                assert repeat["cached"] is True, "promoted repeat missed the store"
                assert repeat["result"] == promoted["result"]
                assert client.stats()["store"]["misses"] == misses, \
                    "promoted repeat read past a store miss"
                swept = client.sweep(machines=["m-tta-2"], kernels=[PROMOTED],
                                     wait=True)
                assert swept["result"]["stats"]["cache_hits"] == 1, swept
                assert swept["result"]["stats"]["computed"] == 0, swept
                print(f"promoted-kernel run ok: {PROMOTED} served from the "
                      f"store with no miss, and its sweep read the same entry")

                stats = client.stats()
                dedup = stats["dedup"]
                assert dedup["cache_hits"] >= 1, dedup
                assert dedup["executed"] >= 3, dedup
                assert stats["store"]["corrupt_dropped"] == 0
                assert stats["queue"]["depth"] == 0
                # each shard's worker served all of that shard's misses
                started = stats["queue"]["workers_started"]
                assert 1 <= started <= stats["queue"]["shards"], stats["queue"]
                print(f"stats ok: {dedup}, {started} worker(s) for "
                      f"{dedup['executed']} executed jobs")

            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            raise
        assert proc.returncode == 0, f"exit {proc.returncode}: {stderr}"
        assert "draining..." in stderr and "drained:" in stderr, stderr
        print("graceful drain ok")
    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
