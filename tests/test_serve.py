"""The compile-and-simulate service.

Contracts pinned here:

* **byte-identity** -- a served ``/v1/run`` reports the same exit code,
  cycle count and every architectural stats counter as a direct
  ``run_compiled`` of the same program, for every engine mode;
* **dedup** -- identical in-flight requests coalesce onto one pipeline
  execution (asserted via the ``/v1/stats`` counters), finished results
  are served from the artifact store, and the store contract is shared
  with ``repro sweep`` in both directions;
* **backpressure** -- a full queue answers 429 with ``Retry-After``
  without executing anything;
* **fault mapping** -- malformed requests (a body field the endpoint
  does not read among them), uncompilable programs,
  oversized bodies, per-job timeouts and cancellations each map to a
  distinct status code;
* **worker reuse** -- each shard runs its jobs in one long-lived worker
  process, replaced after a timeout, a cancel or its death, and a job
  never fails because an idle worker died;
* **graceful drain** -- shutdown lets queued and running jobs finish,
  terminates stragglers past the grace window, and leaves no orphaned
  worker processes.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.backend import compile_for_machine
from repro.frontend import compile_source
from repro.machine import build_machine
from repro.pipeline import ArtifactStore, sweep
from repro.pipeline.executor import result_extras
from repro.serve import (
    SERVE_SCHEMA,
    BackgroundServer,
    Draining,
    JobManager,
    ServeError,
    normalize_params,
)
from repro.sim import MODES, run_compiled

#: ~1 ms in every mode; exit code 0 so the plain-run store path engages
TINY_SRC = "int main(void){ int i=0; int s=0; while(i<100){ s=s+i; i=i+1; } return 0; }"

#: ~2 s in fast mode on m-tta-2 -- long enough to observe in-flight
SLOW_SRC = "int main(void){ int i=0; int s=0; while(i<200000){ s=s+i; i=i+1; } return 0; }"

#: never terminates -- timeout/cancellation/straggler-drain fodder
SPIN_SRC = "int main(void){ int i=1; while(i){ } return 0; }"

#: a promoted corpus kernel (nonzero expected exit, from its golden)
PROMOTED = "stress-2024-022"

def _distinct_src(tag: int) -> str:
    """A unique slow source per *tag* (defeats dedup where needed)."""
    return SLOW_SRC.replace("s=s+i;", f"s=s+i+{tag};")


def _wait_state(client, job_id, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload, _ = client.raw_request("GET", f"/v1/jobs/{job_id}")
        if payload.get("state") == state:
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached state {state!r}")


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One shared server + store for the read-mostly tests."""
    store = ArtifactStore(tmp_path_factory.mktemp("serve-store"))
    with BackgroundServer(store=store, jobs=2) as bg:
        yield bg


class TestHttpBasics:
    def test_healthz(self, served):
        with served.client() as c:
            payload = c.healthz()
        assert payload == {"schema_version": SERVE_SCHEMA, "status": "ok"}

    def test_unknown_route_404(self, served):
        with served.client() as c:
            status, payload, _ = c.raw_request("GET", "/v1/nope")
        assert status == 404
        assert payload["error"]["type"] == "NotFound"

    def test_wrong_method_405_with_allow(self, served):
        with served.client() as c:
            status, payload, headers = c.raw_request("GET", "/v1/run")
        assert status == 405
        assert headers["Allow"] == "POST"
        assert payload["error"]["type"] == "MethodNotAllowed"

    def test_malformed_json_400(self, served):
        with served.client() as c:
            status, payload, _ = c.raw_request("POST", "/v1/run", b"{nope")
        assert status == 400
        assert "malformed JSON" in payload["error"]["message"]

    def test_post_without_length_411(self, served):
        # http.client always sends Content-Length, so speak raw bytes
        import socket

        with socket.create_connection((served.host, served.port)) as sock:
            sock.sendall(b"POST /v1/run HTTP/1.1\r\nHost: x\r\n\r\n")
            reply = sock.recv(4096).decode("latin-1")
        assert reply.startswith("HTTP/1.1 411 ")

    def test_chunked_encoding_rejected_411(self, served):
        import socket

        with socket.create_connection((served.host, served.port)) as sock:
            sock.sendall(
                b"POST /v1/run HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            reply = sock.recv(4096).decode("latin-1")
        assert reply.startswith("HTTP/1.1 411 ")

    def test_garbage_request_line_400(self, served):
        import socket

        with socket.create_connection((served.host, served.port)) as sock:
            sock.sendall(b"BLURB\r\n\r\n")
            reply = sock.recv(4096).decode("latin-1")
        assert reply.startswith("HTTP/1.1 400 ")

    def test_schema_version_mismatch_400(self, served):
        with served.client() as c:
            with pytest.raises(ServeError) as err:
                c.run("m-tta-2", source=TINY_SRC, schema_version=99)
        assert err.value.status == 400
        assert "schema_version" in str(err.value)

    def test_request_id_echoed(self, served):
        with served.client() as c:
            status, _, headers = c.raw_request(
                "GET", "/healthz", headers={"X-Request-Id": "req-abc-123"}
            )
        assert status == 200
        assert headers["X-Request-Id"] == "req-abc-123"

    @pytest.mark.parametrize("value", [
        b"abc\rSet-Cookie: evil=1", b"abc\x00Set-Cookie: evil=1",
    ], ids=["bare-cr", "nul"])
    def test_control_character_in_header_value_400(self, served, value):
        import socket

        with socket.create_connection((served.host, served.port)) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Request-Id: "
                         + value + b"\r\n\r\n")
            sock.settimeout(10)
            reply = b""
            while b"\r\n\r\n" not in reply and (chunk := sock.recv(4096)):
                reply += chunk
        head = reply.decode("latin-1").partition("\r\n\r\n")[0]
        assert head.startswith("HTTP/1.1 400 ")
        assert "Set-Cookie" not in head

    def test_oversized_body_413_then_connection_survives(self, tmp_path):
        with BackgroundServer(store=None, jobs=1, max_body=512) as bg:
            with bg.client() as c:
                big = json.dumps({"source": "x" * 2048}).encode()
                status, payload, headers = c.raw_request("POST", "/v1/run", big)
                assert status == 413
                assert payload["error"]["type"] == "HttpError"
                # the unread body desynchronises the stream: the server
                # must close, and the client reconnects transparently
                assert headers["Connection"] == "close"
                assert c.healthz()["status"] == "ok"


class TestRequestValidation:
    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({"machine": "no-such", "kernel": "mips"}, "unknown machine"),
            ({"machine": "m-tta-2", "kernel": "no-such"}, "unknown kernel"),
            ({"machine": "m-tta-2"}, "exactly one of"),
            ({"machine": "m-tta-2", "kernel": "mips", "source": "int"},
             "exactly one of"),
            ({"machine": "m-tta-2", "source": "   "}, "non-empty"),
            ({"machine": "m-tta-2", "kernel": "mips", "mode": "warp"},
             "unknown mode"),
            # fields no endpoint reads any more, and a typo: a loud 400
            # naming the field, never a silent single run
            ({"machine": "m-tta-2", "kernel": "mips",
              "inputs": [[[0, "00"]]]}, "'inputs'"),
            ({"machine": "m-tta-2", "kernel": "mips", "lanes": 4}, "'lanes'"),
            ({"machine": "m-tta-2", "kernel": "mips", "max_cycle": 1000},
             "'max_cycle'"),
            ({"machine": "m-tta-2", "kernel": "mips", "max_cycles": 0},
             "max_cycles"),
            ({"machine": "m-tta-2", "kernel": "mips", "timeout_s": -1},
             "timeout_s"),
            ({"machine": "m-tta-2", "kernel": "mips", "wait": "yes"},
             "'wait'"),
            # a NaN deadline would never pass: the job could not time out
            ({"machine": "m-tta-2", "kernel": "mips", "timeout_s": float("nan")},
             "finite"),
            # (endpoint, body): fields the other endpoints do not read
            (("/v1/compile", {"machine": "m-tta-2", "kernel": "mips",
                              "mode": "warp"}), "'mode'"),
            (("/v1/sweep", {"machines": ["m-tta-2"], "kernels": ["mips"],
                            "timeout_s": 5}), "'timeout_s'"),
            (("/v1/sweep", {"machines": 5}), "'machines' must be"),
            # only the integer 1 is version 1, although `True == 1.0 == 1`
            ({"machine": "m-tta-2", "source": TINY_SRC, "schema_version": True},
             "schema_version True"),
            ({"machine": "m-tta-2", "source": TINY_SRC, "schema_version": 1.0},
             "schema_version 1.0"),
            ({"machine": "m-tta-2", "source": TINY_SRC, "schema_version": "1"},
             "schema_version '1'"),
        ],
    )
    def test_bad_run_request_400(self, served, body, fragment):
        path, body = body if isinstance(body, tuple) else ("/v1/run", body)
        with served.client() as c:
            before = c.stats()["jobs_by_state"]
            with pytest.raises(ServeError) as err:
                c.request("POST", path, body)
            # rejected before anything is queued, executed or served
            assert c.stats()["jobs_by_state"] == before
        assert err.value.status == 400
        assert fragment in str(err.value)

    def test_bad_sweep_subset_400(self, served):
        with served.client() as c:
            with pytest.raises(ServeError) as err:
                c.sweep(machines=["m-tta-2", "bogus"], kernels=["mips"])
        assert err.value.status == 400
        assert "unknown machine" in str(err.value)

    def test_compile_error_maps_to_400(self, served):
        with served.client() as c:
            with pytest.raises(ServeError) as err:
                c.run("m-tta-2", source="int main(void){ return undeclared; }")
        assert err.value.status == 400
        assert err.value.payload["error"]["type"] == "CompileError"


class TestByteIdentity:
    """Served results must equal direct pipeline results, field for field."""

    @pytest.mark.parametrize("mode", MODES)
    def test_run_matches_run_compiled(self, served, mode):
        compiled = compile_for_machine(
            compile_source(TINY_SRC), build_machine("m-tta-2")
        )
        want = run_compiled(compiled, mode=mode)
        with served.client() as c:
            got = c.run("m-tta-2", source=TINY_SRC, mode=mode)
        result = got["result"]
        assert result["exit_code"] == want.exit_code
        assert result["cycles"] == want.cycles
        assert result["stats"] == result_extras(want)
        assert result["instruction_count"] == compiled.instruction_count
        assert result["mode"] == mode

    def test_kernel_run_matches_direct(self, served):
        from repro.kernels import kernel_source

        compiled = compile_for_machine(
            compile_source(kernel_source("mips"), module_name="mips"),
            build_machine("m-tta-2"),
        )
        want = run_compiled(compiled, mode="fast")
        with served.client() as c:
            got = c.run("m-tta-2", kernel="mips", mode="fast")
        assert got["result"]["exit_code"] == 0
        assert got["result"]["cycles"] == want.cycles
        assert got["result"]["stats"] == result_extras(want)

    def test_scalar_machine_served(self, served):
        compiled = compile_for_machine(
            compile_source(TINY_SRC), build_machine("mblaze-3")
        )
        want = run_compiled(compiled, mode="fast")
        with served.client() as c:
            got = c.run("mblaze-3", source=TINY_SRC, mode="fast")
        assert got["result"]["cycles"] == want.cycles
        assert got["result"]["stats"] == result_extras(want)


class TestDedupAndCache:
    def test_second_identical_request_is_store_hit(self, served):
        # a source no other test submits, so the first request computes
        src = TINY_SRC.replace("i<100", "i<101")
        with served.client() as c:
            before = c.stats()["dedup"]
            first = c.run("m-tta-2", source=src, mode="turbo")
            second = c.run("m-tta-2", source=src, mode="turbo")
            after = c.stats()["dedup"]
        assert first["result"] == second["result"]
        assert second["cached"] is True
        assert after["cache_hits"] >= before["cache_hits"] + 1
        assert after["executed"] == before["executed"] + 1

    @pytest.mark.parametrize("request_body", [
        # a nonzero exit is stored as a job entry, not a sweep result
        {"source": "int main(void){ return 7; }"},
        # so is any run with its own cycle budget
        {"source": TINY_SRC.replace("i<100", "i<102"), "max_cycles": 1_000_000},
    ], ids=["nonzero-exit", "max-cycles"])
    def test_turbo_run_served_from_fast_entry(self, served, request_body):
        """fast and turbo share one result key; the hit still reports the
        engine the request asked for."""
        with served.client() as c:
            fast = c.run("m-tta-2", mode="fast", **request_body)
            turbo = c.run("m-tta-2", mode="turbo", **request_body)
        assert fast["cached"] is False
        assert turbo["cached"] is True
        assert turbo["result"]["mode"] == "turbo"
        assert {**turbo["result"], "mode": "fast"} == fast["result"]

    def test_checked_run_not_served_from_fast_entry(self, served):
        src = TINY_SRC.replace("i<100", "i<103")
        with served.client() as c:
            c.run("m-tta-2", source=src, mode="fast")
            checked = c.run("m-tta-2", source=src, mode="checked")
        assert checked["cached"] is False
        assert checked["result"]["mode"] == "checked"

    def test_sweep_cache_answers_served_run(self, tmp_path):
        """The plain-run key contract is shared with ``repro sweep``:
        a sweep-warmed store answers ``/v1/run`` without executing."""
        store = ArtifactStore(tmp_path)
        outcome = sweep(
            machines=["m-tta-2"], kernels=["mips"], mode="fast", store=store
        )
        want = outcome.results[("m-tta-2", "mips")]
        with BackgroundServer(store=store, jobs=1) as bg:
            with bg.client() as c:
                got = c.run("m-tta-2", kernel="mips", mode="fast")
                stats = c.stats()
        assert got["cached"] is True
        assert stats["dedup"]["executed"] == 0
        assert got["result"]["cycles"] == want.cycles
        assert got["result"]["stats"] == {
            k: v for k, v in want.extras.items() if not k.startswith("_")
        }

    def test_served_run_warms_sweep_cache(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with BackgroundServer(store=store, jobs=1) as bg:
            with bg.client() as c:
                got = c.run("m-tta-2", kernel="mips", mode="fast")
        assert got["cached"] is False
        outcome = sweep(
            machines=["m-tta-2"], kernels=["mips"], mode="fast", store=store
        )
        assert outcome.stats.cache_hits == 1
        assert outcome.stats.computed == 0
        result = outcome.results[("m-tta-2", "mips")]
        assert result.cycles == got["result"]["cycles"]

    def test_served_promoted_kernel_warms_sweep_and_hits_without_a_miss(
        self, tmp_path
    ):
        """A promoted kernel's expected exit is nonzero; its plain run is
        still stored as the sweep result entry, so a repeat is one store
        read with no miss and ``repro sweep`` computes nothing."""
        from repro.kernels import expected_exit
        from repro.pipeline import build_tasks, sweep_tasks

        store = ArtifactStore(tmp_path)
        with BackgroundServer(store=store, jobs=1) as bg:
            with bg.client() as c:
                first = c.run("m-tta-2", kernel=PROMOTED, mode="fast")
                misses = store.stats.misses
                again = c.run("m-tta-2", kernel=PROMOTED, mode="turbo")
                assert store.stats.misses == misses
        assert first["cached"] is False and again["cached"] is True
        assert first["result"]["exit_code"] == expected_exit(PROMOTED) != 0
        assert {**again["result"], "mode": "fast"} == first["result"]
        outcome = sweep_tasks(
            build_tasks(["m-tta-2"], [PROMOTED], mode="fast"), store=store
        )
        assert outcome.stats.computed == 0
        assert outcome.stats.cache_hits == 1
        assert outcome.results[("m-tta-2", PROMOTED)].cycles == \
            first["result"]["cycles"]

    def test_swept_promoted_kernel_is_served_without_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        sweep(machines=["m-tta-2"], kernels=[PROMOTED], mode="fast", store=store)
        with BackgroundServer(store=store, jobs=1) as bg:
            with bg.client() as c:
                misses = store.stats.misses
                got = c.run("m-tta-2", kernel=PROMOTED, mode="fast")
                stats = c.stats()
        assert got["cached"] is True
        assert store.stats.misses == misses
        assert stats["dedup"]["executed"] == 0

    def test_concurrent_identical_requests_execute_once(self, tmp_path):
        """The acceptance contract: N identical in-flight requests run
        exactly one pipeline execution."""
        store = ArtifactStore(tmp_path)
        with BackgroundServer(store=store, jobs=2) as bg:
            with bg.client() as c:
                body = {"machine": "m-tta-2", "source": SLOW_SRC,
                        "mode": "fast", "wait": False}
                first = c.request("POST", "/v1/run", body)
                second = c.request("POST", "/v1/run", body)
                third = c.request("POST", "/v1/run", body)
                assert first["job_id"] == second["job_id"] == third["job_id"]
                done = c.wait_job(first["job_id"])
                stats = c.stats()
        assert done["state"] == "done"
        assert done["coalesced_requests"] == 2
        assert len(done["request_ids"]) == 3
        assert stats["dedup"]["executed"] == 1
        assert stats["dedup"]["coalesced"] == 2

    def test_queued_job_served_from_result_stored_ahead_of_it(self, tmp_path):
        """fast then turbo of one pair, both queued on one shard: the turbo
        job is dequeued after the fast job stored their shared result, so
        it is answered from the store instead of running again."""
        with BackgroundServer(store=ArtifactStore(tmp_path), jobs=2) as bg:
            with bg.client() as c:
                body = {"machine": "m-tta-2", "source": SLOW_SRC, "wait": False}
                fast = c.request("POST", "/v1/run", {**body, "mode": "fast"})
                turbo = c.request("POST", "/v1/run", {**body, "mode": "turbo"})
                fast_done = c.wait_job(fast["job_id"])
                turbo_done = c.wait_job(turbo["job_id"])
                stats = c.stats()
        assert turbo_done["state"] == "done"
        assert turbo_done["cached"] is True
        assert turbo_done["result"]["mode"] == "turbo"
        assert {**turbo_done["result"], "mode": "fast"} == fast_done["result"]
        assert stats["dedup"]["executed"] == 1
        assert stats["dedup"]["cache_hits"] == 1

    def test_in_flight_requests_coalesce_per_mode(self, tmp_path):
        """A turbo request never joins an in-flight fast job, whose body
        would name the wrong engine."""
        with BackgroundServer(store=ArtifactStore(tmp_path), jobs=2) as bg:
            with bg.client() as c:
                body = {"machine": "m-tta-2", "source": SLOW_SRC, "wait": False}
                fast = c.request("POST", "/v1/run", {**body, "mode": "fast"})
                turbo = c.request("POST", "/v1/run", {**body, "mode": "turbo"})
                assert fast["job_id"] != turbo["job_id"]
                done = c.wait_job(turbo["job_id"])
        assert done["state"] == "done"
        assert done["result"]["mode"] == "turbo"


class TestBackpressure:
    def test_queue_full_429_without_executing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with BackgroundServer(store=store, jobs=1, queue_limit=1) as bg:
            with bg.client() as c:
                a = c.request("POST", "/v1/run", {
                    "machine": "m-tta-2", "source": _distinct_src(1),
                    "wait": False,
                })
                _wait_state(c, a["job_id"], "running")
                b = c.request("POST", "/v1/run", {
                    "machine": "m-tta-2", "source": _distinct_src(2),
                    "wait": False,
                })
                assert b["state"] == "queued"
                with pytest.raises(ServeError) as err:
                    c.request("POST", "/v1/run", {
                        "machine": "m-tta-2", "source": _distinct_src(3),
                        "wait": False,
                    })
                assert err.value.status == 429
                assert err.value.payload["error"]["type"] == "QueueFull"
                assert err.value.headers["Retry-After"] == "1"
                stats = c.stats()
                assert stats["queue"]["depth"] == 1
                assert stats["queue"]["limit"] == 1
                c.wait_job(a["job_id"])
                c.wait_job(b["job_id"])
                final = c.stats()["dedup"]
        # the rejected request never executed
        assert final["executed"] == 2


class TestTimeoutAndCancellation:
    def test_job_timeout_504_and_no_orphans(self, tmp_path):
        with BackgroundServer(store=None, jobs=1, job_timeout=1.0) as bg:
            with bg.client() as c:
                with pytest.raises(ServeError) as err:
                    c.run("m-tta-2", source=SPIN_SRC)
            assert err.value.status == 504
            assert err.value.payload["error"]["type"] == "JobTimeout"
            assert bg.server.manager.active_process_count() == 0

    def test_per_request_timeout_hint(self, tmp_path):
        started = time.monotonic()
        with BackgroundServer(store=None, jobs=1) as bg:
            with bg.client() as c:
                with pytest.raises(ServeError) as err:
                    c.run("m-tta-2", source=SPIN_SRC, timeout_s=0.5)
            assert err.value.status == 504
        # nowhere near the 300 s server default
        assert time.monotonic() - started < 60

    def test_cancel_running_job_409_and_no_orphans(self, tmp_path):
        with BackgroundServer(store=None, jobs=1) as bg:
            with bg.client() as c:
                job = c.request("POST", "/v1/run", {
                    "machine": "m-tta-2", "source": SPIN_SRC, "wait": False,
                })
                _wait_state(c, job["job_id"], "running")
                cancel = c.cancel(job["job_id"])
                assert cancel["cancel_requested"] is True
                with pytest.raises(ServeError) as err:
                    c.wait_job(job["job_id"])
                assert err.value.status == 409
                assert err.value.payload["state"] == "cancelled"
            assert bg.server.manager.active_process_count() == 0

    def test_cancel_queued_job_never_starts(self, tmp_path):
        with BackgroundServer(store=None, jobs=1, queue_limit=4) as bg:
            with bg.client() as c:
                a = c.request("POST", "/v1/run", {
                    "machine": "m-tta-2", "source": _distinct_src(4),
                    "wait": False,
                })
                _wait_state(c, a["job_id"], "running")
                b = c.request("POST", "/v1/run", {
                    "machine": "m-tta-2", "source": _distinct_src(5),
                    "wait": False,
                })
                cancelled = c.cancel(b["job_id"])
                assert cancelled["state"] == "cancelled"
                c.wait_job(a["job_id"])
                stats = c.stats()
        assert stats["dedup"]["executed"] == 1  # b never ran
        assert stats["jobs"]["cancelled"] == 1

    def test_unknown_job_404(self, served):
        with served.client() as c:
            status, payload, _ = c.raw_request("GET", "/v1/jobs/j999999")
            assert status == 404
            status, _, _ = c.raw_request("DELETE", "/v1/jobs/j999999")
            assert status == 404


def _worker_pid(bg) -> int | None:
    """The pid of the one shard worker of a ``jobs=1`` server, if any."""
    worker = bg.server.manager._shard_procs[0]
    return None if worker is None else worker[0].pid


def _gone(pid: int, timeout: float = 10.0) -> bool:
    """Whether process *pid* has exited and been reaped (within *timeout*)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.01)
    return False


class TestShardWorkers:
    """One long-lived worker process per shard."""

    def test_distinct_misses_share_one_worker(self, tmp_path):
        with BackgroundServer(store=ArtifactStore(tmp_path), jobs=1) as bg:
            with bg.client() as c:
                first = c.run("m-tta-2", source=TINY_SRC, mode="fast")
                pid = _worker_pid(bg)
                second = c.compile("m-vliw-2", source=TINY_SRC.replace("i<100", "i<99"))
                assert _worker_pid(bg) == pid
                stats = c.stats()
        assert first["cached"] is False and second["cached"] is False
        assert stats["dedup"]["executed"] == 2
        assert stats["queue"]["workers_started"] == 1
        # the drain stopped it
        assert bg.server.manager.active_process_count() == 0
        assert _gone(pid)

    def test_timeout_replaces_the_worker(self):
        with BackgroundServer(store=None, jobs=1) as bg:
            with bg.client() as c:
                c.run("m-tta-2", source=TINY_SRC, mode="fast")
                pid = _worker_pid(bg)
                with pytest.raises(ServeError) as err:
                    c.run("m-tta-2", source=SPIN_SRC, timeout_s=0.5)
                assert err.value.status == 504
                assert bg.server.manager.active_process_count() == 0
                assert _gone(pid)
                got = c.run("m-tta-2", source=TINY_SRC, mode="fast")
                assert got["result"]["exit_code"] == 0
                assert _worker_pid(bg) not in (None, pid)
                assert c.stats()["queue"]["workers_started"] == 2

    def test_timeout_on_a_stopped_worker_meets_its_deadline(self):
        """A worker that never reads its job (here, stopped) is killed at
        the deadline, with no grace period for a signal it cannot act on.
        A job larger than the pipe's buffer blocks only its own write:
        the server keeps answering while it waits."""
        big_src = "/*" + "x" * 600_000 + "*/\n" + TINY_SRC
        with BackgroundServer(store=None, jobs=1, max_body=2_000_000) as bg:
            with bg.client() as c:
                c.run("m-tta-2", source=TINY_SRC, mode="fast")
                pid = _worker_pid(bg)
                os.kill(pid, signal.SIGSTOP)
                started = time.monotonic()
                with pytest.raises(ServeError) as err:
                    c.run("m-tta-2", source=TINY_SRC, mode="turbo", timeout_s=1)
                elapsed = time.monotonic() - started
                assert err.value.status == 504
                assert elapsed < 3, elapsed
                assert _gone(pid)
                assert bg.server.manager.active_process_count() == 0
                got = c.run("m-tta-2", source=TINY_SRC, mode="fast")
                assert got["result"]["exit_code"] == 0
                pid2 = _worker_pid(bg)
                assert pid2 not in (None, pid)
                os.kill(pid2, signal.SIGSTOP)
                try:
                    started = time.monotonic()
                    job = c.request("POST", "/v1/run", {
                        "machine": "m-tta-2", "source": big_src, "mode": "turbo",
                        "timeout_s": 1, "wait": False,
                    })
                    time.sleep(0.2)  # let the shard start writing the job
                    with bg.client(timeout=1.0) as probe:
                        asked = time.monotonic()
                        assert probe.healthz()["status"] == "ok"
                        assert time.monotonic() - asked < 1
                    with pytest.raises(ServeError) as err:
                        c.wait_job(job["job_id"])
                    elapsed = time.monotonic() - started
                    assert err.value.status == 504
                    assert 1 <= elapsed < 3, elapsed
                    assert _gone(pid2)
                    assert bg.server.manager.active_process_count() == 0
                finally:  # never leave a stopped worker behind
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid2, signal.SIGKILL)

    def test_idle_worker_killed_from_outside_is_replaced(self):
        with BackgroundServer(store=None, jobs=1) as bg:
            with bg.client() as c:
                c.run("m-tta-2", source=TINY_SRC, mode="fast")
                pid = _worker_pid(bg)
                os.kill(pid, signal.SIGKILL)
                assert _gone(pid)
                got = c.run("m-tta-2", source=TINY_SRC, mode="fast")
                assert got["result"]["exit_code"] == 0
                assert _worker_pid(bg) not in (None, pid)
                stats = c.stats()
        assert stats["jobs"]["failed"] == 0
        assert stats["queue"]["workers_started"] == 2

    def test_worker_ignores_sigint(self):
        """Ctrl-C reaches the whole process group; the server, which
        drains on it, is the one that stops its workers."""
        with BackgroundServer(store=None, jobs=1) as bg:
            with bg.client() as c:
                c.run("m-tta-2", source=TINY_SRC, mode="fast")
                pid = _worker_pid(bg)
                os.kill(pid, signal.SIGINT)
                assert not _gone(pid, timeout=0.5)
                c.run("m-tta-2", source=TINY_SRC, mode="fast")
                assert _worker_pid(bg) == pid
        assert _gone(pid)

    def test_worker_killed_before_reading_its_job_is_replaced(self):
        """A worker that dies with the job it was sent still unread never
        ran it: the job goes to a new worker instead of failing."""
        with BackgroundServer(store=None, jobs=1) as bg:
            with bg.client() as c:
                c.run("m-tta-2", source=TINY_SRC, mode="fast")
                pid = _worker_pid(bg)
                os.kill(pid, signal.SIGSTOP)  # alive, but reads nothing
                job = c.request("POST", "/v1/run", {
                    "machine": "m-tta-2", "source": TINY_SRC, "mode": "fast",
                    "wait": False,
                })
                _wait_state(c, job["job_id"], "running")
                time.sleep(0.2)  # let the job reach the stopped worker
                os.kill(pid, signal.SIGKILL)
                done = c.wait_job(job["job_id"])
                assert _worker_pid(bg) not in (None, pid)
                stats = c.stats()
        assert done["result"]["exit_code"] == 0
        assert stats["jobs"]["failed"] == 0
        assert stats["queue"]["workers_started"] == 2

    def test_worker_killed_mid_job_is_worker_died(self):
        with BackgroundServer(store=None, jobs=1) as bg:
            with bg.client() as c:
                c.run("m-tta-2", source=TINY_SRC, mode="fast")
                pid = _worker_pid(bg)
                job = c.request("POST", "/v1/run", {
                    "machine": "m-tta-2", "source": SPIN_SRC, "wait": False,
                    "timeout_s": 60,
                })
                _wait_state(c, job["job_id"], "running")
                time.sleep(0.5)  # let the idle worker take the job
                os.kill(pid, signal.SIGKILL)
                with pytest.raises(ServeError) as err:
                    c.wait_job(job["job_id"])
                assert err.value.status == 500
                assert err.value.payload["error"]["type"] == "WorkerDied"
                assert bg.server.manager.active_process_count() == 0
                got = c.run("m-tta-2", source=TINY_SRC, mode="fast")
                assert got["result"]["exit_code"] == 0
                assert _worker_pid(bg) not in (None, pid)

    def test_failed_and_traced_jobs_leave_no_state_behind(self):
        """A job after a compile error and a traced job, in the same
        worker, answers exactly as a fresh in-process run."""
        compiled = compile_for_machine(
            compile_source(TINY_SRC), build_machine("m-tta-2")
        )
        want = run_compiled(compiled, mode="turbo")
        with BackgroundServer(store=None, jobs=1) as bg:
            with bg.client() as c:
                with pytest.raises(ServeError) as err:
                    c.run("m-tta-2", source="int main(void){ return undeclared; }")
                assert err.value.payload["error"]["type"] == "CompileError"
                pid = _worker_pid(bg)
                traced = c.run("m-tta-2", source=TINY_SRC, mode="turbo", trace=True)
                assert traced["trace"]["spans"]
                got = c.run("m-tta-2", source=TINY_SRC, mode="turbo")
                assert _worker_pid(bg) == pid
        assert "trace" not in got
        assert got["result"] == traced["result"]
        assert got["result"]["exit_code"] == want.exit_code
        assert got["result"]["cycles"] == want.cycles
        assert got["result"]["stats"] == result_extras(want)
        assert got["result"]["instruction_count"] == compiled.instruction_count


class TestGracefulDrain:
    def test_drain_completes_in_flight_jobs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        bg = BackgroundServer(store=store, jobs=1).start()
        try:
            with bg.client() as c:
                job = c.request("POST", "/v1/run", {
                    "machine": "m-tta-2", "source": SLOW_SRC, "wait": False,
                })
                _wait_state(c, job["job_id"], "running")
        finally:
            summary = bg.stop()
        assert summary == {"completed": 1, "terminated": 0}
        finished = bg.server.manager.get(job["job_id"])
        assert finished.state == "done"
        assert finished.result["result"]["exit_code"] == 0
        assert bg.server.manager.active_process_count() == 0

    def test_drain_terminates_stragglers_past_grace(self, tmp_path):
        bg = BackgroundServer(store=None, jobs=1, drain_grace=0.3).start()
        try:
            with bg.client() as c:
                job = c.request("POST", "/v1/run", {
                    "machine": "m-tta-2", "source": SPIN_SRC, "wait": False,
                })
                _wait_state(c, job["job_id"], "running")
        finally:
            summary = bg.stop()
        assert summary["terminated"] >= 1
        assert bg.server.manager.get(job["job_id"]).state == "cancelled"
        assert bg.server.manager.active_process_count() == 0

    def test_draining_manager_rejects_new_jobs(self):
        async def scenario():
            manager = JobManager(shards=1, queue_limit=4, job_timeout=30)
            await manager.start()
            await manager.drain(timeout=5)
            params = normalize_params(
                "run", {"machine": "m-tta-2", "source": TINY_SRC}
            )
            with pytest.raises(Draining):
                manager.submit("run", params, "r1")

        asyncio.run(scenario())


class TestObservability:
    def test_trace_payload_carries_request_id(self, served):
        with served.client() as c:
            got = c.request(
                "POST", "/v1/run",
                {"machine": "m-tta-2", "source": TINY_SRC, "mode": "fast",
                 "trace": True},
                request_id="trace-me-42",
            )
        trace = got["trace"]
        assert trace["request_id"] == "trace-me-42"
        assert trace["process"] == "serve-run"
        names = {rec["name"] for rec in trace["spans"]}
        assert "serve.job.run" in names
        # and the payload merges into a Chrome trace with the id attached
        from repro.obs import to_chrome_trace

        doc = to_chrome_trace([trace])
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta[0]["args"]["request_id"] == "trace-me-42"

    def test_stats_shape(self, served):
        with served.client() as c:
            c.healthz()
            stats = c.stats()
        assert stats["schema_version"] == SERVE_SCHEMA
        assert stats["queue"]["shards"] == 2
        assert stats["store"]["root"]
        endpoint = stats["endpoints"]["GET /healthz"]
        assert endpoint["count"] >= 1
        latency = endpoint["latency_ms"]
        for field in ("count", "mean_ms", "p50_ms", "p90_ms", "p99_ms",
                      "max_ms"):
            assert field in latency
        assert latency["p50_ms"] <= latency["p99_ms"] <= latency["max_ms"]
        assert "execution_ms" in stats["jobs"]


class TestModuleEntry:
    """A served compile of a kernel on a second preset loads the
    optimised IR module the first compile stored, instead of running
    the front half again."""

    def test_two_presets_run_the_front_half_once(self, tmp_path, monkeypatch):
        import repro.frontend
        from repro.pipeline.executor import optimized_module
        from repro.serve.jobs import compute_job_key, execute_job

        parsed = []
        original = repro.frontend.compile_source

        def counting(*args, **kwargs):
            parsed.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.frontend, "compile_source", counting)
        store = ArtifactStore(tmp_path)
        counts = []
        for machine in ("m-tta-2", "mblaze-3"):
            optimized_module.cache_clear()  # as in another shard's worker
            params = normalize_params("compile", {"machine": machine, "kernel": "mips"})
            key = compute_job_key("compile", params)
            payload = execute_job("compile", params, store=store, key=key)
            direct = compile_for_machine(
                original(params["_source"], module_name="mips"), build_machine(machine)
            )
            assert payload["result"]["instruction_count"] == direct.instruction_count
            counts.append(len(parsed))
        optimized_module.cache_clear()
        assert counts == [1, 1]
        assert store.entry_count()["modules"] == 1

    def test_traced_compile_shows_the_skipped_front_half(self, served):
        # the two compiles run in different workers: the second one can
        # only find the module in the store
        src = _compile_pair_source(served.server.manager, same_worker=False)
        with served.client() as c:
            c.compile("m-tta-2", source=src)
            got = c.request("POST", "/v1/compile",
                            {"machine": "m-vliw-2", "source": src, "trace": True})
        trace = got["trace"]
        assert trace["counters"].get("frontend.module_store_hit") == 1
        assert "frontend.module_store_miss" not in trace["counters"]
        names = {rec["name"] for rec in trace["spans"]}
        assert "serve.job.compile" in names
        assert not any(n.startswith(("frontend.", "ir.")) for n in names), names

    def test_second_preset_in_the_same_worker_reuses_its_module(self, served):
        """A worker outlives its jobs, so a compile that runs where the
        first one ran takes the module from that worker's memo."""
        src = _compile_pair_source(served.server.manager, same_worker=True)
        with served.client() as c:
            c.compile("m-tta-2", source=src)
            got = c.request("POST", "/v1/compile",
                            {"machine": "m-vliw-2", "source": src, "trace": True})
        counters = got["trace"]["counters"]
        assert counters.get("frontend.module_reuse") == 1, counters
        assert "frontend.module_store_hit" not in counters
        assert "frontend.module_store_miss" not in counters
        names = {rec["name"] for rec in got["trace"]["spans"]}
        assert not any(n.startswith(("frontend.", "ir.")) for n in names), names


def _compile_pair_source(manager, *, same_worker: bool) -> str:
    """A source no other test submits whose plain ``m-tta-2`` compile and
    traced ``m-vliw-2`` compile land on the same shard (or on different
    ones), and so run in the same worker process (or not)."""
    from repro.serve.jobs import compute_job_key

    for bound in range(1000, 1100):
        src = TINY_SRC.replace("i<100", f"i<{bound}")
        shards = {
            manager.shard_of(compute_job_key("compile", normalize_params(
                "compile", {"machine": machine, "source": src, "trace": trace})))
            for machine, trace in (("m-tta-2", False), ("m-vliw-2", True))
        }
        if (len(shards) == 1) == same_worker:
            return src
    raise AssertionError("no source found for the shard layout")


class TestSweepEndpoint:
    def test_sweep_async_by_default_and_matches_direct(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with BackgroundServer(store=store, jobs=1) as bg:
            with bg.client() as c:
                submitted = c.sweep(machines=["m-tta-2"], kernels=["mips"])
                assert submitted["state"] in ("queued", "running")
                done = c.wait_job(submitted["job_id"])
        served_doc = done["result"]
        assert served_doc["schema_version"] == 1
        # the same store now answers a direct sweep from cache with
        # identical per-pair numbers
        direct = sweep(
            machines=["m-tta-2"], kernels=["mips"], mode="fast", store=store
        )
        assert direct.stats.cache_hits == 1
        assert served_doc["results"] == direct.to_dict()["results"]

    def test_sweep_wait_true_returns_results(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with BackgroundServer(store=store, jobs=1) as bg:
            with bg.client() as c:
                done = c.sweep(
                    machines=["m-tta-2"], kernels=["mips"], wait=True
                )
        assert done["state"] == "done"
        assert done["result"]["stats"]["total"] == 1
        assert not done["result"]["errors"]


class TestServeCLI:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--jobs", "0"],
            ["serve", "--queue-limit", "0"],
            ["serve", "--job-timeout", "0"],
            ["serve", "--port", "70000"],
        ],
    )
    def test_bad_arguments_exit_2(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_sigterm_drains_gracefully(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "store")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1"],
            cwd=repo, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stderr.readline()
            assert "serving on http://" in line, line
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            from repro.serve import ServeClient

            with ServeClient("127.0.0.1", port) as c:
                assert c.healthz()["status"] == "ok"
                got = c.run("m-tta-2", source=TINY_SRC, mode="fast")
                assert got["result"]["exit_code"] == 0
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            raise
        assert proc.returncode == 0
        assert "draining..." in stderr
        assert "drained:" in stderr
