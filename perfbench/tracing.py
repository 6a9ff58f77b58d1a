"""In-memory spans recorded from outside the program under test.

The traced pass wraps the public entry point of every layer at run time
(module attributes are swapped in the worker process; nothing under
``src/`` is edited and ``repro.obs`` stays off, because its own spans
change what runs).  Each span carries its name, start, end, parent and
the op id it served.  Spans stay in memory and are written out when the
pass ends.

A layer's self time is its spans' durations minus the part covered by
their child spans.  Every span belongs to exactly one bucket, and the
pass's root span covers the whole timed phase, so the buckets' self
times sum to the traced wall time by construction; ``bench.unattributed``
is the root's own self time (benchmark loop, progress callbacks,
host-speed probes).

The traced ``serve-mixed`` server records its own store and fingerprint
spans (``serve_traced.py``); :func:`adopt` nests them under the client
request they served, so the accounting still closes.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

#: self-time bucket -> per-layer metric name
SELF_METRICS = {
    "frontend": "frontend.self_s",
    "ir": "ir.self_s",
    "backend": "backend.self_s",
    "sim.fast": "sim.fast.self_s",
    "sim.turbo": "sim.turbo.self_s",
    "sim.native": "sim.native.self_s",
    "sim.scalar": "sim.scalar.self_s",
    "sim.native.cgen": "sim.native.cgen_s",
    "fpga": "fpga.self_s",
    "pipeline.fingerprint": "pipeline.fingerprint_s",
    "pipeline.store_read": "pipeline.store_read_s",
    "pipeline.store_write": "pipeline.store_write_s",
    "pipeline.orchestration": "pipeline.orchestration_s",
    "explore.mutate": "explore.mutate_s",
    "serve.client": "serve.client_s",
    "bench.unattributed": "bench.unattributed_s",
}


class Recorder:
    """Span stacks (one per thread) plus counters for one traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self.op = 0
        self.counts: Counter = Counter()
        #: spans are recorded only while set (the traced timed phase)
        self.active = False

    def span(self, name: str, **attrs):
        """Context manager yielding the span record (a throwaway dict
        while inactive, so untraced passes pay almost nothing)."""
        if not self.active:
            return nullcontext({})
        return self._span(name, attrs)

    @property
    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def _span(self, name: str, attrs: dict):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a *name* span;
        *after* is called as ``after(record, result, args, kwargs)`` once
        the span has ended."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if after is not None:
                after(record, result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)


def adopt(spans: list[dict], foreign: list[dict], container: str) -> int:
    """Append spans recorded in another process (same monotonic clock)
    to *spans*, each top-level one as a child of the *container* span
    whose interval holds it; foreign spans outside every container (and
    their descendants) are dropped.  Returns how many were adopted."""
    hosts = sorted((s for s in spans if s["name"] == container),
                   key=lambda s: s["start"])
    starts = [s["start"] for s in hosts]
    new_id: dict[int, int] = {}
    for span in sorted(foreign, key=lambda s: s["id"]):
        if span["parent"] is None:
            index = bisect.bisect_right(starts, span["start"]) - 1
            if index < 0 or span["end"] > hosts[index]["end"]:
                continue
            parent, op = hosts[index]["id"], hosts[index]["op"]
        elif span["parent"] in new_id:
            parent = new_id[span["parent"]]
            op = spans[parent]["op"]
        else:
            continue
        new_id[span["id"]] = len(spans)
        spans.append(dict(span, id=len(spans), parent=parent, op=op))
    return len(new_id)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the duration of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def bucket_of(name: str) -> str:
    """The self-time bucket a span name is accounted to."""
    if name in ("bench.workload", "bench.callback", "bench.probe"):
        return "bench.unattributed"
    if name.startswith("sim.run."):
        return "sim." + name[len("sim.run."):]
    if name.startswith("serve."):
        return "serve.client"
    if name.startswith("pipeline.") and name not in (
        "pipeline.fingerprint", "pipeline.store_read", "pipeline.store_write"
    ):
        return "pipeline.orchestration"
    if name in ("explore.run_explore", "explore.spawn_mutants"):
        return "pipeline.orchestration"
    return name


def bucket_totals(spans: list[dict]) -> dict[str, float]:
    """Self seconds per bucket; raises on a span outside every bucket."""
    totals = dict.fromkeys(SELF_METRICS, 0.0)
    for span_id, seconds in self_times(spans).items():
        bucket = bucket_of(spans[span_id]["name"])
        if bucket not in totals:
            raise ValueError(f"span {spans[span_id]['name']!r} has no bucket")
        totals[bucket] += seconds
    return totals
