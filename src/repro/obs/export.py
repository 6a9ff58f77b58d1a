"""Trace exporters: merged Chrome-trace documents, flat JSON, summaries.

The on-disk format is the Chrome trace-event *object* form —
``{"traceEvents": [...], ...}`` — loadable directly in
``chrome://tracing`` / Perfetto.  Repro-specific data (merged counters,
per-process payload metadata) rides in a ``"repro"`` side table that
trace viewers ignore but ``repro trace summary`` consumes.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.tracer import PAYLOAD_SCHEMA, Tracer

#: bump when the merged-document layout changes
TRACE_DOC_SCHEMA = 1


def merge_payloads(payloads: list[dict]) -> dict:
    """Aggregate tracer payloads from any number of processes.

    Counters sum across payloads; gauges keep the last write per name
    (payload order); spans stay attributed to their producing payload.
    Returns ``{"schema", "payloads", "counters", "gauges"}``.
    """
    merged_counters: dict[str, int] = {}
    merged_gauges: dict[str, float] = {}
    checked = []
    for payload in payloads:
        payload = Tracer.validate_payload(payload)
        checked.append(payload)
        for name, value in payload["counters"].items():
            merged_counters[name] = merged_counters.get(name, 0) + value
        merged_gauges.update(payload["gauges"])
    return {
        "schema": PAYLOAD_SCHEMA,
        "payloads": checked,
        "counters": merged_counters,
        "gauges": merged_gauges,
    }


def to_chrome_trace(payloads: list[dict]) -> dict:
    """Build one Chrome-trace document from tracer *payloads*.

    Spans become ``ph:"X"`` complete events; each payload becomes one
    Chrome process (named after ``payload["process"]``).  Timestamps are
    aligned on the earliest payload origin, so a merged sweep timeline
    shows the true wall-clock overlap of the worker processes.
    """
    merged = merge_payloads(payloads)
    events: list[dict] = []
    origins = [p["origin_epoch_us"] for p in merged["payloads"]] or [0.0]
    base = min(origins)
    for pid, payload in enumerate(merged["payloads"], start=1):
        offset = payload["origin_epoch_us"] - base
        process_args = {"name": payload["process"]}
        if payload.get("request_id"):
            # request correlation: the serve layer stamps each worker
            # tracer with the originating HTTP request id
            process_args["request_id"] = payload["request_id"]
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": process_args,
            }
        )
        for rec in payload["spans"]:
            event = {
                "name": rec["name"],
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": round(rec["ts"] + offset, 1),
                "dur": rec["dur"],
            }
            if rec.get("args"):
                event["args"] = rec["args"]
            events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "repro": {
            "schema": TRACE_DOC_SCHEMA,
            "counters": merged["counters"],
            "gauges": merged["gauges"],
            "payloads": merged["payloads"],
        },
    }


def write_trace(path: str | Path, doc: dict) -> Path:
    """Serialise *doc* to *path*.  Propagates ``OSError`` — the CLI turns
    an unwritable destination into exit code 2 with a message."""
    path = Path(path)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


def load_trace(path: str | Path) -> dict:
    """Load and shape-check a trace document written by :func:`write_trace`.

    Raises ``OSError`` for unreadable paths and ``ValueError`` for
    files that are not repro trace documents.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"not JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("not a Chrome-trace document (missing traceEvents)")
    repro = doc.get("repro")
    if not isinstance(repro, dict) or repro.get("schema") != TRACE_DOC_SCHEMA:
        raise ValueError(
            "not a repro trace document (missing/mismatched repro side table)"
        )
    return doc


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def _self_times(spans: list[dict]) -> list[tuple[dict, float]]:
    """Pair each span of one payload with its exclusive (self) time.

    A span's self time is its duration minus the durations of its
    direct children.  The hierarchy comes from ``ts`` and ``depth``: a
    span's parent is the span one level up that started most recently
    before it.  Self times of a tree sum to its root's duration.
    Nesting is per payload: time a span spends waiting on spans recorded
    by another tracer (a worker process, or a serial sweep's per-task
    tracers) stays in its self time.
    """
    ordered = sorted(spans, key=lambda rec: (rec["ts"], rec["depth"]))
    self_us = [rec["dur"] for rec in ordered]
    latest: dict[int, int] = {}  # depth -> index of the last span started there
    for index, rec in enumerate(ordered):
        parent = latest.get(rec["depth"] - 1)
        if parent is not None:
            self_us[parent] -= rec["dur"]
        latest[rec["depth"]] = index
    return list(zip(ordered, self_us))


def summarize(doc: dict) -> dict:
    """Aggregate a trace document for human consumption.

    Returns ``{"spans": [...], "counters": {...}, "gauges": {...},
    "processes": [...]}`` where each span row carries ``name``,
    ``count``, ``total_us``, ``self_us`` (exclusive time: total minus
    the time in direct child spans of the same payload), ``mean_us``
    and ``max_us``, sorted by total time descending.
    """
    by_name: dict[str, list[float]] = {}
    self_by_name: dict[str, float] = {}
    processes: list[str] = []
    for payload in doc["repro"]["payloads"]:
        processes.append(payload["process"])
        for rec, self_us in _self_times(payload["spans"]):
            by_name.setdefault(rec["name"], []).append(rec["dur"])
            self_by_name[rec["name"]] = self_by_name.get(rec["name"], 0.0) + self_us
    rows = [
        {
            "name": name,
            "count": len(durs),
            "total_us": round(sum(durs), 1),
            "self_us": round(self_by_name[name], 1),
            "mean_us": round(sum(durs) / len(durs), 1),
            "max_us": round(max(durs), 1),
        }
        for name, durs in by_name.items()
    ]
    rows.sort(key=lambda r: (-r["total_us"], r["name"]))
    return {
        "spans": rows,
        "counters": dict(doc["repro"]["counters"]),
        "gauges": dict(doc["repro"]["gauges"]),
        "processes": processes,
    }


def format_summary(summary: dict, top: int = 20) -> str:
    """Render :func:`summarize` output as an aligned text report."""
    lines = [
        f"{len(summary['processes'])} process(es): "
        + ", ".join(summary["processes"][:8])
        + (" ..." if len(summary["processes"]) > 8 else "")
    ]
    lines.append("")
    lines.append(f"top spans (by total time, showing {top}):")
    lines.append(
        f"  {'span':32s} {'count':>7s} {'total':>12s} {'self':>12s} "
        f"{'mean':>10s} {'max':>10s}"
    )
    for row in summary["spans"][:top]:
        lines.append(
            f"  {row['name']:32s} {row['count']:7d} "
            f"{row['total_us']:10.1f}us {row['self_us']:10.1f}us "
            f"{row['mean_us']:8.1f}us {row['max_us']:8.1f}us"
        )
    if not summary["spans"]:
        lines.append("  (no spans recorded)")
    lines.append("")
    lines.append("counters:")
    for name in sorted(summary["counters"]):
        lines.append(f"  {name:40s} {summary['counters'][name]:>14,d}")
    if not summary["counters"]:
        lines.append("  (no counters recorded)")
    if summary["gauges"]:
        lines.append("")
        lines.append("gauges:")
        for name in sorted(summary["gauges"]):
            lines.append(f"  {name:40s} {summary['gauges'][name]:>14}")
    return "\n".join(lines)
