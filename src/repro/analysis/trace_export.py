"""Trace and metrics exporters: JSONL rows and Chrome Trace Event Format.

Two serializations of the same observability data:

* :func:`write_jsonl` — one JSON object per line per
  :class:`~repro.simulate.trace.TraceRecord` (``{"t", "kind", **fields}``),
  the grep/jq-friendly archival format;
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format that ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_
  load directly.  Paired ``<name>.start``/``<name>.end`` span records
  become ``X`` (complete) events, span-less records become ``i`` (instant)
  events, ``flow.link`` causal edges become paired ``s``/``f`` flow
  events (Perfetto draws them as arrows between slices), and the
  :class:`~repro.simulate.telemetry.TelemetryProbe`'s
  ``telemetry.sample`` records become ``C`` counter tracks.  One trace
  *process* per cluster node, one *thread* per rank/process within it,
  named via ``M`` metadata events.

Sim time is seconds; trace-event ``ts``/``dur`` are microseconds.

All on-disk artifacts are written through :func:`atomic_write` — the
payload lands in a same-directory temp file that is renamed over the
target only once fully flushed, so an interrupted run can truncate
nothing: CI either diffs the previous complete artifact or a new
complete one, never half a JSON document.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, TextIO, Tuple

__all__ = ["atomic_write", "atomic_write_bytes", "open_trace_text",
           "write_jsonl", "read_jsonl", "chrome_trace",
           "write_chrome_trace", "metrics_payload", "write_metrics",
           "telemetry_series"]


@contextmanager
def atomic_write(path: str) -> Iterator[TextIO]:
    """Open ``<path>.tmp.<pid>`` for writing; rename over ``path`` on
    success, unlink on failure.  ``os.replace`` is atomic on POSIX and
    Windows, and the temp file lives in the target directory so the
    rename never crosses a filesystem boundary."""
    tmp = f"{path}.tmp.{os.getpid()}"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        yield fh
        fh.flush()
        fh.close()
        os.replace(tmp, path)
    except BaseException:
        fh.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def atomic_write_bytes(path: str) -> Iterator[Any]:
    """Binary twin of :func:`atomic_write` (gzip artifacts and the like)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    fh = open(tmp, "wb")
    try:
        yield fh
        fh.flush()
        fh.close()
        os.replace(tmp, path)
    except BaseException:
        fh.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_GZIP_MAGIC = b"\x1f\x8b"


def _is_gzip(path: str) -> bool:
    """Content sniff, not extension: a renamed archive still reads."""
    try:
        with open(path, "rb") as fh:
            return fh.read(2) == _GZIP_MAGIC
    except OSError:
        return False


def open_trace_text(path: str) -> TextIO:
    """Open a trace artifact for text reading, gzip-transparently.

    Compression is detected from the gzip magic bytes, so both
    ``trace.jsonl`` and ``trace.jsonl.gz`` (however they were named)
    read identically.
    """
    if _is_gzip(path):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")

#: kind prefix -> Chrome trace category (drives Perfetto's track colors).
_CATEGORIES = (
    ("migration", "framework"),
    ("phase", "framework"),
    ("session", "framework"),
    ("blcr", "checkpoint"),
    ("nla", "launch"),
    ("pool", "buffer-pool"),
    ("msg", "mpi"),
    ("qp", "network"),
    ("ib", "network"),
    ("mr", "network"),
    ("fluid", "network"),
    ("eth", "network"),
    ("ftb", "ftb"),
    ("disk", "storage"),
    ("fs", "storage"),
    ("pvfs", "storage"),
)


def _category(kind: str) -> str:
    head = kind.split(".", 1)[0]
    for prefix, cat in _CATEGORIES:
        if head == prefix:
            return cat
    return "other"


def write_jsonl(trace, path: str) -> int:
    """Write every record as one JSON line; returns the number of rows.

    A path ending in ``.gz`` is written gzip-compressed (fig6-scale
    traces shrink roughly 10x); readers sniff the magic bytes, so the
    two forms are interchangeable downstream.
    """
    n = 0
    if path.endswith(".gz"):
        with atomic_write_bytes(path) as raw:
            # mtime=0 and an empty embedded filename keep the archive
            # byte-identical across runs (and across tmp-file names), so
            # the determinism matrix can diff compressed artifacts too.
            with gzip.GzipFile(filename="", fileobj=raw, mode="wb",
                               mtime=0) as gz:
                fh = io.TextIOWrapper(gz, encoding="utf-8")
                for rec in trace:
                    fh.write(json.dumps(rec.as_dict(), default=str))
                    fh.write("\n")
                    n += 1
                fh.flush()
                fh.detach()
        return n
    with atomic_write(path) as fh:
        for rec in trace:
            fh.write(json.dumps(rec.as_dict(), default=str))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path: str):
    """Load a :func:`write_jsonl` export back into a (clockless) Tracer,
    so offline analysis (critical path, Chrome export) works on archived
    traces exactly as on live ones.  Gzip-compressed archives are
    detected by content and decompressed transparently."""
    from ..simulate.trace import Tracer

    tracer = Tracer()
    with open_trace_text(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            t = row.pop("t")
            kind = row.pop("kind")
            tracer.record(t, kind, **row)
    return tracer


class _IdAllocator:
    """Stable small-int ids for node (pid) and lane (tid) names."""

    def __init__(self, start: int = 1):
        self._ids: Dict[Any, int] = {}
        self._next = start

    def __call__(self, key: Any) -> int:
        got = self._ids.get(key)
        if got is None:
            got = self._ids[key] = self._next
            self._next += 1
        return got

    def items(self) -> Iterable[Tuple[Any, int]]:
        return self._ids.items()


def _locate(fields: Dict[str, Any]) -> Tuple[str, str]:
    """(node-lane, thread-lane) a record belongs to in the trace UI."""
    node = fields.get("node") or fields.get("src") or fields.get("source") \
        or fields.get("client") or "cluster"
    for key in ("rank", "proc", "client", "cq", "qp"):
        if key in fields:
            return str(node), f"{key}:{fields[key]}"
    return str(node), "main"


def chrome_trace(trace) -> Dict[str, Any]:
    """Build a Chrome Trace Event Format document (a JSON-able dict).

    Span pairs are matched on their ``span`` id, so nested and concurrent
    operations come out as properly stacked ``X`` events; a span left open
    at the end of the run (a crashed simulation) is emitted with zero
    duration rather than dropped.
    """
    events: List[Dict[str, Any]] = []
    pids = _IdAllocator()
    tids: Dict[int, _IdAllocator] = {}
    seen_lanes: Dict[Tuple[int, int], Tuple[str, str]] = {}

    def lane(fields: Dict[str, Any]) -> Tuple[int, int]:
        node, thread = _locate(fields)
        pid = pids(node)
        alloc = tids.get(pid)
        if alloc is None:
            alloc = tids[pid] = _IdAllocator()
        tid = alloc(thread)
        seen_lanes[(pid, tid)] = (node, thread)
        return pid, tid

    open_spans: Dict[int, Tuple[Any, Dict[str, Any]]] = {}
    #: span id -> (start_ts, end_ts, pid, tid) in microseconds, for
    #: anchoring flow endpoints inside their slices.
    span_slices: Dict[int, Tuple[float, float, int, int]] = {}
    flow_links: List[Tuple[float, int, int, str]] = []
    telemetry_pid: List[int] = []
    for rec in trace:
        # Read-only view of the record's own dict: every ``args`` handed
        # out below is a copy, so the document never aliases the trace.
        fields = rec.fields
        if rec.kind == "flow.link":
            flow_links.append((rec.time, fields.get("src"),
                               fields.get("dst"),
                               str(fields.get("edge", "flow"))))
            continue
        if rec.kind == "telemetry.sample":
            # Probe samples become counter tracks, so an archived JSONL
            # reloads into the same Perfetto view as the live run.
            if not telemetry_pid:
                telemetry_pid.append(pids("telemetry"))
                seen_lanes[(telemetry_pid[0], 0)] = ("telemetry", "main")
            events.append({
                "name": str(fields.get("metric")), "cat": "telemetry",
                "ph": "C", "ts": rec.time * 1e6, "pid": telemetry_pid[0],
                "args": {"value": fields.get("value")},
            })
            continue
        span_id = fields.get("span")
        if span_id is not None and rec.kind.endswith(".start"):
            open_spans[span_id] = (rec, fields)
            continue
        if span_id is not None and rec.kind.endswith(".end"):
            start_rec, start_fields = open_spans.pop(
                span_id, (rec, fields))
            name = rec.kind[: -len(".end")]
            merged = dict(start_fields)
            merged.update(fields)
            pid, tid = lane(merged)
            if name == "phase" and "phase" in merged:
                name = f"phase:{merged['phase']}"
            events.append({
                "name": name, "cat": _category(rec.kind), "ph": "X",
                "ts": start_rec.time * 1e6,
                "dur": max(0.0, (rec.time - start_rec.time) * 1e6),
                "pid": pid, "tid": tid, "args": merged,
            })
            span_slices[span_id] = (start_rec.time * 1e6, rec.time * 1e6,
                                    pid, tid)
            continue
        pid, tid = lane(fields)
        events.append({
            "name": rec.kind, "cat": _category(rec.kind), "ph": "i",
            "ts": rec.time * 1e6, "s": "t",
            "pid": pid, "tid": tid, "args": dict(fields),
        })
    # Unbalanced starts (sim aborted mid-span): keep them visible.
    for span_id, (start_rec, start_fields) in open_spans.items():
        pid, tid = lane(start_fields)
        events.append({
            "name": start_rec.kind[: -len(".start")] + " (unclosed)",
            "cat": _category(start_rec.kind), "ph": "X",
            "ts": start_rec.time * 1e6, "dur": 0.0,
            "pid": pid, "tid": tid, "args": dict(start_fields),
        })
        span_slices[span_id] = (start_rec.time * 1e6, start_rec.time * 1e6,
                                pid, tid)
    # Flow edges: an `s` on the source slice paired with an `f` on the
    # destination slice.  Chrome binds each endpoint to the slice enclosing
    # its (pid, tid, ts), so timestamps are clamped into the span interval.
    for flow_id, (t, src, dst, edge) in enumerate(flow_links, start=1):
        src_slice = span_slices.get(src)
        dst_slice = span_slices.get(dst)
        if src_slice is None or dst_slice is None:
            continue  # endpoint span never appeared in this trace
        ts_us = t * 1e6
        s0, s1, s_pid, s_tid = src_slice
        d0, d1, d_pid, d_tid = dst_slice
        events.append({
            "name": edge, "cat": "flow", "ph": "s", "id": flow_id,
            "ts": min(max(ts_us, s0), s1), "pid": s_pid, "tid": s_tid,
        })
        events.append({
            "name": edge, "cat": "flow", "ph": "f", "bp": "e", "id": flow_id,
            "ts": min(max(ts_us, d0), d1), "pid": d_pid, "tid": d_tid,
        })

    meta: List[Dict[str, Any]] = []
    named_pids = set()
    for (pid, tid), (node, thread) in sorted(seen_lanes.items()):
        if pid not in named_pids:
            named_pids.add(pid)
            meta.append({"name": "process_name", "ph": "M", "pid": pid,
                         "args": {"name": node}})
        meta.append({"name": "thread_name", "ph": "M", "pid": pid,
                     "tid": tid, "args": {"name": thread}})
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace, path: str) -> int:
    """Write the Chrome trace JSON; returns the number of trace events."""
    doc = chrome_trace(trace)
    with atomic_write(path) as fh:
        json.dump(doc, fh, default=str)
    return len(doc["traceEvents"])


def metrics_payload(metrics) -> Dict[str, Any]:
    """The ``metrics.json`` document for a registry (or ``None``)."""
    return {} if metrics is None else metrics.as_dict()


def write_metrics(metrics, path: str) -> int:
    payload = metrics_payload(metrics)
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
    return len(payload)


def telemetry_series(trace) -> Dict[str, List[Tuple[float, float]]]:
    """``{metric: [(t, value), ...]}`` from a trace's ``telemetry.sample``
    records — the probe's time-series recovered from a live tracer or a
    ``read_jsonl()`` reload, in record order (sample order)."""
    out: Dict[str, List[Tuple[float, float]]] = {}
    for rec in trace.of_kind("telemetry.sample"):
        metric = rec.get("metric")
        if metric is None:
            continue
        out.setdefault(str(metric), []).append(
            (rec.time, float(rec.get("value", 0.0))))
    return out
