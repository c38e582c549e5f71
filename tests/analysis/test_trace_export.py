"""Exporters (JSONL, Chrome trace) and span-aware timeline extraction."""

import gzip
import json

import pytest

from repro.analysis import (
    chrome_trace,
    extract_phases,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro.simulate import MetricsRegistry, Simulator, Tracer


def make_trace():
    sim = Simulator(trace=Tracer())
    t = sim.trace

    def run(sim):
        with t.span("phase", phase="Job Stall", node="node0"):
            yield sim.timeout(1.0)
        with t.span("phase", phase="Job Migration", node="node0") as sp:
            t.record(sim.now, "pool.chunk.fill", seq=0, proc="p0",
                     nbytes=1024, node="node0", wait=0.0)
            yield sim.timeout(2.0)
            sp.annotate(bytes=1024)

    sim.run(until=sim.spawn(run(sim)))
    return sim, t


def test_write_jsonl_round_trip(tmp_path):
    _, t = make_trace()
    path = tmp_path / "trace.jsonl"
    n = write_jsonl(t, str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == n == len(t)
    assert all("t" in r and "kind" in r for r in rows)
    fill = next(r for r in rows if r["kind"] == "pool.chunk.fill")
    assert fill["nbytes"] == 1024


def test_chrome_trace_structure():
    _, t = make_trace()
    doc = chrome_trace(t)
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in xs} == {"phase:Job Stall",
                                       "phase:Job Migration"}
    mig = next(e for e in xs if e["name"] == "phase:Job Migration")
    assert mig["dur"] == pytest.approx(2e6)  # microseconds
    assert mig["args"]["bytes"] == 1024  # annotation survives the merge
    assert isinstance(mig["pid"], int) and isinstance(mig["tid"], int)
    # Instant event for the span-less record; metadata names the lanes.
    assert any(e["ph"] == "i" and e["name"] == "pool.chunk.fill"
               for e in events)
    names = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name"
               and e["args"]["name"] == "node0" for e in names)


def test_read_jsonl_round_trips_tracer(tmp_path):
    _, t = make_trace()
    path = tmp_path / "trace.jsonl"
    write_jsonl(t, str(path))
    t2 = read_jsonl(str(path))
    assert len(t2) == len(t)
    assert t2.kinds() == t.kinds()
    for a, b in zip(t.records, t2.records):
        assert a.time == b.time and a.kind == b.kind
    fill = t2.of_kind("pool.chunk.fill")[0]
    assert fill["nbytes"] == 1024
    # The loaded trace feeds the same analyses as the live one.
    assert [iv.name for iv in extract_phases(t2)] == \
        [iv.name for iv in extract_phases(t)]


def test_write_jsonl_gz_writes_real_gzip(tmp_path):
    _, t = make_trace()
    path = tmp_path / "trace.jsonl.gz"
    n = write_jsonl(t, str(path))
    raw = path.read_bytes()
    assert raw[:2] == b"\x1f\x8b", "gzip magic expected"
    rows = [json.loads(line)
            for line in gzip.decompress(raw).decode().splitlines()]
    assert len(rows) == n == len(t)


def test_write_jsonl_gz_is_deterministic(tmp_path):
    _, t = make_trace()
    a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
    write_jsonl(t, str(a))
    write_jsonl(t, str(b))
    # mtime is pinned to 0, so byte-identical archives for equal traces.
    assert a.read_bytes() == b.read_bytes()


def test_read_jsonl_transparently_reads_gzip(tmp_path):
    _, t = make_trace()
    path = tmp_path / "trace.jsonl.gz"
    write_jsonl(t, str(path))
    t2 = read_jsonl(str(path))
    assert len(t2) == len(t)
    assert t2.kinds() == t.kinds()


def test_read_jsonl_sniffs_content_not_extension(tmp_path):
    # A gzip stream with a misleading plain .jsonl name still reads.
    _, t = make_trace()
    gz = tmp_path / "trace.jsonl.gz"
    write_jsonl(t, str(gz))
    disguised = tmp_path / "trace.jsonl"
    disguised.write_bytes(gz.read_bytes())
    assert len(read_jsonl(str(disguised))) == len(t)


def make_flow_trace():
    """Two slices on different lanes joined by one flow edge."""
    t = Tracer()
    clock = [0.0]
    t.bind(lambda: clock[0])
    with t.span("producer", node="n0") as src:
        clock[0] = 1.0
    clock[0] = 1.5
    with t.span("consumer", node="n1") as dst:
        clock[0] = 2.0
    t.link(src, dst, "handoff")
    return t


def test_chrome_trace_emits_paired_flow_events():
    doc = chrome_trace(make_flow_trace())
    events = doc["traceEvents"]
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert len(starts) == len(finishes) == 1
    s, f = starts[0], finishes[0]
    assert s["id"] == f["id"]
    assert s["name"] == f["name"] == "handoff"
    assert s["cat"] == f["cat"] == "flow"
    assert f["bp"] == "e"  # bind to the enclosing slice
    # Each endpoint's ts is clamped inside its slice so viewers can bind
    # the arrow: producer ran [0,1]s, consumer [1.5,2]s, link at t=2.
    assert 0.0 <= s["ts"] <= 1e6
    assert 1.5e6 <= f["ts"] <= 2e6
    # Endpoints sit on the lanes of their respective slices.
    xs = {e["name"]: e for e in events if e["ph"] == "X"}
    assert (s["pid"], s["tid"]) == (xs["producer"]["pid"],
                                    xs["producer"]["tid"])
    assert (f["pid"], f["tid"]) == (xs["consumer"]["pid"],
                                    xs["consumer"]["tid"])


def test_chrome_trace_drops_flows_with_missing_slices():
    t = Tracer(clock=lambda: 0.0)
    with t.span("only") as sp:
        pass
    t.record(0.0, "flow.link", flow=1, src=sp.span_id, dst=999,
             edge="dangling")
    events = chrome_trace(t)["traceEvents"]
    assert not [e for e in events if e["ph"] in ("s", "f")]


def test_chrome_trace_counter_track(tmp_path):
    _, t = make_trace()
    t.record(1.0, "telemetry.sample", metric="pool.fill.bytes", value=4096)
    doc = chrome_trace(t)
    cs = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert cs and cs[0]["name"] == "pool.fill.bytes"
    assert cs[0]["args"]["value"] == 4096
    assert cs[0]["ts"] == 1.0e6
    # And the whole document survives a JSON round trip on disk.
    path = tmp_path / "trace.json"
    n = write_chrome_trace(t, str(path))
    loaded = json.load(open(path))
    assert len(loaded["traceEvents"]) == n > 0


def test_chrome_trace_keeps_unclosed_spans():
    t = Tracer(clock=lambda: 0.0)
    t.span("dangling", node="n1").__enter__()
    doc = chrome_trace(t)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert xs[0]["name"] == "dangling (unclosed)"
    assert xs[0]["dur"] == 0.0


def test_write_metrics_payload(tmp_path):
    m = MetricsRegistry()
    m.counter("a", unit="B").inc(7)
    m.histogram("h").observe(0.5)
    path = tmp_path / "metrics.json"
    n = write_metrics(m, str(path))
    payload = json.load(open(path))
    assert n == 2
    assert payload["a"]["value"] == 7
    assert payload["h"]["count"] == 1


def test_extract_phases_concurrent_same_name():
    """Two overlapping migrations run the same-named phases; span ids keep
    the pairs straight."""
    sim = Simulator(trace=Tracer())
    t = sim.trace

    def cycle(sim, delay):
        with t.span("phase", phase="Job Stall"):
            yield sim.timeout(delay)

    sim.spawn(cycle(sim, 2.0))
    sim.spawn(cycle(sim, 3.0))
    sim.run()
    ivs = extract_phases(t)
    assert [iv.duration for iv in ivs] == [2.0, 3.0]
    assert all(iv.name == "Job Stall" for iv in ivs)
