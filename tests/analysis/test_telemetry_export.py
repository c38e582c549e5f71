"""Telemetry through the exporters: Chrome ``C`` lanes, JSONL round
trip, and the atomic-write guarantee."""

import json
import os

import pytest

from repro.analysis import (
    atomic_write,
    chrome_trace,
    read_jsonl,
    telemetry_series,
    write_jsonl,
)
from repro.simulate import MetricsRegistry, Simulator, TelemetryProbe, Tracer
from repro.simulate.telemetry import KERNEL_SERIES_UNITS


@pytest.fixture()
def probed_trace():
    tracer = Tracer()
    sim = Simulator(trace=tracer, metrics=MetricsRegistry())
    gauge = sim.metrics.gauge("pool.occupancy", unit="ratio")

    def load():
        for i in range(1, 20):
            gauge.set(i / 20)
            yield sim.timeout(0.3)

    sim.spawn(load())
    probe = sim.attach_probe(TelemetryProbe(interval=0.5))
    sim.run(until=5.0)
    return tracer, probe


def test_telemetry_samples_become_chrome_counter_events(probed_trace):
    tracer, probe = probed_trace
    doc = chrome_trace(tracer)
    counters = [e for e in doc["traceEvents"]
                if e["ph"] == "C" and e["cat"] == "telemetry"]
    assert counters, "telemetry.sample records must export as C events"
    names = {e["name"] for e in counters}
    assert {"kernel.queue_depth", "pool.occupancy"} <= names
    # All telemetry counters ride one dedicated trace process, and each
    # series' timestamps are strictly monotonic.
    assert len({e["pid"] for e in counters}) == 1
    for name in names:
        ts = [e["ts"] for e in counters if e["name"] == name]
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)


def test_telemetry_series_survives_jsonl_round_trip(probed_trace, tmp_path):
    tracer, probe = probed_trace
    live = telemetry_series(tracer)
    # Every kernel series and the registry's gauge, one point per tick.
    assert set(live) == set(KERNEL_SERIES_UNITS) | {"pool.occupancy"}
    assert all(len(points) == probe.samples_taken
               for points in live.values())

    path = tmp_path / "trace.jsonl"
    write_jsonl(tracer, str(path))
    reloaded = telemetry_series(read_jsonl(str(path)))
    assert reloaded == live


def test_sanitizer_accepts_telemetry_samples(probed_trace):
    from repro.sanitize import TraceChecker

    tracer, _ = probed_trace
    violations = TraceChecker.check_trace(tracer)
    assert violations == []


def test_atomic_write_failure_leaves_no_partial_file(tmp_path):
    target = tmp_path / "artifact.json"
    target.write_text(json.dumps({"complete": True}))
    with pytest.raises(RuntimeError):
        with atomic_write(str(target)) as fh:
            fh.write('{"complete": fal')
            raise RuntimeError("crash mid-write")
    # The previous complete artifact is untouched and no temp remains.
    assert json.loads(target.read_text()) == {"complete": True}
    assert os.listdir(tmp_path) == ["artifact.json"]


def test_atomic_write_success_replaces_content(tmp_path):
    target = tmp_path / "out.txt"
    with atomic_write(str(target)) as fh:
        fh.write("v1")
    with atomic_write(str(target)) as fh:
        fh.write("v2")
    assert target.read_text() == "v2"
    assert os.listdir(tmp_path) == ["out.txt"]
