"""Run reports: sparklines, section assembly, progress heartbeat."""

import io
import time

from repro.analysis import read_jsonl, telemetry_series, write_jsonl
from repro.obs import (
    ProgressReporter,
    RunManifest,
    render_run_report,
    sparkline,
)
from repro.scenario import Scenario
from repro.simulate import MetricsRegistry, TelemetryProbe, Tracer


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
    line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert line == "▁▂▃▄▅▆▇█"
    # Resampling keeps peaks (bucket-max) and respects width.
    wide = sparkline([0.0] * 100 + [10.0] + [0.0] * 100, width=16)
    assert len(wide) == 16
    assert "█" in wide


def _observed_run():
    tracer, registry = Tracer(), MetricsRegistry()
    sc = Scenario.build(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                        iterations=20, trace=tracer, metrics=registry)
    sc.sim.attach_probe(TelemetryProbe())
    report = sc.run_migration("node1", at=2.0)
    return tracer, registry, report


def test_full_report_renders_all_sections():
    tracer, registry, _ = _observed_run()
    manifest = RunManifest.new("report", {"app": "LU.C"}, seed=0)
    manifest.results = {"total_seconds": 6.1}
    manifest.artifacts = ["trace.jsonl"]
    text = render_run_report(manifest=manifest, records=list(tracer.records),
                             telemetry=telemetry_series(tracer),
                             metrics_summary=registry.as_dict())
    for section in ("## Run", "## Configuration", "## Phase waterfall",
                    "## Critical-path blame", "## Timeline",
                    "## Telemetry time-series", "## Metrics summary",
                    "## Recorded results", "## Artifacts"):
        assert section in text, section
    # The acceptance bar: at least four sampled series in the table.
    rows = [line for line in text.splitlines()
            if line.startswith("| `kernel.") or line.startswith("| `pool.")
            or line.startswith("| `qp.")]
    assert len(rows) >= 4, text
    assert "Dominant component:" in text


def test_report_accepts_series_dict_from_archived_trace(tmp_path):
    tracer, registry, _ = _observed_run()
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(tracer, path)
    archived = read_jsonl(path)
    series = telemetry_series(archived)
    text = render_run_report(records=list(archived), telemetry=series,
                             metrics_summary=registry.as_dict())
    assert "## Telemetry time-series" in text
    assert f"{len(series)} sampled series." in text
    assert text == render_run_report(records=list(tracer.records),
                                     telemetry=telemetry_series(tracer),
                                     metrics_summary=registry.as_dict())


def test_report_degrades_without_spans_or_telemetry():
    text = render_run_report(records=[], telemetry=None)
    assert text.startswith("# Run report")
    assert "waterfall" not in text.lower() or "skipped" in text


def test_progress_reporter_rate_limits_and_done_always_writes():
    buf = io.StringIO()
    rep = ProgressReporter(interval=1000.0, label="test", stream=buf)
    assert rep.tick(sim_time=1.0, detail="warm")
    # Immediately after, the wall-clock gate drops further ticks.
    assert not rep.tick(sim_time=2.0)
    assert not rep.tick(sim_time=3.0)
    rep.done("finished")
    out = buf.getvalue()
    assert rep.lines_written == 2
    assert "[test" in out and "sim=1.00s" in out and "warm" in out
    assert "done in" in out and "finished" in out


def test_progress_reporter_first_tick_emits_on_freshly_booted_host(
        monkeypatch):
    """The monotonic clock counts from boot: a host up for less than
    ``interval`` seconds must still get its first heartbeat."""
    monkeypatch.setattr(time, "monotonic", lambda: 0.5)
    buf = io.StringIO()
    rep = ProgressReporter(interval=1.0, label="boot", stream=buf)
    assert rep.tick(sim_time=0.0)
    assert not rep.tick(sim_time=1.0)
    assert rep.lines_written == 1
    assert "[boot" in buf.getvalue()


def test_progress_reporter_hooks_probe_samples():
    from repro.simulate import Simulator

    buf = io.StringIO()
    rep = ProgressReporter(interval=0.0001, label="probe", stream=buf)
    sim = Simulator()
    sim.attach_probe(TelemetryProbe(interval=0.5, on_sample=rep.on_sample))
    for i in range(1, 10):
        sim.timeout(i * 0.5)
    sim.run(until=5.0)
    assert rep.lines_written > 0
    assert "events" in buf.getvalue()
