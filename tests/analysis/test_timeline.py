"""Tests for trace-based phase timelines."""

import pytest

from repro import Scenario
from repro.analysis import extract_phases, render_timeline
from repro.analysis.timeline import PhaseInterval
from repro.simulate import Tracer


def test_extract_phases_from_real_migration():
    tracer = Tracer()
    sc = Scenario.build(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                        iterations=6, trace=tracer)
    report = sc.run_migration("node1", at=0.5)
    intervals = extract_phases(tracer)
    names = [iv.name for iv in intervals]
    assert names == ["Job Stall", "Job Migration", "Restart", "Resume"]
    # Intervals are contiguous and match the report durations.
    for iv, nxt in zip(intervals, intervals[1:]):
        assert nxt.start == pytest.approx(iv.end)
    by_name = {iv.name: iv.duration for iv in intervals}
    for phase, seconds in report.phase_seconds.items():
        assert by_name[phase.value] == pytest.approx(seconds)
    # The migration bracket records are present with payloads.
    starts = tracer.of_kind("migration.start")
    ends = tracer.of_kind("migration.end")
    assert starts[0]["source"] == "node1"
    assert ends[0]["total"] == pytest.approx(report.total_seconds)


def test_extract_phases_validation():
    t = Tracer()
    t.record(1.0, "phase.start", phase="A", span=1)
    with pytest.raises(ValueError, match="never ended"):
        extract_phases(t)


def test_extract_phases_allow_open_truncates_dangling():
    t = Tracer()
    t.record(1.0, "phase.start", phase="A", span=1)
    t.record(2.0, "phase.end", phase="A", span=1, duration=1.0)
    t.record(2.0, "phase.start", phase="B", span=2)
    t.record(3.5, "some.event")  # advances the trace clock past B's start
    ivs = extract_phases(t, allow_open=True)
    assert [iv.name for iv in ivs] == ["A", "B"]
    assert not ivs[0].truncated
    b = ivs[1]
    assert b.truncated
    # Closed at the last recorded trace time, not the phase start.
    assert b.end == pytest.approx(3.5)
    assert b.duration == pytest.approx(1.5)


def test_extract_phases_allow_open_zero_length_tail():
    # A phase opened by the very last record closes with zero duration
    # instead of producing end < start.
    t = Tracer()
    t.record(1.0, "some.event")
    t.record(4.0, "phase.start", phase="Tail", span=1)
    ivs = extract_phases(t, allow_open=True)
    assert len(ivs) == 1
    assert ivs[0].truncated
    assert ivs[0].start == pytest.approx(4.0)
    assert ivs[0].end == pytest.approx(4.0)


def test_render_timeline():
    ivs = [PhaseInterval("stall", 0.0, 0.1),
           PhaseInterval("migrate", 0.1, 0.5),
           PhaseInterval("restart", 0.5, 4.5)]
    out = render_timeline(ivs, width=40, title="demo")
    lines = out.splitlines()
    assert len(lines) == 4
    # Later phases start further right; longer phases have longer bars.
    assert lines[3].index("#") > lines[1].index("#")
    assert lines[3].count("#") > lines[2].count("#")
    assert render_timeline([]) == "== timeline ==\n(no phases)"


def test_tracer_retrieval_filters_records():
    t = Tracer()
    t.record(0.0, "a", x=1)
    t.record(1.0, "b")
    assert [r.kind for r in t] == ["a", "b"]
    assert t.kinds() == ["a", "b"]
    assert len(t.between(0.5, 1.5)) == 1
    assert t.records[0].get("x") == 1
    assert t.records[0].get("missing", "d") == "d"
    with pytest.raises(KeyError):
        t.records[0]["nope"]
