"""Differential trace analysis: first differing record, component rows
and critical-path attribution."""

import json
import os

import pytest

from repro.analysis import (
    BlameShift,
    TraceDiff,
    diff_traces,
    first_difference,
    open_trace_text,
    read_jsonl,
    render_explanation,
    write_jsonl,
)
from repro.simulate import Simulator, Tracer


def _migration_trace(with_checkpoint=True, restart_seconds=1.5):
    """A miniature migration cycle; the checkpoint leg is optional so two
    runs can differ structurally, not just in durations."""
    sim = Simulator(trace=Tracer())
    t = sim.trace

    def run(sim):
        with t.span("migration"):
            with t.span("setup"):
                yield sim.timeout(1.0)
            if with_checkpoint:
                with t.span("blcr.checkpoint"):
                    with t.span("blcr.write"):
                        yield sim.timeout(2.0)
            with t.span("restart"):
                yield sim.timeout(restart_seconds)

    sim.run(until=sim.spawn(run(sim)))
    return t


def _concurrent_trace(durations):
    """Same-named overlapping phases with staggered starts."""
    sim = Simulator(trace=Tracer())
    t = sim.trace

    def cycle(sim, start, delay):
        yield sim.timeout(start)
        with t.span("phase", phase="Compute"):
            yield sim.timeout(delay)

    for i, d in enumerate(durations):
        sim.spawn(cycle(sim, 0.5 * i, d))
    sim.run()
    return t


# -- first differing record -------------------------------------------------

PINNED_FIG4_TRACE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir,
    "benchmarks", "baseline_traces", "migration_LU.C_file.jsonl.gz")


def test_first_difference_names_index_kind_key_and_values():
    a = [{"t": 0.0, "kind": "x", "n": 1},
         {"t": 1.0, "kind": "y", "n": 2, "m": 3}]
    assert first_difference(a, [dict(r) for r in a]) is None
    # t first, then kind, then A's keys in order, then B-only keys.
    b = [a[0], {"t": 1.0, "kind": "y", "n": 5, "m": 4}]
    diff = first_difference(a, b)
    assert (diff.index, diff.kind, diff.t, diff.key, diff.old, diff.new) \
        == (1, "y", 1.0, "n", 2, 5)
    assert str(diff) == "#1 y (t=1.000000): n 2 -> 5"
    diff = first_difference(a, [a[0], {"t": 1.0, "kind": "y", "n": 2,
                                       "m": 3, "extra": True}])
    assert (diff.key, repr(diff.old), diff.new) == ("extra", "(absent)", True)
    diff = first_difference(a, [a[0], {"t": 1.5, "kind": "z"}])
    assert (diff.key, diff.old, diff.new) == ("t", 1.0, 1.5)


def test_first_difference_when_one_run_is_a_prefix_of_the_other():
    rows = [{"t": float(i), "kind": "step", "i": i} for i in range(5)]
    diff = first_difference(rows[:3], rows)
    assert (diff.index, diff.kind, diff.t, diff.key) == (3, "step", 3.0, None)
    assert (diff.old, diff.new) == (3, 5)
    assert str(diff) == ("#3 step (t=3.000000): only in B, which has 2 "
                         "more records")
    diff = first_difference(rows, rows[:4])
    assert (diff.index, diff.kind) == (4, "step")
    assert str(diff).endswith("only in A, which has 1 more records")


def test_first_difference_skips_telemetry_samples():
    rows = [{"t": 0.0, "kind": "a"}, {"t": 1.0, "kind": "b"}]
    probed = [rows[0], {"t": 0.5, "kind": "telemetry.sample",
                        "metric": "m", "value": 1.0}, rows[1]]
    assert first_difference(rows, probed) is None
    diff = first_difference(probed, [rows[0], {"t": 1.0, "kind": "c"}])
    assert (diff.index, diff.kind, diff.key) == (1, "b", "kind")


def test_a_live_trace_and_its_reload_have_identical_records(tmp_path):
    live = _migration_trace()
    live.record(3.0, "msg.send", tag=("it", 0, 1))  # a list once reloaded
    path = tmp_path / "live.jsonl"
    write_jsonl(live, str(path))
    diff = diff_traces(live, read_jsonl(str(path)))
    assert diff.first_record is None
    assert diff.records == len(live)


def test_explain_names_the_record_a_moved_pin_differs_at(tmp_path):
    """A copy of the pinned Fig. 4 trace with one field changed: the
    explanation opens with that record."""
    with open_trace_text(PINNED_FIG4_TRACE) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    assert (rows[5000]["kind"], rows[5000]["nbytes"]) == ("msg.recv", 200000)
    rows[5000]["nbytes"] = 200001
    moved = tmp_path / "moved.jsonl"
    moved.write_text("".join(json.dumps(row) + "\n" for row in rows))
    text = render_explanation(diff_traces(read_jsonl(PINNED_FIG4_TRACE),
                                          read_jsonl(str(moved))))
    first = [ln for ln in text.splitlines() if ln.startswith("first ")]
    assert first == ["first differing record: #5000 msg.recv "
                     "(t=3.843229): nbytes 200000 -> 200001"]
    assert "no component moved" in text


# -- component rows ----------------------------------------------------------

def test_concurrent_same_name_phases_sum_per_component():
    a = _concurrent_trace([2.0, 3.0])
    b = _concurrent_trace([2.5, 3.0])
    comp = {c.label: c for c in diff_traces(a, b).components}
    compute = comp["phase:Compute"]
    assert (compute.n_a, compute.n_b) == (2, 2)
    assert compute.delta == pytest.approx(0.5)


def test_count_mismatch_shows_in_component_counts():
    a = _concurrent_trace([2.0, 3.0, 4.0])
    b = _concurrent_trace([2.0, 3.0])
    text = render_explanation(diff_traces(a, b))
    assert "| `phase:Compute` | 3 | 2 | 9.000 | 5.000 | -4.000 |" in text


def test_truncated_root_closes_at_last_trace_time():
    t = Tracer()
    clock = [0.0]
    t.bind(lambda: clock[0])
    sp = t.span("migration").__enter__()
    with t.span("restart"):
        clock[0] = 2.0
    del sp                              # migration never closes
    closed = Tracer()
    clock2 = [0.0]
    closed.bind(lambda: clock2[0])
    with closed.span("migration"):
        with closed.span("restart"):
            clock2[0] = 2.0
        clock2[0] = 3.0
    diff = diff_traces(closed, t)
    assert diff.total_b == pytest.approx(2.0)  # last trace time
    assert any("trace-truncated" in n for n in diff.notes)
    root = {c.label: c for c in diff.components}["migration"]
    assert root.truncated
    assert "| `migration` † | 1 | 1 |" in render_explanation(diff)


def test_zero_duration_span_in_one_run_gets_a_component_row():
    def mk(with_extra):
        t = Tracer(clock=lambda: 0.0)
        with t.span("migration"):
            with t.span("noop"):
                pass
            if with_extra:
                with t.span("flash"):
                    pass
        return t

    text = render_explanation(diff_traces(mk(True), mk(False)))
    assert "| `flash` | 1 | 0 | 0.000 | 0.000 | +0.000 |" in text
    assert "`noop`" not in text            # same count, same duration


# -- diff_traces and rendering -----------------------------------------------

def test_diff_traces_rejects_empty_trace():
    with pytest.raises(ValueError, match="no spans"):
        diff_traces(Tracer(), _migration_trace())
    with pytest.raises(ValueError, match="no spans"):
        diff_traces(_migration_trace(), Tracer())


def test_diff_traces_attributes_structural_delta():
    a = _migration_trace(with_checkpoint=True)
    b = _migration_trace(with_checkpoint=False)
    diff = diff_traces(a, b, label_a="file", label_b="memory")
    assert diff.root == "migration"
    assert diff.end_to_end_delta == pytest.approx(-2.0)
    # Blame sits on the leaf doing the work (blcr.write), not the
    # blcr.checkpoint wrapper — wrappers only hold unaccounted time.
    shift = {s.component: s for s in diff.shifts}["blcr.write"]
    assert shift.status == "left"
    assert shift.delta == pytest.approx(-2.0)
    dom = diff.dominant_shift()
    assert dom is not None and dom.component == "blcr.write"
    ckpt = {c.label: c for c in diff.components}["blcr.checkpoint"]
    assert (ckpt.n_a, ckpt.n_b) == (1, 0)
    # At t=1 run A opens the checkpoint where run B opens the restart.
    first = diff.first_record
    assert (first.t, first.key, first.old, first.new) == \
        (1.0, "kind", "blcr.checkpoint.start", "restart.start")


def test_diff_traces_duration_shift_without_structure_change():
    a = _migration_trace(restart_seconds=1.5)
    b = _migration_trace(restart_seconds=4.0)
    diff = diff_traces(a, b)
    assert diff.end_to_end_delta == pytest.approx(2.5)
    shift = {s.component: s for s in diff.shifts}["restart"]
    assert shift.status == "shifted"
    assert shift.delta == pytest.approx(2.5)
    comp = {c.label: c for c in diff.components}["restart"]
    assert comp.n_a == comp.n_b == 1
    assert comp.delta == pytest.approx(2.5)


def test_diff_traces_does_not_compare_telemetry_samples():
    probed = _migration_trace()
    for i in range(5):
        probed.record(float(i), "telemetry.sample",
                      metric="kernel.queue_depth", value=i + 1)
    diff = diff_traces(_migration_trace(), probed, label_a="pin",
                       label_b="run")
    assert diff.first_record is None
    assert (diff.records, diff.samples) == (len(probed) - 5, 5)
    assert (f"records: all {diff.records} identical (5 telemetry samples "
            "not compared)") in render_explanation(diff).splitlines()


def test_render_explanation_has_greppable_dominant_line():
    diff = diff_traces(_migration_trace(True), _migration_trace(False),
                       label_a="file", label_b="memory")
    text = render_explanation(diff)
    assert "## Differential trace analysis" in text
    assert "dominant delta component: blcr.write" in text
    assert "run A: `file`" in text
    assert "### Critical-path blame shifts" in text
    assert "| `blcr.checkpoint` | 1 | 0 |" in text
    lines = text.splitlines()
    assert lines[5].startswith("first differing record: #")


def test_blame_shifts_below_the_printed_precision_are_not_reported():
    """A shift the 3-decimal tables would print as ±0.000 is no row, no
    part of the attribution sentence and never the dominant shift."""
    diff = TraceDiff(
        label_a="a", label_b="b", root="migration", total_a=1.0,
        total_b=1.001, first_record=None, records=0, samples=0,
        components=[],
        shifts=[BlameShift("blcr.write", 1.0, 1.001, "shifted"),
                BlameShift("rdma_pull", 0.5, 0.5 - 1e-7, "shifted")])
    assert diff.dominant_shift().component == "blcr.write"
    text = render_explanation(diff)
    assert "| `blcr.write` | 1.000 | 1.001 | +0.001 |  |" in text
    assert "rdma_pull" not in text
    assert "0.000 |  |" not in text
    tiny = TraceDiff(
        label_a="a", label_b="b", root="migration", total_a=1.0,
        total_b=1.0, first_record=None, records=0, samples=0,
        components=[], shifts=[BlameShift("rdma_pull", 0.5, 0.5 - 1e-7,
                                          "shifted")])
    assert tiny.dominant_shift() is None
    assert "### Critical-path blame shifts" not in render_explanation(tiny)


def test_explaining_a_trace_against_itself_names_no_component():
    t = _migration_trace()
    diff = diff_traces(t, t)
    assert diff.end_to_end_delta == 0.0
    assert diff.dominant_shift() is None
    text = render_explanation(diff)
    assert "dominant delta component" not in text
    assert "no component moved" in text
    assert "### Critical-path blame shifts" not in text
    assert f"records: all {len(t)} identical" in text


def test_render_explanation_top_caps_table_rows():
    a = _concurrent_trace([1.0 + 0.1 * i for i in range(8)])
    b = _concurrent_trace([2.0 + 0.2 * i for i in range(8)])
    text = render_explanation(diff_traces(a, b), top=2)
    section = text.split("### Span deltas by component")[-1]
    rows = [ln for ln in section.splitlines()
            if ln.startswith("| `")]
    assert len(rows) <= 2
