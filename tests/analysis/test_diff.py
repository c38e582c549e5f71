"""Differential trace analysis: alignment edge cases and attribution."""

import pytest

from repro.analysis import (
    align_span_trees,
    build_span_dag,
    diff_traces,
    render_explanation,
    series_stats,
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


# -- alignment edge cases ----------------------------------------------------

def test_align_concurrent_same_name_pairs_in_start_order():
    a = _concurrent_trace([2.0, 3.0])
    b = _concurrent_trace([2.5, 3.0])
    matches = align_span_trees(build_span_dag(a), build_span_dag(b))
    compute = [m for m in matches if m.path.endswith("phase:Compute")]
    assert [m.status for m in compute] == ["both", "both"]
    # First-starter pairs with first-starter: 2.0 -> 2.5, 3.0 -> 3.0.
    assert [round(m.delta, 6) for m in compute] == [0.5, 0.0]


def test_align_count_mismatch_leaves_one_sided_tail():
    a = _concurrent_trace([2.0, 3.0, 4.0])
    b = _concurrent_trace([2.0, 3.0])
    matches = align_span_trees(build_span_dag(a), build_span_dag(b))
    compute = [m for m in matches if m.path.endswith("phase:Compute")]
    assert [m.status for m in compute] == ["both", "both", "only-A"]
    # A one-sided span counts its full duration as disappearing time.
    assert compute[-1].delta == pytest.approx(-4.0)


def test_align_span_in_only_one_run_does_not_recurse():
    a = _migration_trace(with_checkpoint=True)
    b = _migration_trace(with_checkpoint=False)
    matches = align_span_trees(build_span_dag(a), build_span_dag(b))
    by_path = {m.path: m for m in matches}
    ckpt = next(m for m in matches if m.path.endswith("blcr.checkpoint"))
    assert ckpt.status == "only-A"
    # The unique subtree is reported once, at its top.
    assert not any(p.endswith("blcr.write") for p in by_path)
    assert next(m for m in matches
                if m.path.endswith("/setup")).status == "both"


def test_align_truncated_open_span_closes_at_last_trace_time():
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
    root = next(m for m in diff.matches if m.path == "migration")
    assert root.b is not None and root.b.truncated
    assert root.b.duration == pytest.approx(2.0)  # last trace time
    assert any("trace-truncated" in n for n in diff.notes)


def test_align_zero_duration_spans():
    def mk(with_extra):
        t = Tracer(clock=lambda: 0.0)
        with t.span("migration"):
            with t.span("noop"):
                pass
            if with_extra:
                with t.span("flash"):
                    pass
        return t

    matches = align_span_trees(build_span_dag(mk(True)),
                               build_span_dag(mk(False)))
    noop = next(m for m in matches if m.path.endswith("/noop"))
    assert noop.status == "both" and noop.delta == 0.0
    flash = next(m for m in matches if m.path.endswith("/flash"))
    assert flash.status == "only-A" and flash.delta == 0.0


def test_align_pairs_by_lane_then_relaxes_to_label():
    def mk(nodes):
        sim = Simulator(trace=Tracer())
        t = sim.trace

        def run(sim):
            with t.span("migration"):
                for i, node in enumerate(nodes):
                    with t.span("rank.restart", node=node):
                        yield sim.timeout(1.0 + i)

        sim.run(until=sim.spawn(run(sim)))
        return t

    # Shared lanes pair exactly; the moved lane (n2 -> n3) still pairs
    # by label instead of showing up as one-sided noise.
    matches = align_span_trees(build_span_dag(mk(["n1", "n2"])),
                               build_span_dag(mk(["n3", "n1"])))
    restarts = [m for m in matches if m.path.endswith("rank.restart")]
    assert all(m.status == "both" for m in restarts)
    lanes = {(m.a.attrs.get("node"), m.b.attrs.get("node"))
             for m in restarts}
    assert ("n1", "n1") in lanes
    assert ("n2", "n3") in lanes


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
    assert [m.path for m in diff.only_in("a")] == \
        ["migration/blcr.checkpoint"]
    assert diff.only_in("b") == []


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


def test_diff_traces_compares_telemetry_series():
    def mk(scale):
        t = _migration_trace()
        for i in range(5):
            t.record(float(i), "telemetry.sample",
                     metric="kernel.queue_depth", value=scale * (i + 1))
        t.record(0.0, "telemetry.sample", metric=f"only.{scale}", value=1.0)
        return t

    diff = diff_traces(mk(1.0), mk(2.0))
    by_name = {s.name: s for s in diff.series}
    qd = by_name["kernel.queue_depth"]
    assert qd.a["peak"] == 5.0 and qd.b["peak"] == 10.0
    assert qd.delta("peak") == pytest.approx(5.0)
    assert by_name["only.1.0"].b is None
    assert by_name["only.2.0"].a is None


def test_series_stats_values():
    stats = series_stats([(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)])
    assert stats["n"] == 3
    assert stats["peak"] == 3.0
    assert stats["mean"] == pytest.approx(2.0)
    assert stats["auc"] == pytest.approx(4.5)  # trapezoid over [0, 2]
    assert series_stats([]) == {"n": 0, "peak": 0.0, "mean": 0.0,
                                "auc": 0.0}


def test_render_explanation_has_greppable_dominant_line():
    diff = diff_traces(_migration_trace(True), _migration_trace(False),
                       label_a="file", label_b="memory")
    text = render_explanation(diff)
    assert "## Differential trace analysis" in text
    assert "dominant delta component: blcr.write" in text
    assert "run A: `file`" in text
    assert "### Critical-path blame shifts" in text
    assert "spans only in file: `migration/blcr.checkpoint`" in text


def test_explaining_a_trace_against_itself_names_no_component():
    t = _migration_trace()
    diff = diff_traces(t, t)
    assert diff.end_to_end_delta == 0.0
    assert diff.dominant_shift() is None
    text = render_explanation(diff)
    assert "dominant delta component" not in text
    assert "no component moved" in text
    assert "### Critical-path blame shifts" not in text


def test_one_sided_telemetry_series_get_one_note_line():
    """A run recorded without a telemetry probe has no series: the series
    only the other run carries are noted once, not tabulated."""
    probed = _migration_trace()
    for name in ("kernel.queue_depth", "ib.bytes_moved", "fluid.flows",
                 "pool.free"):
        probed.record(0.0, "telemetry.sample", metric=name, value=1.0)
        probed.record(1.0, "telemetry.sample", metric=name, value=2.0)
    text = render_explanation(diff_traces(_migration_trace(), probed,
                                          label_a="pin", label_b="run"))
    assert "### Telemetry series deltas" not in text
    notes = [ln for ln in text.splitlines() if "only in run" in ln]
    assert notes == ["telemetry series not compared, 4 only in run: "
                     "`fluid.flows`, `ib.bytes_moved`, `kernel.queue_depth`"
                     " (+1 more)"]


def test_render_explanation_top_caps_table_rows():
    a = _concurrent_trace([1.0 + 0.1 * i for i in range(8)])
    b = _concurrent_trace([2.0 + 0.2 * i for i in range(8)])
    text = render_explanation(diff_traces(a, b), top=2)
    section = text.split("### Span deltas by component")[-1]
    rows = [ln for ln in section.splitlines()
            if ln.startswith("| `")]
    assert len(rows) <= 2
