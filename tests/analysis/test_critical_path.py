"""Span-DAG reconstruction and critical-path analysis."""

import pytest

from repro.analysis import (
    build_span_dag,
    critical_path,
    dominant_component,
    render_blame,
    render_waterfall,
)
from repro.experiments import FIG4
from repro.simulate import Tracer


def make_synthetic_trace():
    """A small cycle with a known critical path.

    cycle      [0 ..................... 10]
      phase:Restart   [2 ......... 9]
        restart.op        [4 ..... 9]
      producer   [1 ... 4]              (spawned task: no declared parent)

    producer ends exactly when restart.op starts and is linked by an
    ``image.ready`` flow edge, so the chain should run
    cycle[9,10] <- restart.op[4,9] <- producer[1,4] <- cycle[0,1].
    """
    t = Tracer()
    clock = [0.0]
    t.bind(lambda: clock[0])
    with t.span("cycle"):
        clock[0] = 2.0
        with t.span("phase", phase="Restart"):
            clock[0] = 4.0
            with t.span("restart.op") as op:
                clock[0] = 9.0
        clock[0] = 10.0
    t.record(1.0, "producer.start", span=100, node="nx")
    t.record(4.0, "producer.end", span=100, duration=3.0)
    t.link(100, op, "image.ready")
    return t


def test_build_span_dag_structure():
    dag = build_span_dag(make_synthetic_trace())
    assert len(dag.nodes) == 4
    cycle = dag.node_named("cycle")
    assert [c.name for c in cycle.children] == ["producer", "phase"]
    producer = dag.node_named("producer")
    # Parentless span attached to the smallest *enclosing* span: [1,4]
    # pokes out of phase [2,9], so it lands on cycle, synthetically.
    assert producer.parent == cycle.span_id
    assert producer.synthetic_parent
    assert not dag.node_named("restart.op").synthetic_parent
    assert dag.roots[0] is cycle
    assert len(dag.flows) == 1
    assert dag.flows[0].kind == "image.ready"
    assert dag.flows_in[dag.flows[0].dst] == [dag.flows[0]]


def test_build_span_dag_truncates_open_spans():
    t = Tracer(clock=lambda: 0.0)
    t.record(0.0, "op.start", span=1)
    t.record(5.0, "tick")  # advances t_last past the dangling start
    dag = build_span_dag(t)
    node = dag.nodes[1]
    assert node.truncated
    assert node.end == pytest.approx(5.0)


def test_critical_path_follows_contiguous_flow_edge():
    cp = critical_path(make_synthetic_trace(), root="cycle")
    # Every second of the cycle is attributed exactly once.
    assert cp.total == pytest.approx(cp.root.duration)
    assert cp.reached == pytest.approx(cp.root.start)
    got = [(s.node.label, s.start, s.end, s.via) for s in cp.segments]
    assert got == [
        ("cycle", 0.0, 1.0, "self"),
        ("producer", 1.0, 4.0, "flow:image.ready"),
        ("restart.op", 4.0, 9.0, "self"),
        ("cycle", 9.0, 10.0, "self"),
    ]
    comps = cp.components()
    assert list(comps) == ["restart.op", "producer", "cycle"]
    name, seconds = dominant_component(cp, skip=("cycle",))
    assert name == "restart.op"
    assert seconds == pytest.approx(5.0)


def test_blame_resolves_nearest_phase_ancestor():
    cp = critical_path(make_synthetic_trace(), root="cycle")
    blame = cp.blame()
    assert blame["phase:Restart"]["restart.op"] == pytest.approx(5.0)
    # producer hangs off cycle (outside any phase span), like cycle itself.
    assert blame["(outside phases)"]["producer"] == pytest.approx(3.0)
    assert blame["(outside phases)"]["cycle"] == pytest.approx(2.0)


def test_non_contiguous_flow_edge_is_not_followed():
    """A paired-but-not-blocking edge (stall -> resume) must not teleport
    the chain backward across the cycle."""
    t = Tracer()
    t.record(0.0, "rank.stall.start", span=1)
    t.record(1.0, "rank.stall.end", span=1, duration=1.0)
    t.record(5.0, "rank.resume.start", span=2)
    t.record(6.0, "rank.resume.end", span=2, duration=1.0)
    t.record(5.0, "flow.link", flow=1, src=1, dst=2, edge="barrier")
    cp = critical_path(t, root="rank.resume")
    assert [s.node.name for s in cp.segments] == ["rank.resume"]
    assert cp.reached == pytest.approx(5.0)  # chain stops, no jump to t=1


def test_renderers_produce_aligned_text():
    cp = critical_path(make_synthetic_trace(), root="cycle")
    wf = render_waterfall(cp, width=20)
    lines = wf.splitlines()
    assert lines[0].startswith("== critical path: cycle")
    assert len(lines) == 2 + len(cp.segments)
    # The flow-entered segment is marked with '~'.
    prod = next(ln for ln in lines if ln.startswith("producer"))
    assert "~|" in prod
    blame_txt = render_blame(cp.blame())
    assert "phase:Restart" in blame_txt
    rows = blame_txt.splitlines()
    assert rows[0].split() == ["phase", "component", "seconds", "share"]
    assert "restart.op" in rows[1]  # largest contributor first


def test_empty_trace_raises():
    with pytest.raises(ValueError, match="no spans"):
        critical_path(Tracer())
    t = Tracer(clock=lambda: 0.0)
    with t.span("only"):
        pass
    with pytest.raises(ValueError, match="no span named"):
        critical_path(t, root="missing")


def test_lu_c_migration_restart_dominates():
    """Fig. 4: Phase 3 (file-based restart on the spare) dominates the
    LU.C migration cycle — blcr.restart must own most critical-path time."""
    tracer = Tracer()
    report = FIG4["LU.C"].execute(trace=tracer)
    cp = critical_path(tracer)
    assert cp.root.name == "migration"
    assert cp.total == pytest.approx(report.total_seconds, rel=1e-6)
    assert cp.reached == pytest.approx(cp.root.start)
    name, seconds = dominant_component(cp)
    assert name == "blcr.restart"
    assert seconds / cp.total > 0.5
    # And the blame table places it inside the Restart phase.
    blame = cp.blame()
    assert blame["phase:Restart"]["blcr.restart"] == pytest.approx(seconds)
