"""Per-rule unit tests: each invariant fed a hand-built violating trace.

Every test drives exactly one rule through :meth:`TraceChecker.check_trace`
so a failure names the rule, not the ensemble.  The traces are minimal —
just the records the rule's state machine consumes.
"""

import pytest

from repro.ftb.events import FTB_MIGRATE_PIIC, FTB_RESTART
from repro.sanitize import TraceChecker
from repro.sanitize.invariants import (
    PhaseOrderRule,
    PipelineStageOrderRule,
    QPLifecycleRule,
    SessionRule,
    default_rules,
)
from repro.simulate.trace import Tracer


def check(rule, records):
    """Run one rule over (t, kind, fields) triples; return violations."""
    tracer = Tracer()
    for t, kind, fields in records:
        tracer.record(t, kind, **fields)
    return TraceChecker.check_trace(tracer, rules=[rule])


# ---------------------------------------------------------------------------
# PhaseOrderRule
# ---------------------------------------------------------------------------

def test_phase_order_restart_before_piic():
    violations = check(PhaseOrderRule(), [
        (0.0, "ftb.publish", {"event": FTB_RESTART}),
        (0.1, "ftb.publish", {"event": FTB_MIGRATE_PIIC}),
    ])
    assert len(violations) == 1
    assert FTB_RESTART in violations[0].message


def test_phase_order_piic_then_restart_clean():
    assert check(PhaseOrderRule(), [
        (0.0, "ftb.publish", {"event": FTB_MIGRATE_PIIC}),
        (0.1, "ftb.publish", {"event": FTB_RESTART}),
    ]) == []


# ---------------------------------------------------------------------------
# QPLifecycleRule
# ---------------------------------------------------------------------------

def test_qp_symmetric_lifecycle_clean():
    assert check(QPLifecycleRule(), [
        (0.0, "qp.connect", {"qp": 1, "peer": 2}),
        (0.1, "qp.complete", {"qp": 1, "ok": True, "opcode": "SEND"}),
        (0.2, "qp.destroy", {"qp": 1}),
        (0.2, "qp.destroy", {"qp": 2}),
    ]) == []


def test_qp_traffic_after_destroy():
    violations = check(QPLifecycleRule(), [
        (0.0, "qp.connect", {"qp": 1, "peer": 2}),
        (0.1, "qp.destroy", {"qp": 1}),
        (0.2, "qp.complete", {"qp": 1, "ok": True, "opcode": "SEND"}),
        (0.3, "qp.destroy", {"qp": 2}),
    ])
    assert any("after its destroy" in v.message for v in violations)


def test_qp_error_flush_after_destroy_is_legitimate():
    assert check(QPLifecycleRule(), [
        (0.0, "qp.connect", {"qp": 1, "peer": 2}),
        (0.1, "qp.destroy", {"qp": 1}),
        (0.2, "qp.complete", {"qp": 1, "ok": False, "opcode": "RECV"}),
        (0.3, "qp.destroy", {"qp": 2}),
    ]) == []


def test_qp_double_destroy():
    violations = check(QPLifecycleRule(), [
        (0.0, "qp.destroy", {"qp": 1}),
        (0.1, "qp.destroy", {"qp": 1}),
    ])
    assert any("destroyed twice" in v.message for v in violations)


def test_qp_reconnect_after_destroy():
    violations = check(QPLifecycleRule(), [
        (0.0, "qp.connect", {"qp": 1, "peer": 2}),
        (0.1, "qp.destroy", {"qp": 1}),
        (0.1, "qp.destroy", {"qp": 2}),
        (0.2, "qp.connect", {"qp": 1, "peer": 3}),
    ])
    assert any("reconnected" in v.message for v in violations)


def test_qp_asymmetric_teardown():
    violations = check(QPLifecycleRule(), [
        (0.0, "qp.connect", {"qp": 1, "peer": 2}),
        (0.1, "qp.destroy", {"qp": 1}),
    ])
    assert any("asymmetric teardown" in v.message for v in violations)


# ---------------------------------------------------------------------------
# SessionRule
# ---------------------------------------------------------------------------

def test_session_paired_clean():
    assert check(SessionRule(), [
        (0.0, "session.setup", {"source": "a", "target": "b"}),
        (1.0, "session.teardown", {"source": "a", "target": "b"}),
    ]) == []


def test_session_teardown_without_setup():
    violations = check(SessionRule(),
                       [(0.0, "session.teardown", {"source": "a",
                                                   "target": "b"})])
    assert any("never set" in v.message for v in violations)


def test_session_double_setup():
    violations = check(SessionRule(), [
        (0.0, "session.setup", {"source": "a", "target": "b"}),
        (1.0, "session.setup", {"source": "a", "target": "b"}),
    ])
    assert any("still live" in v.message for v in violations)


def test_session_left_open():
    violations = check(SessionRule(),
                       [(0.0, "session.setup", {"source": "a",
                                                "target": "b"})])
    assert any("never torn down" in v.message for v in violations)


# ---------------------------------------------------------------------------
# Violation rendering
# ---------------------------------------------------------------------------

def test_violation_render_names_rule_law_and_record():
    violations = check(QPLifecycleRule(), [
        (0.0, "qp.connect", {"qp": 1, "peer": 2}),
        (0.1, "qp.destroy", {"qp": 1}),
        (0.2, "qp.complete", {"qp": 1, "ok": True, "opcode": "SEND"}),
        (0.3, "qp.destroy", {"qp": 2}),
    ])
    text = violations[0].render()
    assert "QPLifecycleRule" in text
    assert "law:" in text
    assert "record:" in text
    assert "t=0.2" in text


@pytest.mark.parametrize("rule", default_rules(),
                         ids=lambda rule: rule.name)
def test_every_rule_has_a_one_line_law(rule):
    assert rule.doc, f"{rule.name} must document its law"
    assert "\n" not in rule.doc


# ---------------------------------------------------------------------------
# PipelineStageOrderRule
# ---------------------------------------------------------------------------

def pipeline_records(ready=("r0", "r1"), expected=2, close=True):
    recs = [
        (0.0, "pipeline.run.start", {"span": 1, "source": "node0",
                                     "target": "spare0", "transport": "rdma",
                                     "sink": "memory"}),
        (0.01, "session.setup", {"source": "node0", "target": "spare0",
                                 "chunks": 10, "pool_bytes": 1,
                                 "expected_procs": expected}),
    ]
    t = 0.1
    for proc in ready:
        recs.append((t, "blcr.checkpoint.start", {"span": 50 + hash(proc) % 40,
                                                  "proc": proc,
                                                  "node": "node0"}))
        recs.append((t + 0.05, "pipeline.proc.ready",
                     {"proc": proc, "node": "spare0", "sink": "memory"}))
        t += 0.2
    if close:
        recs.append((t, "pipeline.run.end", {"span": 1}))
    return recs


def test_pipeline_stage_order_clean():
    assert check(PipelineStageOrderRule(), pipeline_records()) == []


def test_pipeline_ready_without_open_run():
    violations = check(PipelineStageOrderRule(), [
        (0.0, "pipeline.proc.ready", {"proc": "r0", "node": "spare0",
                                      "sink": "memory"}),
    ])
    assert any("no pipeline run open" in v.message for v in violations)


def test_pipeline_ready_before_checkpoint_started():
    recs = pipeline_records(ready=())
    recs.insert(2, (0.05, "pipeline.proc.ready",
                    {"proc": "ghost", "node": "spare0", "sink": "memory"}))
    violations = check(PipelineStageOrderRule(), recs)
    assert any("before its checkpoint" in v.message for v in violations)


def test_pipeline_duplicate_ready():
    recs = pipeline_records(ready=("r0",), expected=1, close=False)
    recs.append((0.5, "pipeline.proc.ready",
                 {"proc": "r0", "node": "spare0", "sink": "memory"}))
    recs.append((0.6, "pipeline.run.end", {"span": 1}))
    violations = check(PipelineStageOrderRule(), recs)
    assert any("ready twice" in v.message for v in violations)


def test_pipeline_restart_before_ready():
    recs = pipeline_records(ready=(), expected=None, close=False)
    recs.append((0.2, "pipeline.restart.start",
                 {"span": 9, "proc": "r0", "node": "spare0",
                  "mode": "memory"}))
    violations = check(PipelineStageOrderRule(), recs)
    assert any("before its image was ready" in v.message for v in violations)


def test_pipeline_run_closed_short():
    violations = check(PipelineStageOrderRule(),
                       pipeline_records(ready=("r0",), expected=2))
    assert any("1 of 2 expected" in v.message for v in violations)


def test_pipeline_run_never_closed():
    violations = check(PipelineStageOrderRule(),
                       pipeline_records(close=False))
    assert any("never closed" in v.message for v in violations)
