"""Checker-machinery tests: containment, one path for a run's tracer and
its JSONL reload, idempotence."""

from repro.analysis import read_jsonl, write_jsonl
from repro.sanitize import TraceChecker
from repro.sanitize.invariants import QPLifecycleRule, Rule
from repro.simulate.trace import Tracer


class _ExplodingRule(Rule):
    """A rule whose feed always raises (deliberately broken)."""

    def feed(self, rec):
        raise ValueError("boom")


class _CountingRule(Rule):
    """Counts records; reports nothing."""

    def __init__(self):
        super().__init__()
        self.n = 0

    def feed(self, rec):
        self.n += 1


class _FinishOnlyRule(Rule):
    """Reports one timeless violation at end of trace."""

    def finish(self):
        self.report("end-of-trace law broken", time=float("nan"))


def test_broken_rule_is_detached_not_fatal():
    counting = _CountingRule()
    tracer = Tracer()
    tracer.record(0.0, "qp.destroy", qp=1)
    tracer.record(1.0, "qp.destroy", qp=2)
    violations = TraceChecker.check_trace(tracer,
                                          rules=[_ExplodingRule(), counting])
    # One rule-internal-error for the first record; then detached.
    internal = [v for v in violations if v.rule == "rule-internal-error"]
    assert len(internal) == 1
    assert "boom" in internal[0].message
    # The healthy rule kept seeing every record.
    assert counting.n == 2


def test_live_and_offline_paths_agree(tmp_path):
    """A run's own tracer, fed record by record or checked whole, and its
    JSONL reload give the same verdict."""
    tracer = Tracer()
    tracer.record(0.0, "qp.destroy", qp=1)
    tracer.record(1.0, "qp.destroy", qp=1)

    fed = TraceChecker(rules=[QPLifecycleRule()])
    for rec in tracer:
        fed.feed(rec)

    live = TraceChecker.check_trace(tracer, rules=[QPLifecycleRule()])
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(tracer, path)
    offline = TraceChecker.check_trace(read_jsonl(path),
                                       rules=[QPLifecycleRule()])
    assert live
    assert [v.render() for v in fed.finish()] == \
        [v.render() for v in live] == [v.render() for v in offline]


def test_finish_is_idempotent():
    checker = TraceChecker(rules=[_FinishOnlyRule()])
    first = checker.finish()
    second = checker.finish()
    assert len(first) == 1
    assert second is first or len(second) == 1


def test_nan_finish_time_replaced_with_last_record_time():
    tracer = Tracer()
    tracer.record(42.5, "qp.destroy", qp=1)
    violations = TraceChecker.check_trace(tracer, rules=[_FinishOnlyRule()])
    assert violations[0].time == 42.5  # not NaN: renderable and JSON-safe
