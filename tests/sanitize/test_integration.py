"""Integration: a full LU.C migration passes the sanitizer clean, and an
exported trace replays offline to the same verdict, clean or not.  Each
law's must-fail round trip is in ``test_seeded_bugs.py``."""

import pytest

from repro.analysis import write_jsonl
from repro.sanitize import TraceChecker, check_jsonl, live_checks
from repro.scenario import Scenario
from repro.simulate.trace import Tracer

from .test_seeded_bugs import SEEDS


@pytest.fixture(scope="module")
def migrated():
    """One completed, traced LU.C migration."""
    tracer = Tracer()
    sc = Scenario.build(app="LU.C", nprocs=16, n_compute=4, n_spare=1,
                        iterations=20, seed=0, trace=tracer)
    sc.run_migration("node2", at=5.0)
    sc.run_to_completion()
    return sc, tracer


def test_full_migration_is_clean_live(migrated):
    sc, tracer = migrated
    violations = TraceChecker.check_trace(tracer)
    violations.extend(live_checks(sc.sim, sc.cluster))
    assert violations == [], "\n".join(v.render() for v in violations)


def test_exported_trace_replays_clean_offline(migrated, tmp_path):
    _, tracer = migrated
    path = str(tmp_path / "trace.jsonl")
    n = write_jsonl(tracer, path)
    assert n == len(tracer)
    result = check_jsonl(path)
    assert result.clean, "\n".join(v.render() for v in result.violations)
    assert result.n_records == n


def test_injected_fault_reproduces_offline(monkeypatch, tmp_path):
    """A seeded bug's violations in a run's own tracer replay from its
    JSONL word for word — the property that makes CI replay trustworthy."""
    cls, attr, seeded, _, _ = SEEDS["QPLifecycleRule"]
    monkeypatch.setattr(cls, attr, seeded)
    tracer = Tracer()
    sc = Scenario.build(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                        iterations=10, seed=0, trace=tracer)
    sc.run_migration("node1", at=5.0)
    sc.run_to_completion()
    live_verdict = [v.render() for v in TraceChecker.check_trace(tracer)]
    assert live_verdict

    path = str(tmp_path / "trace.jsonl")
    write_jsonl(tracer, path)
    assert [v.render() for v in check_jsonl(path).violations] == live_verdict
