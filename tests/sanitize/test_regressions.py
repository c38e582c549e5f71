"""Regression tests for the genuine violations the sanitizer surfaced.

Three bug classes fixed in this change, each pinned here:

* asymmetric session teardown — ``RDMASession.teardown`` destroyed only
  the source QP, leaking the target's adapter context every migration;
* non-idempotent QP destroy — a second ``destroy()`` emitted a second
  ``qp.destroy`` record (double-free in trace terms) instead of being a
  no-op;
* reconnect-after-destroy — ``connect()`` happily reused a destroyed
  QP whose adapter context is gone.
"""

import pytest

from repro.network import IBFabric, QueuePair
from repro.sanitize import TraceChecker
from repro.sanitize.invariants import QPLifecycleRule
from repro.scenario import Scenario
from repro.simulate import Simulator
from repro.simulate.trace import Tracer


def connected_pair(tracer=None):
    sim = Simulator(trace=tracer) if tracer is not None else Simulator()
    fab = IBFabric(sim)
    qa = QueuePair(sim, fab.attach("a"))
    qb = QueuePair(sim, fab.attach("b"))

    def conn(sim):
        yield from qa.connect(qb)

    sim.run(until=sim.spawn(conn(sim)))
    return sim, qa, qb


def test_qp_destroy_is_idempotent():
    tracer = Tracer()
    sim, qa, qb = connected_pair(tracer)
    qa.destroy()
    qa.destroy()  # second call must be a no-op, not a double teardown
    qb.destroy()
    destroys = [r for r in tracer if r.kind == "qp.destroy"]
    assert len(destroys) == 2
    assert {r.get("qp") for r in destroys} == {qa.qp_num, qb.qp_num}


def test_qp_connect_after_destroy_raises():
    sim, qa, qb = connected_pair()
    qa.destroy()
    qb.destroy()
    fresh = QueuePair(sim, qa.hca)

    def reconnect(sim):
        yield from qa.connect(fresh)

    p = sim.spawn(reconnect(sim))
    with pytest.raises(RuntimeError, match="destroyed QP"):
        sim.run(until=p)
        if p.error is not None:
            raise p.error


def test_migration_session_teardown_is_symmetric():
    """Every QP pair the migration opens must have BOTH ends destroyed;
    before the fix the session's destination QP was never torn down and
    QPLifecycleRule flagged the pair."""
    tracer = Tracer()
    sc = Scenario.build(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                        iterations=10, seed=0, trace=tracer)
    sc.run_migration("node1", at=5.0)
    sc.run_to_completion()
    violations = TraceChecker.check_trace(tracer, rules=[QPLifecycleRule()])
    assert violations == [], "\n".join(v.render() for v in violations)

    connects = [r for r in tracer if r.kind == "qp.connect"]
    destroyed = {r.get("qp") for r in tracer if r.kind == "qp.destroy"}
    session_pairs = [(r.get("qp"), r.get("peer")) for r in connects]
    assert session_pairs, "migration must open at least one QP pair"
    for qp, peer in session_pairs:
        assert (qp in destroyed) == (peer in destroyed), \
            f"pair ({qp}, {peer}) torn down on one side only"
