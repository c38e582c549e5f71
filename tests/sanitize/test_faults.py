"""A breach no production bug can cause, forged into a live migration.

The QP model completes every SEND posted on, or in flight through, a
destroyed QP with a flush error (``network/qp.py``), so no seeded bug
yields the *successful* completion after ``qp.destroy`` that
``QPLifecycleRule``'s post-destroy clause exists for.  Each fault here
forges its record into the finished trace of a small LU.C migration, at
the place the breach would have recorded it, and the checker reads the
result.  The laws a production bug can breach are proven in
``test_seeded_bugs.py``.
"""

import pytest

from repro.sanitize import TraceChecker, live_checks
from repro.scenario import Scenario
from repro.simulate.trace import TraceRecord, Tracer


def _post_destroy_send(records):
    """Right after the first ``qp.destroy``, a successful SEND on that QP.
    Returns the forged records."""
    for i, rec in enumerate(records):
        if rec.kind == "qp.destroy":
            forged = TraceRecord(rec.time, "qp.complete", {
                "cq": f"cq.{rec.get('node')}", "opcode": "SEND", "ok": True,
                "nbytes": 64, "qp": rec.get("qp")})
            records.insert(i + 1, forged)
            return [forged]
    return []


#: fault name -> (forger, the rule that must catch it).
FAULTS = {"post-destroy-send": (_post_destroy_send, "QPLifecycleRule")}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_is_caught_by_its_rule(fault):
    forge, rule = FAULTS[fault]
    tracer = Tracer()
    sc = Scenario.build(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                        iterations=10, seed=0, trace=tracer)
    sc.run_migration("node1", at=5.0)
    sc.run_to_completion()
    forged = forge(tracer.records)
    violations = (TraceChecker.check_trace(tracer)
                  + live_checks(sc.sim, sc.cluster))
    assert len(forged) == 1, f"fault {fault!r} never found its trigger"
    # One forged record, one violation, and only from its own rule.
    assert [v.rule for v in violations] == [rule], \
        "\n".join(v.render() for v in violations)
