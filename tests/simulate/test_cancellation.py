"""Lazy event cancellation and double-processing guards.

The bugs pinned here: obsolete events (the losing side of an ``any_of``
race, a superseded fluid completion guard) used to sit in the calendar
until their time came, then pop and fire as no-ops — and a failed event
nobody waited on could skew the unhandled-failure accounting.  Cancelled
entries must be dropped on pop without running callbacks; a re-scheduled
already-processed event must raise a *typed* kernel error.
"""

import pytest

from repro.simulate.core import NORMAL, SimulationError, Simulator


def test_cancelled_event_is_dropped_not_processed():
    sim = Simulator()
    fired = []
    keep = sim.timeout(5.0)
    keep.callbacks.append(lambda ev: fired.append("keep"))
    lose = sim.timeout(9.0)          # triggered at birth, no waiters
    lose.cancel()
    sim.run()
    assert fired == ["keep"]
    assert sim.events_cancelled == 1
    assert lose.processed             # marked consumed, never dispatched
    assert sim.now == 5.0             # the drop never advanced the clock


def test_cancelled_failure_never_counts_as_unhandled():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("boom"))
    ev.cancel()
    sim.run()                         # an undefused failure would raise here
    assert sim.events_cancelled == 1


def test_cancel_is_revoked_by_a_late_waiter():
    """cancel() only takes effect while nobody is attached: a waiter that
    shows up before the entry pops must still be resumed."""
    sim = Simulator()
    ev = sim.timeout(3.0, value="payload")
    ev.cancel()
    got = []

    def waiter(sim):
        got.append((yield ev))

    sim.spawn(waiter(sim))
    sim.run()
    assert got == ["payload"]
    assert sim.events_cancelled == 0


def test_any_of_losing_timeout_is_cancelled():
    sim = Simulator()
    log = []

    def racer(sim):
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(10.0, value="slow")
        result = yield fast | slow
        log.append(list(result.values()))

    sim.spawn(racer(sim))
    sim.run()
    assert log == [["fast"]]
    assert sim.events_cancelled == 1   # the slow timeout never dispatched
    assert sim.now == 1.0              # ...and never advanced the clock


def test_interrupt_abandoned_wait_is_cancelled():
    """After an interrupt, the event the process stopped waiting on is a
    straggler with no other waiters; it must be detached and dropped."""
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Exception:
            log.append("interrupted")
        yield sim.timeout(1.0)
        log.append("done")

    proc = sim.spawn(sleeper(sim))

    def poker(sim):
        yield sim.timeout(2.0)
        proc.interrupt("wake")

    sim.spawn(poker(sim))
    sim.run()
    assert log == ["interrupted", "done"]
    assert sim.events_cancelled == 1
    assert sim.now == 3.0              # not 100: the straggler was dropped


def test_rescheduling_a_processed_event_raises_typed_error():
    """Regression: a double-scheduled event used to surface as a bare
    TypeError (iterating ``None`` callbacks); it must be a kernel error
    naming the event."""
    sim = Simulator()
    ev = sim.timeout(1.0)
    sim.run()
    assert ev.processed
    sim._schedule(ev, NORMAL, 0.0)     # corrupt: second calendar entry
    with pytest.raises(SimulationError, match="callbacks already consumed"):
        sim.run()


def test_counters_exposed_and_consistent():
    sim = Simulator()
    sim.spawn(_two_ticks(sim))
    sim.run()
    assert sim.events_processed > 0
    assert sim.events_cancelled == 0


def _two_ticks(sim):
    yield sim.timeout(1.0)
    yield sim.timeout(1.0)
