"""Unit tests for the DES kernel: events, processes, interrupts, run()."""

import sys

import pytest

from repro.simulate import (
    Event,
    Interrupt,
    Resource,
    Simulator,
    SimulationError,
    Store,
    Timeout,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)

    sim.spawn(proc(sim))
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc(sim):
        got.append((yield sim.timeout(1.0, value="payload")))

    sim.spawn(proc(sim))
    sim.run()
    assert got == ["payload"]


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        return 42

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == 42
    assert p.ok


def test_process_is_event_waitable():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3)
        return "child-result"

    def parent(sim):
        result = yield sim.spawn(child(sim))
        return result

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.value == "child-result"
    assert sim.now == 3


def test_sequential_timeouts_accumulate():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        yield sim.timeout(2)
        yield sim.timeout(3)

    sim.spawn(proc(sim))
    sim.run()
    assert sim.now == 6


def test_parallel_processes_interleave():
    sim = Simulator()
    log = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.spawn(proc(sim, "b", 2))
    sim.spawn(proc(sim, "a", 1))
    sim.run()
    assert log == [(1, "a"), (2, "b")]


def test_same_time_events_fifo_order():
    sim = Simulator()
    log = []

    def proc(sim, name):
        yield sim.timeout(1)
        log.append(name)

    for name in "abcde":
        sim.spawn(proc(sim, name))
    sim.run()
    assert log == list("abcde")


def test_run_until_time_stops_clock():
    sim = Simulator()

    def proc(sim):
        while True:
            yield sim.timeout(1)

    sim.spawn(proc(sim))
    sim.run(until=10)
    assert sim.now == 10


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(4)
        return "finished"

    p = sim.spawn(proc(sim))
    assert sim.run(until=p) == "finished"
    assert sim.now == 4


def test_run_until_past_time_raises():
    sim = Simulator(start=10)
    with pytest.raises(ValueError):
        sim.run(until=5)


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    never = sim.event()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=never)


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim, ev):
        got.append((yield ev))

    def firer(sim, ev):
        yield sim.timeout(2)
        ev.succeed("fired")

    sim.spawn(waiter(sim, ev))
    sim.spawn(firer(sim, ev))
    sim.run()
    assert got == ["fired"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_fail_propagates_to_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter(sim, ev):
        with pytest.raises(RuntimeError, match="boom"):
            yield ev
        return "handled"

    p = sim.spawn(waiter(sim, ev))
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert p.value == "handled"


def test_unhandled_failure_aborts_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(SimulationError, match="unhandled"):
        sim.run()


def test_defused_failure_is_silent():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("ignored"))
    ev.defuse()
    sim.run()  # no exception


def test_process_exception_propagates_to_parent():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("child blew up")

    def parent(sim):
        try:
            yield sim.spawn(child(sim))
        except ValueError as exc:
            return f"caught: {exc}"

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.value == "caught: child blew up"


def test_uncaught_process_exception_aborts_run():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        raise ValueError("unobserved")

    sim.spawn(proc(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_yield_non_event_fails_process():
    sim = Simulator()

    def proc(sim):
        yield 42

    sim.spawn(proc(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_spawn_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


def test_yield_already_processed_event():
    sim = Simulator()
    log = []

    def proc(sim, ev):
        yield sim.timeout(5)
        value = yield ev  # ev fired long ago
        log.append((sim.now, value))

    ev = sim.event()
    ev.succeed("old-value")
    sim.spawn(proc(sim, ev))
    sim.run()
    assert log == [(5, "old-value")]


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(100)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def attacker(sim, victim_proc):
        yield sim.timeout(3)
        victim_proc.interrupt(cause="migrate now")

    v = sim.spawn(victim(sim))
    sim.spawn(attacker(sim, v))
    sim.run()
    assert log == [(3, "migrate now")]


def test_interrupt_then_original_event_does_not_double_resume():
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(5)
            log.append("timeout-fired")
        except Interrupt:
            log.append("interrupted")
        yield sim.timeout(100)
        log.append("second-wait-done")

    def attacker(sim, v):
        yield sim.timeout(1)
        v.interrupt()

    v = sim.spawn(victim(sim))
    sim.spawn(attacker(sim, v))
    sim.run()
    # The stale t=5 timeout must NOT resume the victim a second time.
    assert log == ["interrupted", "second-wait-done"]
    assert sim.now == 101


def test_interrupt_dead_process_raises():
    sim = Simulator()

    def victim(sim):
        yield sim.timeout(1)

    v = sim.spawn(victim(sim))
    sim.run()
    with pytest.raises(SimulationError):
        v.interrupt()


def test_self_interrupt_rejected():
    sim = Simulator()

    def proc(sim):
        me = sim.active_process
        with pytest.raises(SimulationError):
            me.interrupt()
        yield sim.timeout(1)

    sim.spawn(proc(sim))
    sim.run()


def test_uncaught_interrupt_fails_process():
    sim = Simulator()

    def victim(sim):
        yield sim.timeout(100)

    def attacker(sim, v):
        yield sim.timeout(1)
        v.interrupt("die")

    def supervisor(sim, v):
        with pytest.raises(Interrupt):
            yield v
        return "observed"

    v = sim.spawn(victim(sim))
    sim.spawn(attacker(sim, v))
    s = sim.spawn(supervisor(sim, v))
    sim.run()
    assert s.value == "observed"


def test_active_process_visible_during_execution():
    sim = Simulator()
    seen = []

    def proc(sim):
        seen.append(sim.active_process)
        yield sim.timeout(1)

    p = sim.spawn(proc(sim))
    sim.run()
    assert seen == [p]
    assert sim.active_process is None


def test_peek_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7)
    assert sim.peek() == 7


# -- end of instant -----------------------------------------------------------

def test_peek_is_now_while_end_of_instant_work_is_pending():
    sim = Simulator()
    sim.timeout(7)
    ran = []
    sim.at_instant_end(lambda: ran.append(sim.now))
    assert sim.peek() == 0.0
    sim.run()
    assert ran == [0.0]
    assert sim.peek() == float("inf")


def test_instant_end_runs_after_the_instant_and_before_the_clock_advances():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(1.0)
        sim.at_instant_end(lambda: seen.append(("end", sim.now)))
        yield sim.timeout(0)
        seen.append(("same instant", sim.now))
        yield sim.timeout(1.0)
        seen.append(("next", sim.now))

    sim.spawn(proc(sim))
    sim.run()
    assert seen == [("same instant", 1.0), ("end", 1.0), ("next", 2.0)]
    # Start, three timeouts and the process's end: the callback is no event.
    assert sim.events_processed == 5


def _fluid(sim):
    from repro.network.fluid import FluidNetwork, Link

    return FluidNetwork(sim), Link("l", 100.0)


def _transfer_at_one_second(sim, net, link, started=None):
    """100 B over a 100 B/s link from t=1: a fill at t=1 ends it at t=2."""

    def proc(sim):
        yield sim.timeout(1.0)
        done = net.transfer([link], 100.0)
        if started is not None:
            started.succeed()
        yield done
        return sim.now

    return sim.spawn(proc(sim))


def test_run_until_time_fills_before_it_stops():
    sim = Simulator()
    net, link = _fluid(sim)
    sim.timeout(10.0)  # keeps the calendar busy past the stop
    p = _transfer_at_one_second(sim, net, link)
    sim.run(until=1.5)
    (flow,) = net._flows
    assert flow.rate == 100.0 and flow.remaining == 100.0
    sim.run()
    assert p.value == 2.0


def test_run_until_event_keeps_the_fill_for_the_next_run():
    sim = Simulator()
    net, link = _fluid(sim)
    started = sim.event()
    p = _transfer_at_one_second(sim, net, link, started)
    sim.run(until=started)  # stops mid-instant, the fill still due
    assert sim.now == 1.0 and sim.peek() == 1.0
    sim.run()
    assert p.triggered and p.value == 2.0


def test_drained_calendar_still_runs_the_fill():
    sim = Simulator()
    net, link = _fluid(sim)
    done = net.transfer([link], 100.0)  # the only pending work
    sim.run(until=0.5)
    (flow,) = net._flows
    assert flow.rate == 100.0
    sim.run()
    assert done.processed and sim.now == 1.0


def test_is_alive_transitions():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2)

    p = sim.spawn(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_many_processes_complete():
    sim = Simulator()
    done = []

    def proc(sim, i):
        yield sim.timeout(i % 7 + 0.1)
        done.append(i)

    for i in range(500):
        sim.spawn(proc(sim, i))
    sim.run()
    assert sorted(done) == list(range(500))


def test_live_processes_tracks_parked_and_prunes_dead():
    sim = Simulator()
    gate = Event(sim, name="gate")

    def parked(sim):
        yield gate

    def quick(sim):
        yield sim.timeout(1)

    p1 = sim.spawn(parked(sim), name="parked")
    done = [sim.spawn(quick(sim)) for _ in range(10)]
    sim.run(until=sim.timeout(5))
    live = sim.live_processes()
    assert live == [p1]
    # The registry dropped the dead processes, not just filtered them:
    # only this test's list (and getrefcount's argument) refers to one.
    assert all(sys.getrefcount(done[i]) == 2 for i in range(10))
    del live
    gate.succeed()
    sim.run()
    assert sim.live_processes() == []
    assert sys.getrefcount(p1) == 2


@pytest.mark.parametrize("make_wait", [
    lambda sim: sim.timeout(5.0),  # triggered: sits in the calendar
    lambda sim: sim.event(),       # pending until the attacker fires it
], ids=["timeout", "event"])
def test_rewaiting_after_interrupt_resumes_once(make_wait):
    """A process that yields the event it waited on again after an
    Interrupt resumes exactly once, and the abandoned wait left no
    callback on the event."""
    sim = Simulator()
    log = []

    def victim(sim, ev):
        try:
            yield ev
        except Interrupt:
            log.append(("interrupted", sim.now, list(ev.callbacks)))
        value = yield ev
        log.append(("resumed", sim.now, value))
        yield sim.timeout(10.0)
        log.append(("done", sim.now))

    def attacker(sim, v, ev):
        yield sim.timeout(1.0)
        v.interrupt()
        yield sim.timeout(4.0)
        if not ev.triggered:
            ev.succeed()

    ev = make_wait(sim)
    v = sim.spawn(victim(sim, ev))
    sim.spawn(attacker(sim, v, ev))
    sim.run()
    assert log == [("interrupted", 1.0, []), ("resumed", 5.0, None),
                   ("done", 15.0)]
    assert ev.processed and sim.events_cancelled == 0


def _interrupt_event(sim):
    def sleeper(sim):
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            pass

    proc = sim.spawn(sleeper(sim))
    sim.run(until=1.0)
    proc.interrupt("why")
    return sim._urgent[-1]


def _pending_request(sim):
    res = Resource(sim)
    res.request()
    return res.request()


# Every event class whose constructor fills Event's slots itself instead
# of calling Event.__init__.
@pytest.mark.parametrize("cls_name, make", [
    ("Timeout", lambda sim: sim.timeout(1.5)),
    ("Initialize", lambda sim: sim.spawn(x for x in ())._waiting),
    ("_InterruptEvent", _interrupt_event),
    ("Process", lambda sim: sim.spawn(x for x in ())),
    ("_StorePut", lambda sim: Store(sim).put("item")),
    ("_StoreGet", lambda sim: Store(sim).get()),
    ("_Request", _pending_request),
    ("AnyOf", lambda sim: sim.any_of([sim.event()])),
    ("AllOf", lambda sim: sim.all_of([sim.event()])),
])
def test_every_event_class_sets_every_slot(cls_name, make):
    sim = Simulator()
    ev = make(sim)
    assert type(ev).__name__ == cls_name
    for slot in Event.__slots__:
        getattr(ev, slot)  # an unset slot raises AttributeError
    assert ev.sim is sim
    assert ev._cancelled is False
    assert isinstance(ev.name, str) and ev.name
    assert repr(ev).startswith(f"<{ev.name} at t=")
    ev.defuse()
    assert ev._defused
    ev.cancel()
    sim.run()  # a cancelled or defused entry still leaves a clean calendar


def test_timeout_name_formats_its_delay_on_read():
    sim = Simulator()
    assert "Timeout(1.5)" in repr(sim.timeout(1.5))
    assert sim.timeout(0.25).name == "Timeout(0.25)"
