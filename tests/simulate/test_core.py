"""Unit tests for the DES kernel: events, processes, interrupts, run()."""

import pytest

from repro.simulate import (
    Event,
    Interrupt,
    Simulator,
    SimulationError,
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
    for _ in range(10):
        sim.spawn(quick(sim))
    sim.run(until=sim.timeout(5))
    live = sim.live_processes()
    assert live == [p1]
    gate.succeed()
    sim.run()
    assert sim.live_processes() == []
    # Dead entries were pruned from the registry, not just filtered.
    assert len(sim._spawned) == 0
