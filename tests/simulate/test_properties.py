"""Property-based tests (hypothesis) for DES kernel invariants."""

import heapq
import math
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulate import Interrupt, RandomStreams, Simulator, Store
from repro.simulate.core import NORMAL, URGENT


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=60))
@settings(max_examples=120)
def test_time_is_monotonic_nondecreasing(delays):
    """Observed clock values never decrease, whatever the spawn order."""
    sim = Simulator()
    observed = []

    def proc(sim, d):
        yield sim.timeout(d)
        observed.append(sim.now)

    for d in delays:
        sim.spawn(proc(sim, d))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert sim.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0, max_value=100,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=40),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60)
def test_runs_are_deterministic(delays, seed):
    """Two identical runs produce identical completion traces."""

    def run_once():
        sim = Simulator()
        trace = []

        def proc(sim, i, d):
            yield sim.timeout(d)
            trace.append((i, sim.now))

        for i, d in enumerate(delays):
            sim.spawn(proc(sim, i, d))
        sim.run()
        return trace

    assert run_once() == run_once()


@given(items=st.lists(st.integers(), min_size=0, max_size=50))
@settings(max_examples=100)
def test_store_preserves_items_exactly(items):
    """Everything put into a Store comes out exactly once, in FIFO order."""
    sim = Simulator()
    store = Store(sim)
    out = []

    def producer(sim):
        for item in items:
            yield store.put(item)

    def consumer(sim):
        for _ in items:
            out.append((yield store.get()))

    sim.spawn(producer(sim))
    sim.spawn(consumer(sim))
    sim.run()
    assert out == items
    assert len(store) == 0


@given(n_procs=st.integers(min_value=1, max_value=30),
       same_time=st.floats(min_value=0, max_value=10, allow_nan=False))
@settings(max_examples=50)
def test_same_timestamp_fifo(n_procs, same_time):
    """All events at one timestamp fire in spawn order (determinism)."""
    sim = Simulator()
    order = []

    def proc(sim, i):
        yield sim.timeout(same_time)
        order.append(i)

    for i in range(n_procs):
        sim.spawn(proc(sim, i))
    sim.run()
    assert order == list(range(n_procs))


@given(seed=st.integers(min_value=0, max_value=2**31),
       names=st.lists(st.text(min_size=1, max_size=12), min_size=2,
                      max_size=6, unique=True))
@settings(max_examples=50)
def test_rng_streams_independent_and_reproducible(seed, names):
    rs1, rs2 = RandomStreams(seed), RandomStreams(seed)
    for name in names:
        a = rs1.stream(name).random(8)
        b = rs2.stream(name).random(8)
        assert (a == b).all()
    # distinct names give distinct streams (same name twice -> same object)
    assert rs1.stream(names[0]) is rs1.stream(names[0])


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20)
def test_rng_new_stream_does_not_disturb_existing(seed):
    """Common-random-numbers discipline: draws from stream A are identical
    whether or not stream B is ever created."""
    rs1, rs2 = RandomStreams(seed), RandomStreams(seed)
    a1 = rs1.stream("a").random(4)
    rs2.stream("b").random(100)  # interleave another stream
    a2 = rs2.stream("a").random(4)
    assert (a1 == a2).all()


# -- calendar order -------------------------------------------------------------

class _HeapPush:
    """Stands in for a lane: pushes the event onto the one heap at ``now``."""

    def __init__(self, sim, priority):
        self.sim, self.priority = sim, priority

    def append(self, event):
        sim = self.sim
        heapq.heappush(sim._queue,
                       (sim._now, self.priority, next(sim._seq), event))

    def __len__(self):
        return 0


class _OneHeap(Simulator):
    """Reference calendar: the run loop the kernel had before its lanes.
    Every entry, due now or later, sits in one heap of ``(time, priority,
    seq, event)`` whose minimum fires next, so events fire in sorted
    (time, priority, scheduling order) order by construction.  It shares
    the kernel's events and processes."""

    def __init__(self):
        super().__init__()
        self._urgent = _HeapPush(self, URGENT)
        self._normal = _HeapPush(self, NORMAL)

    def run(self, until=None):
        stop_at = math.inf if until is None else float(until)
        queue, instant_end = self._queue, self._instant_end
        while True:
            if instant_end and (not queue or queue[0][0] > self._now):
                while instant_end:
                    instant_end.pop(0)()
                continue
            if not queue:
                break
            when, _, _, event = queue[0]
            if event._cancelled and not event.callbacks:
                heapq.heappop(queue)
                event.callbacks = None
                self.events_cancelled += 1
                continue
            if when > stop_at:
                break
            heapq.heappop(queue)
            self._now = when
            callbacks, event.callbacks = event.callbacks, None
            self.events_processed += 1
            for cb in callbacks:
                cb(event)
            assert event._ok or event._defused, "the program handles failures"
        if until is not None:
            self._now = stop_at


class _Journal:
    """What the program saw the calendar do with the events it scheduled.

    ``clock`` ticks once per scheduling and once per firing, so a fired
    entry ``(key, tick)`` was pending when an earlier one fired iff its
    key's scheduling tick is below that one's firing tick."""

    def __init__(self, sim):
        self.sim = sim
        self.clock = count()
        self.watched = []
        #: ``((time, NORMAL, scheduling tick), firing tick)`` per firing.
        self.fired = []
        #: Events fired although cancelled with no waiter left.
        self.revived = []

    def watch(self, event, delay=0.0):
        """Witness ``event``, just scheduled at NORMAL ``delay`` from now."""
        key = (self.sim.now + delay, NORMAL, next(self.clock))
        event.callbacks = _Witness(self, event, key)
        self.watched.append((event, key))
        return event

    def check(self):
        fired = self.fired
        for i, (key, at) in enumerate(fired):
            for later, _ in fired[i + 1:]:
                if later[2] < at:  # pending when ``key`` fired
                    assert key < later
        assert not self.revived
        # Each watched event fired once or was dropped as cancelled.
        fired_keys = {key for key, _ in fired}
        assert len(fired_keys) == len(fired)
        for event, key in self.watched:
            assert event.callbacks is None
            if key not in fired_keys:
                assert event._cancelled


class _Witness(list):
    """A callback list that tells the journal when its event fires: the
    kernel iterates an event's callbacks once, on firing, and never
    iterates a dropped entry's."""

    __slots__ = ("journal", "event", "key")

    def __init__(self, journal, event, key):
        super().__init__(event.callbacks)
        self.journal, self.event, self.key = journal, event, key

    def __iter__(self):
        journal = self.journal
        if self.event._cancelled and not self:
            journal.revived.append(self.event)
        journal.fired.append((self.key, next(journal.clock)))
        return super().__iter__()


class _Boom(Exception):
    pass


def _delay(sim, kind):
    if kind == "zero":
        return 0.0
    if kind == "sub-ulp":  # too small to move the clock
        return math.ulp(sim.now) * 0.4
    return kind


_DELAYS = st.sampled_from(["zero", "sub-ulp", 0.1, 0.5, 1.0, 1.5])
_EV = st.integers(min_value=0, max_value=3)
_TIMER = st.integers(min_value=0, max_value=2)
_STEP = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("succeed"), _EV),
    st.tuples(st.just("succeed_later"), _EV, _DELAYS),
    st.tuples(st.just("fail"), _EV),
    st.tuples(st.just("wait"), _EV),
    st.tuples(st.just("interrupt"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("arm"), _TIMER, _DELAYS),
    st.tuples(st.just("race"), _TIMER, _DELAYS),
    st.tuples(st.just("cancel"), _TIMER),
    st.tuples(st.just("wait_timer"), _TIMER),
    st.tuples(st.just("instant_end"), _DELAYS),
    st.tuples(st.just("spawn"), st.integers(min_value=0, max_value=3)),
)


def _play(sim, scripts, stops):
    """Run ``scripts`` (one actor each) on ``sim``, stopping at each of
    ``stops`` before the final run; returns what the program saw and the
    journal of the events it scheduled."""
    log = []
    journal = _Journal(sim)

    def timeout(kind):
        delay = _delay(sim, kind)
        return journal.watch(sim.timeout(delay), delay)

    events = [sim.event(f"ev{k}") for k in range(4)]
    for k, ev in enumerate(events):
        ev.callbacks.append(lambda e, k=k: log.append(("ev", k, sim.now)))
    timers = [None] * 3
    actors = {}
    started = set()

    def end_of_instant(tag, kind):
        log.append(("instant-end", tag, sim.now))
        timer = timeout(kind)
        timer.callbacks.append(lambda e: log.append(("late", tag, sim.now)))

    def actor(name, script, may_spawn):
        started.add(name)
        for i, step in enumerate(script):
            op = step[0]
            try:
                if op == "sleep":
                    yield timeout(step[1])
                elif op in ("succeed", "succeed_later", "fail"):
                    ev = events[step[1]]
                    if ev.triggered:
                        continue
                    delay = 0.0
                    if op == "succeed":
                        ev.succeed(name)
                    elif op == "succeed_later":
                        delay = _delay(sim, step[2])
                        ev.succeed_later(name, delay)
                    else:
                        ev.fail(_Boom(name))
                        ev.defuse()
                    journal.watch(ev, delay)
                elif op == "wait":
                    # An event that already fired resumes through the
                    # URGENT bridge.
                    yield events[step[1]]
                elif op == "interrupt":
                    target = actors.get(step[1])
                    if (target is not None and target.is_alive
                            and target is not sim.active_process
                            and step[1] in started):
                        target.interrupt(name)
                elif op == "arm":
                    timers[step[1]] = timeout(step[2])
                elif op == "race":
                    # The loser is cancelled unless a late waiter comes.
                    timer = timers[step[1]]
                    if timer is None:
                        timer = timers[step[1]] = timeout(1.0)
                    yield timer | timeout(step[2])
                elif op == "cancel":
                    if timers[step[1]] is not None:
                        timers[step[1]].cancel()
                elif op == "wait_timer":
                    # Waiting on a cancelled timer revokes the cancel.
                    if timers[step[1]] is not None:
                        yield timers[step[1]]
                elif op == "instant_end":
                    sim.at_instant_end(
                        lambda tag=(name, i), kind=step[1]:
                        end_of_instant(tag, kind))
                elif op == "spawn" and may_spawn:
                    child = len(actors)
                    actors[child] = sim.spawn(
                        actor(child, scripts[step[1] % len(scripts)], False))
            except Interrupt as exc:
                log.append((name, i, sim.now, "interrupt", exc.cause))
            except _Boom as exc:
                log.append((name, i, sim.now, "failed", exc.args[0]))
            else:
                log.append((name, i, sim.now))

    for name, script in enumerate(scripts):
        actors[name] = sim.spawn(actor(name, script, True))
    for stop in stops:
        if stop >= sim.now:
            sim.run(until=stop)
            log.append(("stop", stop, sim.now, sim.queue_depth(), sim.peek()))
    sim.run()
    return log, journal


@given(scripts=st.lists(st.lists(_STEP, max_size=8), min_size=1,
                        max_size=4),
       stops=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.6, 3.0]),
                      max_size=3).map(sorted))
@settings(max_examples=400, deadline=None)
def test_lanes_fire_in_calendar_order(scripts, stops):
    """The kernel serves same-instant events from two FIFO lanes and only
    later ones from its heap.  Random programs mix zero, positive and
    sub-ulp delays, succeed/succeed_later/fail, interrupts, waits on fired
    events (the URGENT bridge), cancelled race losers (some revoked by a
    late waiter), end-of-instant callbacks that schedule at ``now`` and
    ``run(until=t)`` stops.  Every event the program scheduled fires
    before any pending one with a larger (time, priority, scheduling
    order) key; a cancelled entry with no waiter never fires; and the
    program sees exactly what the one-heap reference calendar gives it,
    down to the processed and cancelled counters."""
    sim, ref = Simulator(), _OneHeap()
    log, journal = _play(sim, scripts, stops)
    ref_log, ref_journal = _play(ref, scripts, stops)
    journal.check()
    ref_journal.check()
    assert log == ref_log
    assert journal.fired == ref_journal.fired
    assert ((sim.events_processed, sim.events_cancelled)
            == (ref.events_processed, ref.events_cancelled))
    times = [entry[2] for entry in log if entry[0] != "stop"]
    assert times == sorted(times)
