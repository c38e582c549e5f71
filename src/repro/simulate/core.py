"""Discrete-event simulation kernel.

This is the foundation of the whole reproduction: every modelled entity
(MPI rank, Node Launch Agent, FTB agent, disk, HCA, buffer manager) is a
coroutine :class:`Process` driven by a single :class:`Simulator` event loop.

The design follows the classic event-calendar architecture with
SimPy-style generator-based processes: a process is a Python generator that
``yield``\\ s :class:`Event` objects and is resumed when the event fires.
The calendar orders events by ``(time, priority, scheduling order)`` in two
parts: a binary heap keyed by ``(time, priority, sequence)`` holds only the
events due after the current time, and two FIFO lanes (one per priority)
hold the events due now.  Most events are due the instant they are
scheduled (store grants, completions, process starts), and a lane takes
those without a heap operation or a sequence number.  Unlike wall-clock
concurrency, everything is deterministic: two runs with the same seeds
produce identical traces, which the test suite relies on heavily.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(3.0)
...     return "done"
>>> p = sim.spawn(hello(sim), name="hello")
>>> sim.run()
>>> sim.now
3.0
>>> p.value
'done'
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Any, Generator, Iterable, List, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "PENDING",
    "URGENT",
    "NORMAL",
]

# Event priorities: URGENT events at the same timestamp fire before NORMAL
# ones.  Interrupts are URGENT so that an interrupted process observes the
# interrupt before the event it was waiting on.
URGENT = 0
NORMAL = 1

#: Sentinel for "event not yet triggered".
PENDING = object()


class SimulationError(RuntimeError):
    """An unrecoverable error inside the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process may catch it and continue; ``cause`` carries an
    arbitrary payload describing why it was interrupted (e.g. an
    ``FTB_MIGRATE`` notification).
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A happening at a point in simulated time.

    Life cycle: *pending* → *triggered* (``succeed``/``fail`` called, event
    sits in the calendar) → *processed* (callbacks ran).  Processes wait on
    events by ``yield``\\ ing them.
    """

    #: The per-event subclasses set these in their own constructors
    #: without calling ``Event.__init__``; a new slot must be set there too.
    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused",
                 "_cancelled", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        #: Callables invoked with this event when it is processed.  ``None``
        #: once processed (further appends are a bug).
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._cancelled: bool = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    def defuse(self) -> None:
        """Mark a failure on this event as handled.

        An event that fails without any waiter and without being defused
        aborts the simulation at the end of :meth:`Simulator.run` — silent
        error-swallowing has cost us too many debugging hours in DES work.
        """
        self._defused = True

    def cancel(self) -> None:
        """Mark a triggered-but-unprocessed event as obsolete.

        The calendar drops cancelled entries lazily when they come up for
        processing — their callbacks never run and they never count
        as unhandled failures.  Used for stragglers nobody waits on any
        more, e.g. the losing :class:`Timeout` of an ``any_of`` race.

        Cancellation is *revocable*: it only takes effect while the event
        has no callbacks.  If a new waiter attaches before the entry pops
        (someone late ``yield``\\ s the event), the event processes
        normally — cancelling must never deadlock a legitimate waiter.
        """
        self._cancelled = True

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        # Open-coded succeed_later(value, 0.0): this is the hottest trigger
        # path in the kernel (store grants, flow completions, process
        # termination all land here), so skip the delegation and the
        # delay-validation branch: the event is due now, so it joins the
        # NORMAL lane.  The constructors of the per-event classes (Timeout,
        # Initialize, Process, the store and resource requests, AnyOf/AllOf)
        # are open-coded the same way: each fills Event's slots itself and
        # Timeout/Initialize enter the calendar directly, with no super()
        # chain and no _schedule hop.
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._normal.append(self)
        return self

    def succeed_later(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger success ``delay`` time units from now (0 = this timestep).

        Used by fluid-flow models to account for propagation latency on top
        of the bandwidth-share completion time.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._ok = True
        self._value = value
        sim = self.sim
        now = sim._now
        when = now + delay
        if when == now:
            sim._normal.append(self)
        else:
            heapq.heappush(sim._queue, (when, NORMAL, next(sim._seq), self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._ok = False
        self._value = exc
        self.sim._normal.append(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another event (callback chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition ------------------------------------------------------
    def __or__(self, other: "Event") -> "AnyOf":
        from .conditions import AnyOf

        return AnyOf(self.sim, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        from .conditions import AllOf

        return AllOf(self.sim, [self, other])

    def __repr__(self) -> str:
        tag = self.name or self.__class__.__name__
        return f"<{tag} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.sim, self.callbacks, self._value, self.delay = sim, [], value, delay
        self._ok, self._defused, self._cancelled = True, False, False
        now = sim._now
        when = now + delay
        if when == now:
            sim._normal.append(self)
        else:
            heapq.heappush(sim._queue, (when, NORMAL, next(sim._seq), self))

    @property
    def name(self) -> str:
        # Formatted on read: only repr and debugging look at it.
        return f"Timeout({self.delay:.6g})"


class Initialize(Event):
    """Starts a freshly spawned process at the current time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        self.sim, self.callbacks, self._value = sim, [process._resume_cb], None
        self.name = "Initialize"
        self._ok, self._defused, self._cancelled = True, False, False
        sim._urgent.append(self)


class _InterruptEvent(Event):
    """Urgent event carrying an :class:`Interrupt` into a process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process", cause: Any):
        self.sim, self.name, self.callbacks = sim, "Interrupt", [process._resume_interrupt]
        self._value, self._ok, self._defused, self._cancelled = Interrupt(cause), False, True, False
        sim._urgent.append(self)


class Process(Event):
    """A coroutine driven by the simulator.

    A ``Process`` is itself an :class:`Event`: it triggers when the
    underlying generator returns (``succeed`` with the return value) or
    raises (``fail`` with the exception), so processes can wait on each
    other simply by yielding them.
    """

    __slots__ = ("_generator", "_target", "_waiting", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator — did you forget to call it?")
        self.sim, self.callbacks, self._value = sim, [], PENDING
        self.name = name or getattr(generator, "__name__", "process")
        self._ok, self._defused, self._cancelled = True, False, False
        self._generator: Optional[Generator] = generator
        self._target: Optional[Event] = None
        #: The one callback every wait attaches, bound once here.
        self._resume_cb: Any = self._resume
        #: The event whose callbacks hold ``_resume_cb`` now: the event
        #: yielded, or the bridge to it when it had already been processed.
        #: A wake-up from any other event is stale (an abandoned wait).
        self._waiting: Optional[Event] = Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (``None`` if running)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait point."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has already terminated")
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        _InterruptEvent(self.sim, self, cause)

    # -- resumption machinery ----------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        # Interrupts land whatever the process is waiting on.  A process
        # that terminated between scheduling and delivery simply drops the
        # interrupt — the cause is moot once the target is gone.
        if not self.is_alive:
            return
        # Abandon the current wait: detach its callback eagerly, and if
        # that leaves an already-triggered straggler with no waiters (a
        # timeout we no longer care about), cancel it so the calendar
        # drops it instead of firing a no-op.
        waited = self._waiting
        if waited is not None:
            cbs = waited.callbacks
            if cbs:
                try:
                    cbs.remove(self._resume_cb)
                except ValueError:
                    pass
                else:
                    if not cbs and waited.triggered:
                        waited.cancel()
        self._waiting = event
        self._resume(event)

    def _resume(self, event: Event) -> None:
        if event is not self._waiting:
            return  # stale wake-up from an abandoned wait
        self._waiting = self._target = None
        sim = self.sim
        sim._active = self
        try:
            if event._ok:
                result = self._generator.send(event._value if event._value is not PENDING else None)
            else:
                event._defused = True
                result = self._generator.throw(event._value)
        except StopIteration as stop:
            sim._active = None
            # Drop the generator and the bound callback: the generator's
            # frame holds references back into the event graph (closures
            # over self) and the callback holds self, forming cycles that
            # pile up as cyclic garbage across repeated runs in one
            # interpreter.
            self._generator = self._resume_cb = None
            sim._live.pop(self, None)
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._generator = self._resume_cb = None
            sim._live.pop(self, None)
            self.fail(exc)
            return
        sim._active = None

        if not isinstance(result, Event):
            self._generator.close()
            self._generator = self._resume_cb = None
            sim._live.pop(self, None)
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {result!r}; processes must yield Event objects"
                )
            )
            return
        self._target = result
        if result.callbacks is None:
            # Already processed: resume immediately in the same timestep via
            # an urgent bridge event so that ordering stays deterministic.
            bridge = Event(sim, name="bridge")
            bridge._ok = result._ok
            bridge._value = result._value
            if not result._ok:
                bridge._defused = True
                result._defused = True
            bridge.callbacks = [self._resume_cb]
            self._waiting = bridge
            sim._urgent.append(bridge)
        else:
            result.callbacks.append(self._resume_cb)
            self._waiting = result


class Simulator:
    """The event loop: a calendar of triggered events and the clock.

    Parameters
    ----------
    start:
        Initial simulated time (seconds by convention throughout the repo).
    trace:
        Optional :class:`repro.simulate.trace.Tracer` receiving kernel
        events; ``None`` disables tracing (the common, fast path).
        Assigning a tracer (at construction or later) binds its span
        clock to this simulator.
    metrics:
        Optional :class:`repro.simulate.metrics.MetricsRegistry`;
        components create instruments through ``sim.metrics``.  When
        omitted, the shared inert registry keeps instrumented hot paths
        at no-op cost.

    Callbacks passed to :meth:`at_instant_end` run once the current time
    has no event left: before the clock advances, before a ``run(until=t)``
    break, and when the calendar drains.  They are not events.
    """

    #: Always zero.  They exist only for the benchmark's
    #: ``cluster.windows`` and ``cluster.mail_delivered`` count metrics,
    #: and go when the next benchmark change drops those two metrics.
    windows: int = 0
    mail_delivered: int = 0

    def __init__(self, start: float = 0.0, trace: Any = None,
                 metrics: Any = None):
        self._now = float(start)
        #: The calendar.  ``_queue`` is a :mod:`heapq` list of ``(time,
        #: priority, seq, event)`` entries, all due after ``now``; the
        #: events due at ``now`` wait in the two lanes in scheduling order,
        #: ``_urgent`` served before ``_normal``.  When both lanes are
        #: empty the run loop advances the clock to the heap's head and
        #: moves every entry for that time into its lane, in heap order.
        self._queue: list = []
        self._urgent: deque = deque()
        self._normal: deque = deque()
        #: Events whose callbacks ran / cancelled entries dropped unpopped.
        #: Plain counters, cheap enough to keep on the hot path; the
        #: events_per_sec bench family pins them as deterministic results.
        self.events_processed = 0
        self.events_cancelled = 0
        self._seq = count()
        self._active: Optional[Process] = None
        self._unhandled: list = []
        #: Every spawned process whose generator has not ended, in spawn
        #: order (dict keys; the values are unused).  A process leaves it
        #: when it returns or raises, so it holds live state only.
        self._live: dict = {}
        self._trace: Any = None
        self._metrics: Any = None
        #: Optional telemetry probe; ``None`` keeps the run loop at one
        #: float comparison per event (``when >= inf`` is always false).
        self._probe: Any = None
        #: Callbacks due at the end of the current instant.
        self._instant_end: list = []
        self.trace = trace
        self.metrics = metrics

    # -- observability ------------------------------------------------------
    @property
    def trace(self) -> Any:
        """The bound tracer, or ``None`` on the untraced fast path."""
        return self._trace

    @trace.setter
    def trace(self, tracer: Any) -> None:
        self._trace = tracer
        if tracer is not None and hasattr(tracer, "bind"):
            tracer.bind(self)

    @property
    def tracer(self) -> Any:
        """Always-an-object tracer view (the shared null tracer when off).

        Use for span-style instrumentation (``with sim.tracer.span(...)``)
        where a ``None`` check would be awkward; keep the ``sim.trace is
        not None`` guard on per-event hot paths that build field dicts.
        """
        if self._trace is not None:
            return self._trace
        from .trace import NULL_TRACER

        return NULL_TRACER

    @property
    def probe(self) -> Any:
        """The attached telemetry probe, or ``None`` (the fast default)."""
        return self._probe

    def attach_probe(self, probe: Any) -> Any:
        """Attach a :class:`~repro.simulate.telemetry.TelemetryProbe`.

        The probe is *observed*, never scheduled: the run loop samples it
        when the clock crosses its next boundary, so attaching one cannot
        change event order, sequence numbering, or any simulation
        outcome.  Attach before :meth:`run`; returns the probe.
        """
        self._probe = probe
        if probe is not None:
            probe.bind(self)
        return probe

    @property
    def metrics(self) -> Any:
        """The bound metrics registry (a shared inert one by default)."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry: Any) -> None:
        if registry is None:
            from .metrics import NULL_METRICS

            registry = NULL_METRICS
        self._metrics = registry

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active

    # -- event factories ------------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        proc = Process(self, generator, name)
        self._live[proc] = None
        trace = self._trace
        if trace is not None:
            trace.record(self._now, "spawn", name=proc.name)
        return proc

    def live_processes(self) -> List[Process]:
        """Every spawned process that has not yet terminated, in spawn order.

        A process that outlives the work it was spawned for is a leak (the
        pump-loop regression tests assert on this).  The registry holds
        only these: a process leaves it when its generator ends, so it
        stays as small as the live state however long the run.
        """
        return list(self._live)

    def any_of(self, events: Iterable[Event]) -> "Event":
        from .conditions import AnyOf

        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> "Event":
        from .conditions import AllOf

        return AllOf(self, list(events))

    # -- scheduling -------------------------------------------------------------
    def at_instant_end(self, callback: Any) -> None:
        """Call ``callback()`` once the current instant's events are done;
        it may schedule events, at the current time too."""
        self._instant_end.append(callback)

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        now = self._now
        when = now + delay
        if when == now:
            # Due now (also a delay too small to move the clock).
            (self._urgent if priority == URGENT else self._normal).append(event)
        else:
            heapq.heappush(self._queue,
                           (when, priority, next(self._seq), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the calendar is empty.

        ``now`` while end-of-instant work is pending.  Cancelled stragglers
        at the head are dropped on the way, exactly as :meth:`run` drops
        them.
        """
        if self._instant_end:
            return self._now
        for lane in (self._urgent, self._normal):
            while lane:
                event = lane[0]
                if event._cancelled and not event.callbacks:
                    lane.popleft()
                    event.callbacks = None
                    self.events_cancelled += 1
                    continue
                return self._now
        queue = self._queue
        while queue:
            event = queue[0][3]
            if event._cancelled and not event.callbacks:
                heapq.heappop(queue)
                event.callbacks = None
                self.events_cancelled += 1
                continue
            return queue[0][0]
        return float("inf")

    def queue_depth(self) -> int:
        """Entries currently in the calendar, the heap and both lanes
        (cancelled stragglers included)."""
        return len(self._queue) + len(self._urgent) + len(self._normal)

    def run(self, until: Any = None) -> Any:
        """Run until the calendar drains, ``until`` (a time or an Event) is
        reached, or an un-defused failure surfaces.

        End-of-instant callbacks run before the clock advances, before a
        ``until`` time stops the run, and when the calendar drains.  A run
        stopped by an ``until`` event leaves them to the next :meth:`run`.

        Returns the value of ``until`` when it is an event that triggered.
        """
        stop_at = float("inf")
        watched: Optional[Event] = None
        if isinstance(until, Event):
            watched = until
            if until.callbacks is None:  # already processed
                return until._value

            def _stop(ev: Event) -> None:
                ev._defused = True
                raise StopSimulation(ev._value)

            until.callbacks.append(_stop)
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(f"until={stop_at} is in the past (now={self._now})")

        queue = self._queue
        urgent = self._urgent
        normal = self._normal
        pop_urgent = urgent.popleft
        pop_normal = normal.popleft
        heappop = heapq.heappop
        unhandled = self._unhandled
        # Telemetry: one float compare per clock advance when no probe is
        # attached (probe_next stays +inf).  Sampling happens after the
        # clock advance and before the first event's callbacks.
        probe = self._probe
        probe_next = probe.next_time if probe is not None else float("inf")
        instant_end = self._instant_end
        # The clock lives in a local; self._now is written only when it
        # advances (callbacks read it through sim.now).
        now = self._now
        try:
            while True:
                if urgent:
                    event = pop_urgent()
                elif normal:
                    event = pop_normal()
                elif instant_end:
                    while instant_end:
                        instant_end.pop(0)()
                    continue
                else:
                    # The instant is over: advance the clock to the heap's
                    # first live entry.
                    if not queue:
                        break
                    entry = queue[0]
                    event = entry[3]
                    if event._cancelled and not event.callbacks:
                        heappop(queue)
                        event.callbacks = None
                        self.events_cancelled += 1
                        continue
                    when = entry[0]
                    if when > stop_at:
                        break
                    heappop(queue)
                    if when < now:
                        raise SimulationError(
                            f"time went backwards: {when} < {now}")
                    self._now = now = when
                    if when >= probe_next:
                        probe_next = probe.on_advance(when)
                    # The rest due at `when` were scheduled before the clock
                    # got here, so they go ahead of anything queued from now
                    # on: into the lanes, in heap order.
                    while queue and queue[0][0] == when:
                        entry = heappop(queue)
                        (urgent if entry[1] == URGENT else normal).append(entry[3])
                # A cancelled entry with no callbacks is dropped without
                # running anything; it is marked processed so a late waiter
                # that yields it afterwards still resumes through the
                # already-processed bridge.
                if event._cancelled and not event.callbacks:
                    event.callbacks = None
                    self.events_cancelled += 1
                    continue
                callbacks = event.callbacks
                if callbacks is None:
                    raise SimulationError(
                        f"{event!r} popped with callbacks already consumed — "
                        "the event was processed once and re-scheduled; an "
                        "event may only be scheduled once")
                event.callbacks = None
                self.events_processed += 1
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event._defused:
                    unhandled.append(event)
                if unhandled:
                    ev = unhandled[0]
                    raise SimulationError(
                        f"unhandled failure in {ev!r}: {ev._value!r}"
                    ) from (ev._value if isinstance(ev._value, BaseException) else None)
        except StopSimulation as stop:
            if watched is not None and watched.triggered and not watched._ok:
                raise stop.value from None
            return stop.value
        if watched is not None and not watched.triggered:
            raise SimulationError(
                f"run(until={watched!r}) finished but the event never triggered — deadlock?"
            )
        if stop_at != float("inf"):
            self._now = stop_at
        return None
