"""Discrete-event simulation kernel.

This is the foundation of the whole reproduction: every modelled entity
(MPI rank, Node Launch Agent, FTB agent, disk, HCA, buffer manager) is a
coroutine :class:`Process` driven by a single :class:`Simulator` event loop.

The design follows the classic event-calendar architecture (a binary heap
keyed by ``(time, priority, sequence)``) with SimPy-style generator-based
processes: a process is a Python generator that ``yield``\\ s :class:`Event`
objects and is resumed when the event fires.  Unlike wall-clock concurrency,
everything is deterministic: two runs with the same seeds produce identical
traces, which the test suite relies on heavily.

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
import weakref
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

        The calendar drops cancelled entries lazily when they reach the
        head of the queue — their callbacks never run and they never count
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
        # delay-validation branch.
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        heapq.heappush(sim._queue, (sim._now, NORMAL, next(sim._seq), self))
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
        self.sim._schedule(self, NORMAL, delay)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._ok = False
        self._value = exc
        self.sim._schedule(self, NORMAL, 0.0)
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
        super().__init__(sim, name=f"Timeout({delay:.6g})")
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, NORMAL, delay)


class Initialize(Event):
    """Starts a freshly spawned process at the current time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim, name="Initialize")
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        sim._schedule(self, URGENT, 0.0)


class _InterruptEvent(Event):
    """Urgent event carrying an :class:`Interrupt` into a process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process", cause: Any):
        super().__init__(sim, name="Interrupt")
        self.callbacks = [process._resume_interrupt]
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        sim._schedule(self, URGENT, 0.0)


class Process(Event):
    """A coroutine driven by the simulator.

    A ``Process`` is itself an :class:`Event`: it triggers when the
    underlying generator returns (``succeed`` with the return value) or
    raises (``fail`` with the exception), so processes can wait on each
    other simply by yielding them.
    """

    __slots__ = ("_generator", "_target", "_wait_token", "_wait_attached",
                 "__weakref__")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator — did you forget to call it?")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator: Optional[Generator] = generator
        self._target: Optional[Event] = None
        #: The ``(event, callback)`` pair of the current wait — lets an
        #: abandoned wait (interrupt landed first) be detached eagerly
        #: instead of leaving a stale no-op callback in the calendar.
        self._wait_attached: Optional[tuple] = None
        # Monotonic token distinguishing successive waits; a stale callback
        # (from an event the process stopped waiting on after an interrupt)
        # carries an old token and is ignored.
        self._wait_token = 0
        Initialize(sim, self)

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
    def _resume(self, event: Event) -> None:
        self._step(event, token=self._wait_token)

    def _resume_interrupt(self, event: Event) -> None:
        # Interrupts bypass the token check: they must land regardless of
        # what the process is waiting on.  A process that terminated between
        # scheduling and delivery simply drops the interrupt — the cause is
        # moot once the target is gone.
        if not self.is_alive:
            return
        self._step(event, token=None)

    def _step(self, event: Event, token: Optional[int]) -> None:
        if token is not None and token != self._wait_token:
            return  # stale wake-up from an abandoned wait
        if not self.is_alive:
            return
        # Consume the current wait: any other callback still pointing at it
        # (e.g. the event we were waiting on when an interrupt landed) is
        # now stale and will fail the token check above.  Detach it eagerly
        # — and if that leaves an already-triggered straggler with no
        # waiters (a timeout we no longer care about), cancel it so the
        # calendar drops it instead of firing a no-op.
        self._wait_token += 1
        attached = self._wait_attached
        if attached is not None:
            self._wait_attached = None
            waited, stale_cb = attached
            cbs = waited.callbacks
            if waited is not event and cbs:
                try:
                    cbs.remove(stale_cb)
                except ValueError:
                    pass
                else:
                    if not cbs and waited.triggered:
                        waited.cancel()
        self._target = None
        self.sim._active = self
        try:
            if event._ok:
                result = self._generator.send(event._value if event._value is not PENDING else None)
            else:
                event._defused = True
                result = self._generator.throw(event._value)
        except StopIteration as stop:
            self.sim._active = None
            # Drop the generator: its frame holds references back into the
            # event graph (closures over self), forming cycles that pile up
            # as cyclic garbage across repeated runs in one interpreter.
            self._generator = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.sim._active = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._generator = None
            self.fail(exc)
            return
        self.sim._active = None

        if not isinstance(result, Event):
            self._generator.close()
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
            bridge = Event(self.sim, name="bridge")
            bridge._ok = result._ok
            bridge._value = result._value
            if not result._ok:
                bridge._defused = True
                result._defused = True
            tok = self._wait_token
            cb = lambda ev, tok=tok: self._step(ev, tok)  # noqa: E731
            bridge.callbacks = [cb]
            self._wait_attached = (bridge, cb)
            self.sim._schedule(bridge, URGENT, 0.0)
        else:
            tok = self._wait_token
            cb = lambda ev, tok=tok: self._step(ev, tok)  # noqa: E731
            result.callbacks.append(cb)
            self._wait_attached = (result, cb)


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
    """

    #: Always zero.  They exist only for the benchmark's
    #: ``cluster.windows`` and ``cluster.mail_delivered`` count metrics,
    #: and go when the next benchmark change drops those two metrics.
    windows: int = 0
    mail_delivered: int = 0

    def __init__(self, start: float = 0.0, trace: Any = None,
                 metrics: Any = None):
        self._now = float(start)
        #: The calendar: a :mod:`heapq` list of ``(time, priority, seq,
        #: event)`` entries.
        self._queue: list = []
        #: Events whose callbacks ran / cancelled entries dropped unpopped.
        #: Plain counters, cheap enough to keep on the hot path; the
        #: events_per_sec bench family pins them as deterministic results.
        self.events_processed = 0
        self.events_cancelled = 0
        self._seq = count()
        self._active: Optional[Process] = None
        self._unhandled: list = []
        #: Weak refs to every spawned process — lets leak tests enumerate
        #: still-alive (parked) processes without pinning dead ones.
        self._spawned: list = []
        self._trace: Any = None
        self._metrics: Any = None
        #: Optional telemetry probe; ``None`` keeps the run loop at one
        #: float comparison per event (``when >= inf`` is always false).
        self._probe: Any = None
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
        if probe is not None and hasattr(probe, "bind"):
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
        registry.bind(lambda: self._now)

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
        self._spawned.append(weakref.ref(proc))
        if self.trace is not None:
            self.trace.record(self._now, "spawn", name=proc.name)
        return proc

    # aliased for readers used to SimPy
    process = spawn

    def live_processes(self) -> List[Process]:
        """Every spawned process that has not yet terminated.

        A process that outlives the work it was spawned for is a leak (the
        pump-loop regression tests assert on this); dead or collected
        entries are pruned as a side effect, so the registry stays small
        even across very long runs.
        """
        alive: List[Process] = []
        kept: list = []
        for ref in self._spawned:
            proc = ref()
            if proc is not None and proc.is_alive:
                alive.append(proc)
                kept.append(ref)
        self._spawned = kept
        return alive

    def any_of(self, events: Iterable[Event]) -> "Event":
        from .conditions import AnyOf

        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> "Event":
        from .conditions import AllOf

        return AllOf(self, list(events))

    # -- scheduling -------------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        heapq.heappush(self._queue,
                       (self._now + delay, priority, next(self._seq), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the calendar is empty.

        Cancelled stragglers at the head are dropped on the way, exactly as
        :meth:`run` drops them.
        """
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
        """Entries currently in the calendar (cancelled stragglers included)."""
        return len(self._queue)

    def run(self, until: Any = None) -> Any:
        """Run until the calendar drains, ``until`` (a time or an Event) is
        reached, or an un-defused failure surfaces.

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
        heappop = heapq.heappop
        unhandled = self._unhandled
        # Telemetry: one float compare per event when no probe is attached
        # (probe_next stays +inf).  Sampling happens after the clock
        # advance and before the event's callbacks.
        probe = self._probe
        probe_next = probe.next_time if probe is not None else float("inf")
        try:
            while queue:
                entry = queue[0]
                event = entry[3]
                # A cancelled entry with no callbacks is dropped without
                # running anything; it is marked processed so a late waiter
                # that yields it afterwards still resumes through the
                # already-processed bridge.
                if event._cancelled and not event.callbacks:
                    heappop(queue)
                    event.callbacks = None
                    self.events_cancelled += 1
                    continue
                when = entry[0]
                if when > stop_at:
                    break
                heappop(queue)
                if when < self._now:
                    raise SimulationError(
                        f"time went backwards: {when} < {self._now}")
                self._now = when
                if when >= probe_next:
                    probe_next = probe.on_advance(when)
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
