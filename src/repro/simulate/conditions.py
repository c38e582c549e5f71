"""Composite wait conditions: wait for *any* or *all* of a set of events.

Used pervasively by the migration protocol, e.g. "wait until every rank has
entered the migration barrier" (:class:`AllOf`) or "wait for either a chunk
arrival or a shutdown notice" (:class:`AnyOf`).
"""

from __future__ import annotations

from typing import Any, Dict, List

from .core import PENDING, Event, Simulator

__all__ = ["Condition", "AnyOf", "AllOf", "ConditionValue"]


class ConditionValue:
    """Ordered mapping from the *triggered* constituent events to their values.

    Behaves like a read-only dict keyed by event object, in the original
    event order.
    """

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(repr(event))
        return event._value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def values(self) -> List[Any]:
        return [ev._value for ev in self.events]

    def todict(self) -> Dict[Event, Any]:
        return {ev: ev._value for ev in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Base composite event; subclasses define when it is satisfied."""

    __slots__ = ("_events", "_done")

    def __init__(self, sim: Simulator, events: List[Event]):
        self.sim, self.name, self.callbacks, self._value = sim, type(self).__name__, [], PENDING
        self._ok, self._defused, self._cancelled = True, False, False
        self._events = list(events)
        self._done = 0
        for ev in self._events:
            if ev.sim is not sim:
                raise ValueError("cannot mix events from different simulators")
        if self._satisfied():
            # Degenerate case (e.g. AllOf([])) — trigger straight away.
            self.succeed(self._collect())
            return
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
                if self._value is not PENDING:
                    return
            else:
                ev.callbacks.append(self._check)

    # hooks ----------------------------------------------------------------
    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _collect(self) -> ConditionValue:
        value = ConditionValue()
        for ev in self._events:
            # A Timeout carries its value from birth, so "triggered" would
            # over-collect; only events whose callbacks already ran count.
            if ev.callbacks is None:
                value.events.append(ev)
        return value

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            if not event._ok:
                event._defused = True  # condition already resolved; absorb
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._cancel_stragglers()
            return
        self._done += 1
        if self._satisfied():
            self.succeed(self._collect())
            self._cancel_stragglers()

    def _cancel_stragglers(self) -> None:
        """Withdraw interest from already-triggered constituents we lost to.

        Once the condition resolves, a constituent that triggered but has
        not processed yet (e.g. the losing :class:`Timeout` of an
        ``any_of`` race) would pop later and fire ``_check`` as a no-op.
        Remove our callback and, if that leaves the entry with no waiters
        at all, cancel it so the calendar drops it unprocessed.  *Pending*
        constituents keep the callback: it is what defuses their failure
        if they fail after the race is over.
        """
        for ev in self._events:
            cbs = ev.callbacks
            if cbs is None or ev._value is PENDING:
                continue
            try:
                cbs.remove(self._check)
            except ValueError:
                continue
            if not cbs:
                ev.cancel()


class AnyOf(Condition):
    """Triggers as soon as one constituent event succeeds."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._events) == 0 or self._done >= 1


class AllOf(Condition):
    """Triggers once every constituent event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done == len(self._events)
