"""Shared-resource primitives: semaphores, item stores and level containers.

These model contended entities of the cluster: CPU cores (``Resource``),
message queues and free-chunk pools (``Store``), byte reservoirs
(``Container``).  All queueing is strict FIFO, which keeps simulations
deterministic and matches the in-order hardware queues (work queues,
completion queues) they stand in for.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generic, List, Optional, TypeVar

from .core import PENDING, Event, Simulator

__all__ = ["Resource", "Store", "Container"]

T = TypeVar("T")


class _Request(Event):
    """Pending acquisition of one resource slot; usable as a context manager."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.sim, self.name, self.callbacks, self._value = resource.sim, "Request", [], PENDING
        self._ok, self._defused, self._cancelled = True, False, False
        self.resource = resource

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request (e.g. the waiter was interrupted)."""
        self.resource._cancel(self)


class Resource:
    """Counted semaphore with FIFO grant order.

    Usage::

        with core.request() as req:
            yield req
            yield sim.timeout(work)
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users: List[_Request] = []
        self._waiting: Deque[_Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        return len(self._waiting)

    def request(self) -> _Request:
        req = _Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: _Request) -> None:
        try:
            self._users.remove(request)
        except ValueError:
            # Releasing an ungranted request == cancelling it.
            self._cancel(request)
            return
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed()

    def _cancel(self, request: _Request) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            pass


class _StoreGet(Event):
    __slots__ = ("filter",)

    def __init__(self, sim: Simulator, filt: Optional[Callable[[Any], bool]]):
        self.sim, self.name, self.callbacks, self._value = sim, "StoreGet", [], PENDING
        self._ok, self._defused, self._cancelled = True, False, False
        self.filter = filt

    def cancel(self) -> None:
        # A triggered get cannot be withdrawn; the item is already ours.
        pass


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, sim: Simulator, item: Any):
        self.sim, self.name, self.callbacks, self._value = sim, "StorePut", [], PENDING
        self._ok, self._defused, self._cancelled = True, False, False
        self.item = item


class Store(Generic[T]):
    """FIFO store of items with optional capacity and filtered gets.

    Models mailboxes (FTB event queues), free-chunk pools (the migration
    buffer manager) and hardware queues.  ``get(filter=...)`` lets a waiter
    take only matching items — used e.g. to wait for a specific MPI tag.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: List[T] = []
        self._getters: Deque[_StoreGet] = deque()
        self._putters: Deque[_StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: T) -> _StorePut:
        ev = _StorePut(self.sim, item)
        if len(self.items) < self.capacity:
            self._insert(item)
            ev.succeed()
        else:
            self._putters.append(ev)
        return ev

    def get(self, filter: Optional[Callable[[T], bool]] = None) -> _StoreGet:
        ev = _StoreGet(self.sim, filter)
        self._try_get(ev)
        if ev._value is PENDING:
            self._getters.append(ev)
        return ev

    def cancel(self, get_event: _StoreGet) -> None:
        """Withdraw a pending get so it can never consume an item.

        No-op if the get already triggered (the item belongs to the caller)
        — check ``get_event.triggered`` and consume its value in that case.
        """
        try:
            self._getters.remove(get_event)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    def _insert(self, item: T) -> None:
        # Fast path for the overwhelmingly common single-item put.  After
        # any drain, no queued getter matches any stored item (else it
        # would have been granted), so only the *new* item can satisfy a
        # waiter: offer it to the getters in FIFO order instead of
        # re-scanning every stored item for every getter.  Filters must be
        # pure (they are — they close over tags/sizes), so a getter that
        # rejected the store's items before still rejects them now.
        for idx, ev in enumerate(self._getters):
            if ev.filter is None or ev.filter(item):
                del self._getters[idx]
                ev.succeed(item)
                return
        self.items.append(item)

    def _try_get(self, ev: _StoreGet) -> None:
        for idx, item in enumerate(self.items):
            if ev.filter is None or ev.filter(item):
                del self.items[idx]
                ev.succeed(item)
                self._admit_putters()
                return

    def _drain_getters(self) -> None:
        # Items may satisfy several queued getters (after a burst of puts);
        # scan in FIFO order so grant order stays deterministic.
        if not self._getters:
            return
        remaining: Deque[_StoreGet] = deque()
        while self._getters:
            ev = self._getters.popleft()
            self._try_get(ev)
            if ev._value is PENDING:
                remaining.append(ev)
        self._getters = remaining

    def _admit_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            ev = self._putters.popleft()
            self.items.append(ev.item)
            ev.succeed()
        if self.items:
            self._drain_getters()


class Container:
    """A continuous quantity (bytes, joules) with blocking put/get.

    Unlike :class:`Store`, requests are for *amounts* and may be satisfied
    partially ordered but are granted FIFO to avoid starvation.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"), init: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must be within [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self._level = float(init)
        self._getters: Deque = deque()
        self._putters: Deque = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        ev = Event(self.sim, name=f"ContainerPut({amount:g})")
        self._putters.append((ev, amount))
        self._settle()
        return ev

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        ev = Event(self.sim, name=f"ContainerGet({amount:g})")
        self._getters.append((ev, amount))
        self._settle()
        return ev

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                ev, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    ev.succeed()
                    progressed = True
            if self._getters:
                ev, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    ev.succeed()
                    progressed = True
