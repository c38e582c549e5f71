"""Sharded simulation kernel: partition-local event loops under a
conservative synchronization window.

The single-loop :class:`~repro.simulate.core.Simulator` tops out, by
construction, at the paper's 8+1-node testbed shape: every event in the
system funnels through one calendar.  Cluster-scale scenarios (1000
nodes, dozens of concurrent jobs) are *mostly* partition-local — a rack's
checkpoint traffic never shares a link with another rack's — so this
module lifts the fluid engine's connected-component idea (PR 1) into the
kernel itself:

* an :class:`EventShard` is a full ``Simulator`` (same event queue,
  same spawn/schedule/run semantics) owning one *partition* of the
  topology;
* a :class:`ShardedSimulator` owns N shards and coordinates them with the
  classic conservative (Chandy–Misra–Bryant-style) window: the next
  window covers ``[t, t + lookahead)`` where ``t`` is the earliest
  pending work anywhere and ``lookahead`` is the minimum latency of any
  cross-partition link;
* all cross-shard interaction travels through timestamped
  :class:`ShardMessage` mailboxes (:meth:`EventShard.post` /
  :meth:`EventShard.subscribe`), delivered no earlier than
  ``send_time + lookahead`` and drained at window boundaries.

Because a message sent at time ``s`` cannot be delivered before
``s + lookahead``, and a window never extends past ``start + lookahead``,
every message posted during a window is deliverable only *at or after*
that window's end — so running the shards one window at a time, in fixed
shard order, is causally safe and fully deterministic.  There is no wall
clock, no threads, and no racing: "parallel" here means *partitioned
work*, reproducible to the byte, which is the property the determinism
suite pins.

``shards=1`` is the degenerate case: :meth:`ShardedSimulator.run`
delegates straight to the single shard's ordinary run loop, so existing
scenarios pay nothing and produce byte-identical traces — the
compatibility gate in ``tests/test_determinism.py``.

Trace records
-------------
A sharded run emits two kernel-layer kinds: ``shard.sync`` (one per
committed window: its index, horizon, mail delivered, events processed)
and ``shard.mail`` (one per delivered cross-shard message).  Sharded
scenario code should emit *point* records (explicit times); tracer spans
bind their clock to a single simulator and are not shard-aware.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from .core import (
    NORMAL,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)

__all__ = ["EventShard", "ShardMessage", "ShardedSimulator", "PartitionMap",
           "derive_lookahead"]

_INF = float("inf")


def derive_lookahead(latencies: Iterable[float]) -> float:
    """The conservative lookahead: minimum cross-partition link latency.

    ``latencies`` enumerates the latency (seconds) of every link that
    crosses a partition boundary in the static partition map.  The window
    width must not exceed the fastest way one partition can influence
    another, so the minimum is the only safe choice.
    """
    values = [float(x) for x in latencies]
    if not values:
        raise ValueError(
            "no cross-partition links: the topology is one partition — "
            "run it with shards=1 instead of sharding")
    lookahead = min(values)
    if lookahead <= 0:
        raise ValueError(
            f"cross-partition link latency must be > 0 to bound the "
            f"synchronization window, got {lookahead}")
    return lookahead


class PartitionMap:
    """Static assignment of topology partitions to shards.

    A *partition* is whatever unit the scenario shards by — a rack name,
    a fluid-engine component id — and the map is fixed before the run
    starts: conservative sync needs the cross-partition link set (and so
    the lookahead) to be static.
    """

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self._assign: Dict[Any, int] = {}

    @classmethod
    def round_robin(cls, partitions: Iterable[Any],
                    shards: int) -> "PartitionMap":
        """Deal partitions over shards in the given (deterministic) order."""
        pm = cls(shards)
        for i, part in enumerate(partitions):
            pm._assign[part] = i % shards
        return pm

    def assign(self, partition: Any, shard: int) -> None:
        if not 0 <= shard < self.shards:
            raise ValueError(f"shard {shard} out of range 0..{self.shards - 1}")
        self._assign[partition] = shard

    def shard_of(self, partition: Any) -> int:
        try:
            return self._assign[partition]
        except KeyError:
            raise KeyError(f"unmapped partition {partition!r}") from None

    def partitions_of(self, shard: int) -> List[Any]:
        return [p for p, s in self._assign.items() if s == shard]

    def __len__(self) -> int:
        return len(self._assign)

    def __contains__(self, partition: Any) -> bool:
        return partition in self._assign

    def items(self):
        return self._assign.items()

    def __repr__(self) -> str:
        return f"<PartitionMap {len(self._assign)} partitions / {self.shards} shards>"


class ShardMessage:
    """One timestamped cross-shard message.

    ``deliver_time`` is always at least ``send_time + lookahead`` — the
    mailbox refuses anything faster, because a faster message could land
    inside a window another shard has already committed.
    """

    __slots__ = ("send_time", "deliver_time", "src", "dst", "seq", "topic",
                 "data")

    def __init__(self, send_time: float, deliver_time: float, src: int,
                 dst: int, seq: int, topic: str, data: Any):
        self.send_time = send_time
        self.deliver_time = deliver_time
        self.src = src
        self.dst = dst
        self.seq = seq
        self.topic = topic
        self.data = data

    def __repr__(self) -> str:
        return (f"<ShardMessage {self.topic!r} {self.src}->{self.dst} "
                f"sent={self.send_time:.6g} deliver={self.deliver_time:.6g}>")


class EventShard(Simulator):
    """One partition-local event loop owned by a :class:`ShardedSimulator`.

    A full :class:`Simulator` — scenario code spawns processes, creates
    timeouts, and drives fluid networks on it exactly as on the global
    loop — plus the mailbox surface for the *only* sanctioned way to
    touch another shard: :meth:`post` out, :meth:`subscribe` in.
    """

    def __init__(self, owner: "ShardedSimulator", shard_id: int,
                 **kwargs: Any):
        super().__init__(**kwargs)
        self.shard_id = shard_id
        self._owner = owner
        self._mail_handlers: List[Callable[[ShardMessage], None]] = []

    @property
    def owner(self) -> "ShardedSimulator":
        return self._owner

    # -- mailbox surface ----------------------------------------------------
    def post(self, dst: int, topic: str, data: Any = None,
             delay: Optional[float] = None) -> ShardMessage:
        """Send ``data`` to shard ``dst``, arriving ``delay`` seconds from
        now (default: the owner's lookahead, the earliest legal arrival)."""
        return self._owner._post(self, dst, topic, data, delay)

    def subscribe(self, handler: Callable[[ShardMessage], None]) -> None:
        """Register a delivery handler, called in *this* shard's event loop
        at each message's deliver time (registration order, deterministic)."""
        self._mail_handlers.append(handler)

    def _dispatch_mail(self, event: Event) -> None:
        msg: ShardMessage = event.value
        trace = self.trace
        if trace is not None:
            trace.record(self._now, "shard.mail", src=msg.src,
                         dst=msg.dst, sent=msg.send_time, topic=msg.topic)
        for handler in self._mail_handlers:
            handler(msg)

    def __repr__(self) -> str:
        return (f"<EventShard {self.shard_id} t={self._now:.6g} "
                f"queue={self.queue_depth()}>")


class ShardedSimulator:
    """N partition-local event loops under one conservative window loop.

    Parameters
    ----------
    shards:
        Number of partitions.  ``1`` (the default everywhere) is the
        plain kernel: :meth:`run` delegates to the single shard and the
        window machinery never engages.
    lookahead:
        Synchronization window width — the minimum cross-partition link
        latency, usually from :func:`derive_lookahead`.  Required (and
        must be positive) when ``shards > 1``.
    start:
        Forwarded to every shard's :class:`Simulator`.
    trace:
        Shared tracer.  All shards record into it; within a window the
        shards run in fixed order, so record order is deterministic
        (though not globally time-sorted across shard blocks — sort by
        the ``t`` field for a timeline view).
    metrics:
        Bound to shard 0 only; a metrics registry carries a single clock
        and cannot span shards.
    """

    def __init__(self, shards: int = 1, lookahead: Optional[float] = None,
                 start: float = 0.0, trace: Any = None, metrics: Any = None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shards > 1:
            if lookahead is None:
                raise ValueError(
                    "shards > 1 requires a lookahead (the minimum "
                    "cross-partition link latency; see derive_lookahead)")
            if lookahead <= 0:
                raise ValueError(
                    f"lookahead must be > 0, got {lookahead}")
        self.lookahead = float(lookahead) if lookahead is not None else 0.0
        self.shards: List[EventShard] = [
            EventShard(self, i, start=start, trace=trace,
                       metrics=metrics if i == 0 else None)
            for i in range(shards)
        ]
        self._trace = trace
        if trace is not None and shards > 1 and hasattr(trace, "bind"):
            # Each shard construction re-bound the tracer's span clock;
            # settle it on shard 0.  Sharded scenarios should emit point
            # records (explicit times), not spans.
            trace.bind(self.shards[0])
        self._mail: List[ShardMessage] = []
        self._mail_seq = count()
        self.mail_delivered = 0
        self.windows = 0
        self._committed = float(start)
        self._probe: Any = None

    # -- shard access -------------------------------------------------------
    def shard(self, i: int) -> EventShard:
        return self.shards[i]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    # -- aggregate kernel surface ------------------------------------------
    @property
    def now(self) -> float:
        """Committed time: the single shard's clock, or the last window end."""
        if len(self.shards) == 1:
            return self.shards[0].now
        return self._committed

    @property
    def trace(self) -> Any:
        return self._trace

    @property
    def metrics(self) -> Any:
        return self.shards[0].metrics

    @property
    def probe(self) -> Any:
        return self._probe

    @property
    def events_processed(self) -> int:
        return sum(s.events_processed for s in self.shards)

    @property
    def events_cancelled(self) -> int:
        return sum(s.events_cancelled for s in self.shards)

    def queue_depth(self) -> int:
        return sum(s.queue_depth() for s in self.shards)

    def live_processes(self) -> List[Process]:
        alive: List[Process] = []
        for s in self.shards:
            alive.extend(s.live_processes())
        return alive

    def attach_probe(self, probe: Any) -> Any:
        """Attach a telemetry probe.

        Single shard: the probe rides the shard's own run loop (per-event
        boundary checks, exactly the unsharded behavior).  Multiple
        shards: the *coordinator* samples at window commits — mid-window a
        shard's counters are provisional, so window boundaries are the
        only honest observation points.
        """
        if len(self.shards) == 1:
            return self.shards[0].attach_probe(probe)
        self._probe = probe
        if probe is not None and hasattr(probe, "bind"):
            probe.bind(self)
        return probe

    # -- event factories (shard-addressed) ----------------------------------
    def spawn(self, generator: Generator, name: str = "",
              shard: int = 0) -> Process:
        return self.shards[shard].spawn(generator, name)

    def timeout(self, delay: float, value: Any = None,
                shard: int = 0) -> Timeout:
        return self.shards[shard].timeout(delay, value)

    def event(self, name: str = "", shard: int = 0) -> Event:
        return self.shards[shard].event(name)

    def peek(self) -> float:
        """Earliest pending work anywhere: an event or an undelivered
        message."""
        t = min(s.peek() for s in self.shards)
        for msg in self._mail:
            if msg.deliver_time < t:
                t = msg.deliver_time
        return t

    # -- mailbox ------------------------------------------------------------
    def _post(self, src: EventShard, dst: int, topic: str, data: Any,
              delay: Optional[float]) -> ShardMessage:
        if not 0 <= dst < len(self.shards):
            raise ValueError(
                f"destination shard {dst} out of range 0..{len(self.shards) - 1}")
        if delay is None:
            delay = self.lookahead
        if len(self.shards) > 1 and dst != src.shard_id \
                and delay < self.lookahead:
            raise SimulationError(
                f"cross-shard message delay {delay!r} is below the "
                f"lookahead {self.lookahead!r}; conservative sync cannot "
                f"deliver into a window another shard may have committed")
        now = src.now
        msg = ShardMessage(send_time=now, deliver_time=now + delay,
                           src=src.shard_id, dst=dst,
                           seq=next(self._mail_seq), topic=topic, data=data)
        if dst == src.shard_id:
            # Same-partition mail needs no barrier; deliver through the
            # shard's own calendar so ordering stays in-band.
            self._deliver(msg)
        else:
            self._mail.append(msg)
        return msg

    def _deliver(self, msg: ShardMessage) -> None:
        dst = self.shards[msg.dst]
        event = Event(dst, name=f"mail:{msg.topic}")
        event._ok = True
        event._value = msg
        event.callbacks = [dst._dispatch_mail]
        dst._schedule(event, NORMAL, msg.deliver_time - dst.now)

    def pending_mail(self) -> int:
        return len(self._mail)

    # -- the window loop ----------------------------------------------------
    def run(self, until: Any = None) -> Any:
        """Run to completion, to a time, or (single shard) to an event.

        Single shard: a straight delegation to ``Simulator.run`` — the
        byte-identical compatibility path.  Multiple shards: repeat
        {pick window, deliver due mail, run every shard to the window
        end, collect} until nothing is pending before ``until``.
        """
        if len(self.shards) == 1:
            return self.shards[0].run(until)
        if isinstance(until, Event):
            raise SimulationError(
                "run(until=Event) requires shards=1; with a sharded kernel "
                "run to a time horizon (or completion) and inspect state")
        stop_at = _INF if until is None else float(until)
        if stop_at < self._committed:
            raise ValueError(
                f"until={stop_at} is in the past (now={self._committed})")
        trace = self._trace
        probe = self._probe
        while True:
            t = self.peek()
            if t == _INF or t > stop_at:
                break
            window_end = min(t + self.lookahead, stop_at)
            delivered = self._drain_mail(window_end)
            before = sum(s.events_processed for s in self.shards)
            for sh in self.shards:
                sh.run(until=window_end)
            self._committed = window_end
            self.windows += 1
            if trace is not None:
                trace.record(window_end, "shard.sync", window=self.windows,
                             upto=window_end, mail=delivered,
                             events=sum(s.events_processed
                                        for s in self.shards) - before)
            if probe is not None and window_end >= probe.next_time:
                probe.on_advance(window_end)
        if stop_at != _INF:
            for sh in self.shards:
                if sh.now < stop_at:
                    sh.run(until=stop_at)
            self._committed = stop_at
        return None

    def _drain_mail(self, window_end: float) -> int:
        """Move every message due by ``window_end`` into its destination
        calendar, in (deliver_time, dst, seq) order."""
        if not self._mail:
            return 0
        due = [m for m in self._mail if m.deliver_time <= window_end]
        if not due:
            return 0
        self._mail = [m for m in self._mail if m.deliver_time > window_end]
        due.sort(key=lambda m: (m.deliver_time, m.dst, m.seq))
        for msg in due:
            self._deliver(msg)
        self.mail_delivered += len(due)
        return len(due)

    def __repr__(self) -> str:
        return (f"<ShardedSimulator shards={len(self.shards)} "
                f"t={self.now:.6g} windows={self.windows}>")
