"""Fluid-flow bandwidth model with component-scoped max-min fair sharing.

Bulk transfers in this reproduction (checkpoint streams, RDMA chunk pulls,
PVFS stripe writes, disk reads) are modelled as *fluid flows*: each flow has
a remaining byte count and traverses a path of :class:`Link` capacity pools.
After the flow population changes, per-flow rates are recomputed with the
classic progressive-filling (water-filling) algorithm, which yields the
max-min fair allocation; the engine then schedules the next earliest flow
completion.  This captures the first-order contention effects the paper's
evaluation hinges on — e.g. 64 concurrent checkpoint streams collapsing the
effective PVFS bandwidth — without packet-level simulation cost.

**Component scoping.**  One engine instance serves the whole cluster (IB
fabric, Ethernet, disks, memory buses share a single :class:`FluidNetwork`),
so flow populations over disjoint link sets are common: eight node-local
disk streams never interact with a PVFS fan-in.  The engine therefore keeps
the active flows partitioned into *connected components* induced by shared
links (two flows are connected when their paths share a link).  Each
component carries its own sync clock, rate allocation, generation counter
and next-completion guard event:

* starting flows merges only the components their paths touch;
* a completion drains and refills only its own component; it
  re-partitions the component only when the finished flows' links, walked
  through the surviving flows, no longer reach each other;
* all other components keep draining linearly at their unchanged rates.

Because the max-min fair allocation decomposes exactly over connected
components (progressive filling never couples flows that share no link),
the per-component allocation is the same as a global recompute would give;
only the work is reduced — linear in the size of the touched component
rather than in the total flow population.  :class:`FluidEngineStats`
counts the work actually done (recomputes, flows visited, peak component
size) and what a global engine would have visited, so the benches can
quantify the win.

**Water-level fill.**  The fill walks the component's links, not every
flow's path: a link's flow count is ``len(link.flows)``, one water level
rises by the smallest increment that saturates a live link, and each flow
takes the level at which its first link saturates.  The level is the same
running sum of increments a per-flow ``rate += inc`` fill computes, so the
rates are bit-identical to it.  Freezing a flow is its one visit per fill:
in the same step the flow drains the time since the component's last sync
at its old rate, and the fill keeps the least ``remaining / rate``, which
arms the completion guard.  Most fills freeze every flow in the first
round; a later round visits only links that still carry unfrozen flows.

**One fill per component per instant.**  A start, completion or split
marks its component dirty (generation bumped, old guard cancelled).  At
the end of the instant (:meth:`Simulator.at_instant_end`, not an event)
each dirty component still alive is filled, in last-touched order, and
gets its guard.  No simulated time passes in between, so rates and
completion times are those of an immediate fill, but a component changed
several times at one instant is filled once.  Until that fill a
component's flows keep their old rates and undrained byte counts; only a
merge drains first, because the merged components' clocks differ, and a
completion drains its component in the loop that finds the finished flows.

A :class:`Link` may declare an *efficiency curve*: a multiplier on its raw
capacity as a function of the number of flows crossing it.  Disks use this
to model seek thrash between interleaved streams (efficiency drops toward a
floor as streams are added); network links keep the default of 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..simulate.core import Event, Simulator

__all__ = ["Link", "Flow", "FluidNetwork", "FluidEngineStats",
           "stream_efficiency"]

#: Residual bytes below which a flow counts as finished (absorbs FP error).
_EPS_BYTES = 1e-3
#: Residual capacity below which a link counts as saturated.
_EPS_RATE = 1e-9
_INF = float("inf")

def stream_efficiency(per_stream: float, floor: float) -> Callable[[int], float]:
    """Linear-decay efficiency curve: ``max(floor, 1 - per_stream*(n-1))``.

    Models devices whose aggregate throughput degrades as concurrent
    streams force interleaving (disk seeks, PVFS server contention).
    """

    def curve(n_flows: int) -> float:
        if n_flows <= 1:
            return 1.0
        return max(floor, 1.0 - per_stream * (n_flows - 1))

    return curve


class Link:
    """A capacity pool traversed by flows: a NIC port, a wire, a disk head.

    Parameters
    ----------
    name:
        Diagnostic label ("node3.hca.tx", "pvfs.server0.disk").
    capacity:
        Raw bandwidth in bytes/second.
    efficiency:
        Optional multiplier on capacity as a function of the number of
        concurrent flows (see :func:`stream_efficiency`).
    """

    __slots__ = ("name", "capacity", "efficiency", "flows", "bytes_carried",
                 "component", "_headroom", "_unfrozen")

    def __init__(self, name: str, capacity: float,
                 efficiency: Optional[Callable[[int], float]] = None):
        if capacity <= 0:
            raise ValueError(f"link {name!r}: capacity must be positive")
        self.name = name
        self.capacity = float(capacity)
        self.efficiency = efficiency
        self.flows: Set["Flow"] = set()
        #: Total size of the finished flows that crossed this link (for
        #: Table-I style accounting).  Each flow is credited in full when
        #: it completes, so in-flight flows are not counted yet.
        self.bytes_carried: float = 0.0
        #: The connected component currently owning this link (engine
        #: internal; ``None`` while the link is idle).
        self.component: Optional["_Component"] = None
        #: Working state of the component fill: capacity left and flows
        #: not yet frozen on this link.
        self._headroom = 0.0
        self._unfrozen = 0

    def effective_capacity(self) -> float:
        if self.efficiency is None or not self.flows:
            return self.capacity
        return self.capacity * self.efficiency(len(self.flows))

    @property
    def utilization(self) -> float:
        """Currently allocated rate over *effective* capacity.

        A seek-thrashed disk at its efficiency floor is saturated when its
        allocation reaches the degraded capacity, not the raw one — dividing
        by raw ``capacity`` under-reported exactly the congested links the
        efficiency curves exist to model.
        """
        eff = self.effective_capacity()
        if eff <= 0.0:
            return 0.0
        return sum(f.rate for f in self.flows) / eff

    def __repr__(self) -> str:
        return f"<Link {self.name} cap={self.capacity:.3g}B/s flows={len(self.flows)}>"


class Flow:
    """One in-progress bulk transfer across a path of links."""

    __slots__ = ("path", "remaining", "size", "rate", "event", "latency",
                 "started_at", "label", "seq", "_frozen")

    def __init__(self, path: Sequence[Link], nbytes: float, event: Event,
                 latency: float, started_at: float, label: str,
                 seq: int = 0):
        self.path = tuple(path)
        self.size = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        #: The transfer's event; ``None`` once the flow has completed.
        self.event: Optional[Event] = event
        self.latency = latency
        self.started_at = started_at
        self.label = label
        #: Start-order sequence within the owning network.  Flow sets are
        #: iterated by id-hash, so anything order-sensitive (who completes
        #: first at the same instant, which partition piece reschedules
        #: first) sorts by this instead — object ids vary run to run,
        #: start order never does.
        self.seq = seq
        #: Stamp of the last fill that froze this flow's rate.
        self._frozen = 0

    def __repr__(self) -> str:
        return (f"<Flow {self.label or 'anon'} {self.remaining:.0f}/{self.size:.0f}B "
                f"@{self.rate:.3g}B/s>")


@dataclass
class FluidEngineStats:
    """Work counters for the component-scoped engine.

    ``flows_visited`` sums the component sizes over every rate recompute;
    ``global_flows_equiv`` sums the *total* active population at the same
    instants — what the pre-component engine walked — so
    ``global_flows_equiv / flows_visited`` is the measured visit reduction.
    """

    recomputes: int = 0
    flows_visited: int = 0
    peak_component_size: int = 0
    global_flows_equiv: int = 0
    merges: int = 0
    splits: int = 0


class _Component:
    """A maximal set of flows transitively connected through shared links.

    Owns its own sync clock and completion guard so population changes in
    one component never touch the calendar entries (or the remaining-byte
    counters) of any other.
    """

    __slots__ = ("flows", "links", "last_sync", "generation", "alive",
                 "guard", "next_done")

    def __init__(self, now: float):
        self.flows: Set[Flow] = set()
        self.links: Set[Link] = set()
        self.last_sync: float = now
        #: Bumped on every population change; stale guard events no-op.
        self.generation: int = 0
        #: False once merged away or drained; guards from the dead no-op.
        self.alive: bool = True
        #: The pending completion-guard event, cancelled when superseded so
        #: the calendar drops it instead of dispatching a no-op callback.
        self.guard: Optional[Event] = None
        #: Time to the first completion, as the last fill found it.
        self.next_done: float = _INF

    def absorb(self, other: "_Component") -> None:
        self.flows |= other.flows
        self.links |= other.links
        for link in other.links:
            link.component = self
        other.alive = False
        other.cancel_guard()

    def cancel_guard(self) -> None:
        """Let the calendar drop the pending guard unpopped (a guard that
        already fired has ``callbacks is None``; leave it)."""
        guard = self.guard
        if guard is not None:
            self.guard = None
            if guard.callbacks:
                guard.callbacks = []
                guard.cancel()

    def add_flow(self, flow: Flow) -> None:
        self.flows.add(flow)
        for link in flow.path:
            self.links.add(link)
            link.flows.add(flow)
            link.component = self

    def __repr__(self) -> str:
        return (f"<Component flows={len(self.flows)} links={len(self.links)} "
                f"gen={self.generation} {'alive' if self.alive else 'dead'}>")


class FluidNetwork:
    """Engine owning a population of fluid flows over shared links.

    One engine instance can serve many unrelated link sets; rates are only
    coupled through shared links.  Active flows are partitioned into
    connected components, and every sync / rate recompute / completion scan
    is scoped to the single component a population change touches, so the
    cost of an event is linear in the size of that component — not in the
    total number of active flows.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._flows: Set[Flow] = set()
        self._components: Set[_Component] = set()
        self._flow_seq = count()
        self._fill_stamp = 0
        #: Components awaiting their end-of-instant fill, last touched last.
        self._dirty: Dict[_Component, None] = {}
        self.stats = FluidEngineStats()
        m = sim.metrics
        self._m_started = m.counter("fluid.flows.started", unit="flows")
        self._m_completed = m.counter("fluid.flows.completed", unit="flows")
        self._m_bytes = m.counter("fluid.bytes_completed", unit="bytes")
        self._m_comp_flows = m.histogram("fluid.recompute.component_flows",
                                         unit="flows")
        self._m_comp_links = m.histogram("fluid.recompute.component_links",
                                         unit="links")

    # -- public API ---------------------------------------------------------
    def transfer(self, path: Sequence[Link], nbytes: float,
                 latency: float = 0.0, label: str = "") -> Event:
        """Start a transfer of ``nbytes`` across ``path``.

        Returns an event that succeeds with the :class:`Flow` once the last
        byte has drained *and* ``latency`` has elapsed on top.  A path may
        not repeat a link.  Rates are filled at the end of the instant.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if not path or len(set(path)) != len(path):
            raise ValueError("path must hold at least one link, each once")
        ev = Event(self.sim, name="transfer")
        if nbytes == 0:
            ev.succeed_later(None, latency)
            return ev
        now = self.sim.now
        flow = Flow(path, nbytes, ev, latency, now, label,
                    seq=next(self._flow_seq))
        # Components whose rate allocation the new flow perturbs: exactly
        # those reachable through the path's links.  Everything else keeps
        # draining untouched.
        touched: List[_Component] = []
        for link in flow.path:
            comp = link.component
            if comp is not None and comp not in touched:
                touched.append(comp)
        if not touched:
            merged = _Component(now)
            self._components.add(merged)
        elif len(touched) == 1:
            merged = touched[0]  # its fill drains it
        else:
            # The largest component absorbs the others.  Their clocks
            # differ, so each drains to now before they share one.
            for comp in touched:
                self._drain(comp)
            merged = max(touched, key=lambda c: len(c.flows))
            for comp in touched:
                if comp is not merged:
                    merged.absorb(comp)
                    self._components.discard(comp)
                    self.stats.merges += 1
        merged.add_flow(flow)
        self._flows.add(flow)
        self._m_started.inc()
        self._mark_dirty(merged)
        return ev

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    @property
    def active_components(self) -> int:
        return len(self._components)

    # -- engine -------------------------------------------------------------
    def _drain(self, comp: _Component) -> None:
        """Drain elapsed time into the component's remaining-byte counters."""
        now = self.sim.now
        dt = now - comp.last_sync
        if dt > 0:
            for flow in comp.flows:
                flow.remaining -= flow.rate * dt
        comp.last_sync = now

    def _fill(self, comp: _Component) -> None:
        """Water-level fill over the component's links: raise one level by
        the smallest increment that saturates a link, freeze the flows on
        the saturated links at that level, repeat.

        Every flow on a link belongs to the link's component, so the
        per-link count is ``len(link.flows)``.  A flow's rate is the level
        at which it freezes: the same float additions, in the same order,
        as raising every unfrozen flow's rate by each increment.  Headroom
        and unfrozen counts live on link slots, and a flow is frozen when
        its stamp equals this fill's.

        Freezing a flow also drains the time since the component's last
        sync at the flow's old rate, and the least remaining byte count of
        each round, over that round's level, feeds ``comp.next_done``.
        Division by a positive level is monotone, so that is the least
        ``remaining / rate`` bit for bit.
        """
        self._fill_stamp = stamp = self._fill_stamp + 1
        now = self.sim.now
        dt = now - comp.last_sync
        comp.last_sync = now
        inc = _INF  # round 1's increment, found while setting up
        for link in comp.links:
            n = len(link.flows)
            curve = link.efficiency
            headroom = (link.capacity if curve is None
                        else link.capacity * curve(n))
            link._headroom = headroom
            link._unfrozen = n
            share = headroom / n
            if share < inc:
                inc = share
        live = comp.links  # links still carrying unfrozen flows
        unfrozen = len(comp.flows)
        level = 0.0
        next_done = _INF
        while True:
            level += inc
            frozen = 0
            low = _INF  # least remaining bytes among this round's flows
            for link in live:
                link._headroom = left = link._headroom - inc * link._unfrozen
                if left <= _EPS_RATE * link.capacity + _EPS_RATE:
                    for flow in link.flows:
                        if flow._frozen != stamp:
                            flow._frozen = stamp
                            flow.remaining = rem = (flow.remaining
                                                    - flow.rate * dt)
                            flow.rate = level
                            if rem < low:
                                low = rem
                            frozen += 1
            if level > 0.0 and low / level < next_done:
                next_done = low / level
            unfrozen -= frozen
            if not unfrozen:
                break
            if not frozen:
                # All remaining links have infinite headroom relative to the
                # computed increment — cannot happen with finite capacities.
                for flow in comp.flows:
                    if flow._frozen != stamp:
                        flow.remaining -= flow.rate * dt
                        flow.rate = level
                        if level > 0.0 and flow.remaining / level < next_done:
                            next_done = flow.remaining / level
                break
            # Most fills end in round 1; a later round recounts the flows
            # each live link still carries unfrozen.
            still = []
            for link in live:
                n = 0
                for flow in link.flows:
                    if flow._frozen != stamp:
                        n += 1
                if n:
                    link._unfrozen = n
                    still.append(link)
            live = still
            inc = min(link._headroom / link._unfrozen for link in live)
        comp.next_done = next_done

    def _mark_dirty(self, comp: _Component) -> None:
        """Drop the component's guard now and fill it at the end of the
        instant; dirty components fill in the order last touched."""
        comp.generation += 1
        comp.cancel_guard()
        dirty = self._dirty
        if not dirty:
            self.sim.at_instant_end(self._refill_dirty)
        dirty.pop(comp, None)
        dirty[comp] = None

    def _refill_dirty(self) -> None:
        dirty, self._dirty = self._dirty, {}
        for comp in dirty:
            if comp.alive:  # not merged away or split since marked
                self._reschedule(comp)

    def _reschedule(self, comp: _Component) -> None:
        """Fill the component (the max-min allocation) and arm its guard.

        Restricting the fill to a connected component is exact — a link
        outside the component carries none of its flows, so it can never be
        the saturating constraint for any of them.
        """
        st = self.stats
        st.recomputes += 1
        st.flows_visited += len(comp.flows)
        st.global_flows_equiv += len(self._flows)
        if len(comp.flows) > st.peak_component_size:
            st.peak_component_size = len(comp.flows)
        self._m_comp_flows.observe(len(comp.flows))
        self._m_comp_links.observe(len(comp.links))
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "fluid.recompute",
                         flows=len(comp.flows), links=len(comp.links),
                         components=len(self._components))
        self._fill(comp)
        gen = comp.generation
        next_done = max(comp.next_done, 0.0)  # zero-rate flows never finish
        if next_done == _INF:
            raise RuntimeError("fluid network stalled: a flow has zero rate")
        guard = Event(self.sim, name="fluid-complete")
        guard.callbacks.append(lambda ev: self._on_completion(comp, gen))
        guard._value = None
        comp.guard = guard
        self.sim._schedule(guard, 1, next_done)  # NORMAL priority

    def _on_completion(self, comp: _Component, generation: int) -> None:
        if not comp.alive or generation != comp.generation:
            return  # superseded by a later population change or a merge
        now = self.sim.now
        dt = now - comp.last_sync
        comp.last_sync = now
        done = []
        for flow in comp.flows:
            flow.remaining = rem = flow.remaining - flow.rate * dt
            if rem <= _EPS_BYTES:
                done.append(flow)
        # comp.flows iterates by id-hash, which varies run to run; flows
        # finishing at the same instant must succeed in start order or the
        # trace (and any same-time tie-break downstream) goes
        # nondeterministic.
        done.sort(key=lambda f: f.seq)
        for flow in done:
            flow.remaining = 0.0
            self._flows.discard(flow)
            comp.flows.discard(flow)
            for link in flow.path:
                link.flows.discard(flow)
                link.bytes_carried += flow.size
                if not link.flows:
                    # An idle link keeping a stale pointer would glue
                    # future flows to this component for no reason.
                    link.component = None
                    comp.links.discard(link)
            self._m_completed.inc()
            self._m_bytes.inc(flow.size)
            # The event's value is the flow; unlinking the flow's side
            # leaves no Flow <-> Event cycle for the cyclic collector.
            event, flow.event = flow.event, None
            event.succeed_later(flow, flow.latency)
        if not comp.flows:
            comp.alive = False
            self._components.discard(comp)
            return
        if self._still_connected(done):
            self._mark_dirty(comp)
            return
        # Removing flows disconnected the component; re-partition and
        # refill each piece independently (smaller pieces decouple future
        # events).
        pieces = self._partition(comp)
        comp.alive = False
        self._components.discard(comp)
        self.stats.splits += len(pieces) - 1
        for flows, links in pieces:
            piece = _Component(now)
            piece.flows = flows
            piece.links = links
            for link in links:
                link.component = piece
            self._components.add(piece)
            self._mark_dirty(piece)

    @staticmethod
    def _still_connected(done: Sequence[Flow]) -> bool:
        """Whether the survivors of a connected component stay connected
        once the ``done`` flows have left every link.

        Every piece the removal could leave behind holds an *anchor*: a
        link of a finished flow's path that still carries flows (a piece
        without one was never joined to the rest).  So the survivors are
        connected exactly when one anchor reaches all the others through
        link -> flows -> path links; the walk stops once it has.  Anchors
        are read only after the whole batch has left, since a link may go
        idle on the batch's last flow.

        Before the walk, an exact shortcut: the *hub* is the anchor the
        most finished flows crossed.  When every other anchor carries a
        flow whose path holds the hub, each anchor is one flow from the
        hub and the survivors are connected; otherwise the walk decides.
        """
        crossings: Dict[Link, int] = {}
        for flow in done:
            for link in flow.path:
                if link.flows:
                    crossings[link] = crossings.get(link, 0) + 1
        if len(crossings) <= 1:
            return True
        hub = max(crossings, key=crossings.__getitem__)
        if all(link is hub or any(hub in f.path for f in link.flows)
               for link in crossings):
            return True
        anchors = set(crossings)
        start = anchors.pop()
        seen_links = {start}
        seen_flows: Set[Flow] = set()
        stack = [start]
        while stack:
            for flow in stack.pop().flows:
                if flow in seen_flows:
                    continue
                seen_flows.add(flow)
                for link in flow.path:
                    if link not in seen_links:
                        seen_links.add(link)
                        stack.append(link)
                        anchors.discard(link)
                        if not anchors:
                            return True
        return False

    @staticmethod
    def _partition(comp: _Component) -> List[tuple]:
        """Split a component's surviving flows into connected pieces.

        Breadth-first walk over the flow/link incidence; cost is linear in
        the component's total path length.
        """
        pieces: List[tuple] = []
        visited: Set[Flow] = set()
        # Deterministic piece order: seed the walk in flow start order so
        # the pieces (and therefore their reschedule order and guard
        # sequence numbers) are identical across runs.
        for start in sorted(comp.flows, key=lambda f: f.seq):
            if start in visited:
                continue
            flows: Set[Flow] = set()
            links: Set[Link] = set()
            stack = [start]
            visited.add(start)
            while stack:
                f = stack.pop()
                flows.add(f)
                for link in f.path:
                    if link in links:
                        continue
                    links.add(link)
                    for g in link.flows:
                        if g not in visited:
                            visited.add(g)
                            stack.append(g)
            pieces.append((flows, links))
        return pieces
