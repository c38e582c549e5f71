"""Fluid-flow bandwidth model with component-scoped max-min fair sharing.

Bulk transfers in this reproduction (checkpoint streams, RDMA chunk pulls,
PVFS stripe writes, disk reads) are modelled as *fluid flows*: each flow has
a remaining byte count and traverses a path of :class:`Link` capacity pools.
Whenever the flow population changes, per-flow rates are recomputed with the
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

* starting a flow syncs and merges only the components its path touches;
* a completion syncs, re-partitions and re-fills only its own component;
* all other components keep draining linearly at their unchanged rates.

Because the max-min fair allocation decomposes exactly over connected
components (progressive filling never couples flows that share no link),
the per-component allocation is the same as a global recompute would give;
only the work is reduced — linear in the size of the touched component
rather than in the total flow population.  :class:`FluidEngineStats`
counts the work actually done (recomputes, flows visited, peak component
size) and what a global engine would have visited, so benchmarks and
:func:`repro.analysis.metrics.fluid_engine_stats` can quantify the win.

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
                 "component")

    def __init__(self, name: str, capacity: float,
                 efficiency: Optional[Callable[[int], float]] = None):
        if capacity <= 0:
            raise ValueError(f"link {name!r}: capacity must be positive")
        self.name = name
        self.capacity = float(capacity)
        self.efficiency = efficiency
        self.flows: Set["Flow"] = set()
        #: Total bytes this link has carried (for Table-I style accounting).
        self.bytes_carried: float = 0.0
        #: The connected component currently owning this link (engine
        #: internal; ``None`` while the link is idle).
        self.component: Optional["_Component"] = None

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
                 "started_at", "label", "seq")

    def __init__(self, path: Sequence[Link], nbytes: float, event: Event,
                 latency: float, started_at: float, label: str,
                 seq: int = 0):
        self.path = tuple(path)
        self.size = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.event = event
        self.latency = latency
        self.started_at = started_at
        self.label = label
        #: Start-order sequence within the owning network.  Flow sets are
        #: iterated by id-hash, so anything order-sensitive (who completes
        #: first at the same instant, which partition piece reschedules
        #: first) sorts by this instead — object ids vary run to run,
        #: start order never does.
        self.seq = seq

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
    links_visited: int = 0
    peak_component_size: int = 0
    global_flows_equiv: int = 0
    merges: int = 0
    splits: int = 0

    def visits_per_recompute(self) -> float:
        return self.flows_visited / self.recomputes if self.recomputes else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "recomputes": self.recomputes,
            "flows_visited": self.flows_visited,
            "links_visited": self.links_visited,
            "peak_component_size": self.peak_component_size,
            "global_flows_equiv": self.global_flows_equiv,
            "merges": self.merges,
            "splits": self.splits,
            "visits_per_recompute": self.visits_per_recompute(),
        }


class _Component:
    """A maximal set of flows transitively connected through shared links.

    Owns its own sync clock and completion guard so population changes in
    one component never touch the calendar entries (or the remaining-byte
    counters) of any other.
    """

    __slots__ = ("flows", "links", "last_sync", "generation", "alive",
                 "guard")

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

    def absorb(self, other: "_Component") -> None:
        self.flows |= other.flows
        self.links |= other.links
        other.alive = False
        guard = other.guard
        if guard is not None:
            other.guard = None
            if guard.callbacks:
                guard.callbacks = []
                guard.cancel()

    def add_flow(self, flow: Flow) -> None:
        self.flows.add(flow)
        for link in flow.path:
            self.links.add(link)
            link.flows.add(flow)

    def claim_links(self) -> None:
        for link in self.links:
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
        self.stats = FluidEngineStats()
        m = sim.metrics
        self._m_started = m.counter("fluid.flows.started", unit="flows")
        self._m_completed = m.counter("fluid.flows.completed", unit="flows")
        self._m_bytes = m.counter("fluid.bytes_completed", unit="bytes")
        self._m_comp_flows = m.histogram("fluid.recompute.component_flows",
                                         unit="flows")
        self._m_comp_links = m.histogram("fluid.recompute.component_links",
                                         unit="links")
        self._m_util = m.gauge("fluid.link.utilization.max", unit="ratio")
        # Computing the max utilization walks the component's links, so it
        # is skipped entirely (not just discarded) when metrics are off.
        self._metrics_on = bool(getattr(m, "enabled", False))

    # -- public API ---------------------------------------------------------
    def transfer(self, path: Sequence[Link], nbytes: float,
                 latency: float = 0.0, label: str = "") -> Event:
        """Start a transfer of ``nbytes`` across ``path``.

        Returns an event that succeeds with the :class:`Flow` once the last
        byte has drained *and* ``latency`` has elapsed on top.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if not path:
            raise ValueError("path must contain at least one link")
        ev = Event(self.sim, name=f"transfer({label or nbytes})")
        if nbytes == 0:
            ev.succeed_later(None, latency)
            return ev
        flow = Flow(path, nbytes, ev, latency, self.sim.now, label,
                    seq=next(self._flow_seq))

        # Components whose rate allocation the new flow perturbs: exactly
        # those reachable through the path's links.  Everything else keeps
        # draining untouched.
        touched: List[_Component] = []
        seen: Set[int] = set()
        for link in flow.path:
            comp = link.component
            if comp is not None and id(comp) not in seen:
                seen.add(id(comp))
                touched.append(comp)
        for comp in touched:
            self._sync(comp)

        if not touched:
            merged = _Component(self.sim.now)
        else:
            merged = max(touched, key=lambda c: len(c.flows))
            for comp in touched:
                if comp is not merged:
                    merged.absorb(comp)
                    self._components.discard(comp)
                    self.stats.merges += 1
        merged.last_sync = self.sim.now
        merged.add_flow(flow)
        merged.claim_links()
        self._components.add(merged)
        self._flows.add(flow)
        self._m_started.inc()
        self._reschedule(merged)
        return ev

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    @property
    def active_components(self) -> int:
        return len(self._components)

    # -- engine -------------------------------------------------------------
    def _sync(self, comp: _Component) -> None:
        """Drain elapsed time into the component's remaining-byte counters."""
        now = self.sim.now
        dt = now - comp.last_sync
        if dt > 0:
            # Accumulate in flow start order: float addition is not
            # associative, and iterating the set directly made the last
            # ulp of ``bytes_carried`` depend on allocation addresses.
            for flow in sorted(comp.flows, key=lambda f: f.seq):
                moved = flow.rate * dt
                flow.remaining -= moved
                for link in flow.path:
                    link.bytes_carried += moved
        comp.last_sync = now

    def _recompute_rates(self, comp: _Component) -> None:
        """Progressive filling within one component: the max-min allocation.

        Restricting the fill to a connected component is exact — a link
        outside the component carries none of its flows, so it can never be
        the saturating constraint for any of them.
        """
        st = self.stats
        st.recomputes += 1
        st.flows_visited += len(comp.flows)
        st.links_visited += len(comp.links)
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
        for flow in comp.flows:
            flow.rate = 0.0
        if not comp.flows:
            return
        self._fill(comp)
        if self._metrics_on:
            self._m_util.set(max((link.utilization for link in comp.links),
                                 default=0.0))

    def _fill(self, comp: _Component) -> None:
        """Progressive fill: raise every unfrozen flow's rate by the
        smallest increment that saturates a link, freeze the flows on the
        saturated links, repeat."""
        links: Dict[Link, float] = {}
        unfrozen_on: Dict[Link, int] = {}
        for flow in comp.flows:
            for link in flow.path:
                if link not in links:
                    links[link] = link.effective_capacity()
                    unfrozen_on[link] = 0
                unfrozen_on[link] += 1
        unfrozen: Set[Flow] = set(comp.flows)
        while unfrozen:
            # Smallest equal increment that saturates some link.
            inc = min(
                links[link] / unfrozen_on[link]
                for link in links
                if unfrozen_on[link] > 0
            )
            for flow in unfrozen:
                flow.rate += inc
            saturated: List[Link] = []
            for link in links:
                n = unfrozen_on[link]
                if n > 0:
                    links[link] -= inc * n
                    if links[link] <= _EPS_RATE * link.capacity + _EPS_RATE:
                        saturated.append(link)
            if not saturated:
                # All remaining links have infinite headroom relative to the
                # computed increment — cannot happen with finite capacities.
                break
            frozen_now = {f for l in saturated for f in l.flows if f in unfrozen}
            unfrozen -= frozen_now
            for flow in frozen_now:
                for link in flow.path:
                    unfrozen_on[link] -= 1

    def _reschedule(self, comp: _Component) -> None:
        """Recompute the component's rates and arm its completion guard."""
        self._recompute_rates(comp)
        comp.generation += 1
        gen = comp.generation
        old_guard = comp.guard
        if old_guard is not None:
            # The previous guard is superseded; cancelling lets the
            # calendar drop it unpopped instead of dispatching a no-op.
            # A guard that already fired has callbacks == None — leave it.
            comp.guard = None
            if old_guard.callbacks:
                old_guard.callbacks = []
                old_guard.cancel()
        if not comp.flows:
            comp.alive = False
            self._components.discard(comp)
            return
        next_done = float("inf")
        for flow in comp.flows:
            if flow.rate > 0:
                eta = flow.remaining / flow.rate
                if eta < next_done:
                    next_done = eta
            # rate == 0 leaves next_done alone (infinite ETA)
        next_done = max(next_done, 0.0)
        if next_done == float("inf"):
            raise RuntimeError("fluid network stalled: a flow has zero rate")
        guard = Event(self.sim, name="fluid-complete")
        guard.callbacks.append(lambda ev: self._on_completion(comp, gen))
        guard._ok = True
        guard._value = None
        comp.guard = guard
        self.sim._schedule(guard, 1, next_done)  # NORMAL priority

    def _on_completion(self, comp: _Component, generation: int) -> None:
        if not comp.alive or generation != comp.generation:
            return  # superseded by a later population change or a merge
        self._sync(comp)
        done = [f for f in comp.flows if f.remaining <= _EPS_BYTES]
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
            self._m_completed.inc()
            self._m_bytes.inc(flow.size)
            flow.event.succeed_later(flow, flow.latency)
        if not comp.flows:
            comp.alive = False
            self._components.discard(comp)
            for link in comp.links:
                if link.component is comp:
                    link.component = None
            return
        # Removing flows may have disconnected the component; re-partition
        # and refill each piece independently (work stays linear in the old
        # component's size, and smaller pieces decouple future events).
        pieces = self._partition(comp)
        live_links: Set[Link] = set()
        for _flows, links in pieces:
            live_links |= links
        for link in comp.links - live_links:
            # Links used only by the finished flows go idle; leaving a stale
            # pointer would glue future flows to this component for no reason.
            if link.component is comp:
                link.component = None
        if len(pieces) == 1:
            comp.flows, comp.links = pieces[0]
            comp.claim_links()
            self._reschedule(comp)
            return
        comp.alive = False
        self._components.discard(comp)
        self.stats.splits += len(pieces) - 1
        now = self.sim.now
        for flows, links in pieces:
            piece = _Component(now)
            piece.flows = flows
            piece.links = links
            piece.claim_links()
            self._components.add(piece)
            self._reschedule(piece)

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
