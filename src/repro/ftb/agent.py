"""FTB agents: the distributed daemons forming the backplane tree.

One agent runs per node.  Agents connect parent↔child over the GigE fabric
and flood published events through the tree with per-hop routing cost and
event-id deduplication.  Local clients (Job Manager, NLAs, MPI processes'
C/R threads) register subscriptions with their node's agent; matched events
are delivered into the client's queue, or to its callback.

Self-healing (paper Sec. II-B): when an agent dies, its children re-parent
to their grandparent (or the root) after a reconnect delay, so the tree
stays connected.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import count
from typing import Callable, Deque, Dict, Generator, List, Optional, Set

from ..params import FTBParams
from ..simulate.core import Event, Simulator
from ..simulate.resources import Store
from ..network.ethernet import EthernetFabric
from .events import FTBEvent, match_mask

__all__ = ["FTBAgent", "FTBBackplane", "Subscription"]


class Subscription:
    """One client subscription: a mask plus a delivery queue or callback.

    A subscription with a callback is push-style: events go to the
    callback only.  Without one, events go to ``queue`` for the client
    to poll.
    """

    __slots__ = ("mask", "queue", "client_name", "callback")

    def __init__(self, sim: Simulator, mask: str, client_name: str,
                 callback: Optional[Callable[[FTBEvent], None]] = None):
        self.mask = mask
        self.client_name = client_name
        self.queue: Store = Store(sim)
        self.callback = callback

    def deliver(self, event: FTBEvent) -> None:
        if self.callback is not None:
            self.callback(event)
        else:
            self.queue.put(event)


class FTBAgent:
    """The per-node daemon (client + manager + network layers fused).

    A FIFO run by callbacks, with no process and no store per event:
    :meth:`submit` queues an event and starts it when the agent is idle.
    Starting an event drops it if this agent has seen it, else marks it
    seen and arms one ``route_cost`` timeout.  The timeout's callback
    delivers to matching subscriptions, starts one fabric transfer per
    neighbour that has not seen the event (its completion submits the
    event to that neighbour), and starts the next queued event.
    """

    def __init__(self, backplane: "FTBBackplane", node: str):
        self.backplane = backplane
        self.sim = backplane.sim
        self.node = node
        self.parent: Optional["FTBAgent"] = None
        self.children: List["FTBAgent"] = []
        self.subscriptions: List[Subscription] = []
        self.alive = True
        self._seen: Set[int] = set()
        #: Events waiting for the routing stage, oldest first.
        self._inbox: Deque[FTBEvent] = deque()
        #: True while an event sits in its ``route_cost`` delay.
        self._routing = False
        metrics = self.sim.metrics
        self._m_deduped = metrics.counter("ftb.deduped", unit="events")
        self._m_delivered = metrics.counter("ftb.delivered", unit="events")

    # Resolved on first forward: most agents (leaves of the tree with no
    # live unseen neighbour) never forward an event.
    @cached_property
    def _m_forwarded(self):
        return self.sim.metrics.counter("ftb.forwarded", unit="events")

    # -- tree maintenance ----------------------------------------------------
    def attach_child(self, child: "FTBAgent") -> None:
        child.parent = self
        self.children.append(child)

    def neighbours(self) -> List["FTBAgent"]:
        out = list(self.children)
        if self.parent is not None:
            out.append(self.parent)
        return [a for a in out if a.alive]

    def fail(self) -> None:
        """Kill this agent; children self-heal by re-parenting and local
        clients fail over to a surviving agent."""
        self.alive = False
        if self.parent is not None and self in self.parent.children:
            self.parent.children.remove(self)
        new_parent = self.parent if (self.parent and self.parent.alive) \
            else self.backplane.root
        for child in list(self.children):
            child.parent = None
            self.sim.spawn(child._reconnect(new_parent),
                           name=f"ftb-reconnect.{child.node}")
        self.children = []
        # Client failover: subscriptions re-register with a live agent so
        # fault-tolerance traffic keeps flowing to this node's components.
        survivor = new_parent if new_parent.alive else self.backplane.root
        if survivor is not self and survivor.alive:
            survivor.subscriptions.extend(self.subscriptions)
        self.subscriptions = []

    def _reconnect(self, target: "FTBAgent") -> Generator:
        yield self.sim.timeout(self.backplane.params.reconnect_cost)
        if not target.alive:
            target = self.backplane.root
        target.attach_child(self)

    # -- event path ----------------------------------------------------------
    def submit(self, event: FTBEvent) -> None:
        """Hand an event to this agent (from a local client or a peer)."""
        self._inbox.append(event)
        if not self._routing:
            self._start_next()

    def _start_next(self) -> None:
        """Start the oldest queued event this agent has not seen; a dead
        agent drops its queue."""
        inbox = self._inbox
        if not self.alive:
            inbox.clear()
            return
        while inbox:
            event = inbox.popleft()
            if event.event_id in self._seen:
                self._m_deduped.inc()
                trace = self.sim.trace
                if trace is not None:
                    trace.record(self.sim.now, "ftb.dedup", node=self.node,
                                 event=event.name, event_id=event.event_id)
                continue
            self._seen.add(event.event_id)
            self._routing = True
            self.sim.timeout(self.backplane.params.route_cost,
                             event).callbacks.append(self._route)
            return

    def _route(self, timeout: Event) -> None:
        """End of the routing delay: deliver locally, flood onwards, then
        start the next queued event."""
        sim = self.sim
        event: FTBEvent = timeout._value
        # Manager layer: match local subscriptions.
        for sub in self.subscriptions:
            if match_mask(sub.mask, event.name):
                # Zero-duration span (not a point record) so the
                # publish->deliver flow edge has an endpoint slice.
                with sim.tracer.span("ftb.deliver", node=self.node,
                                     event=event.name,
                                     client=sub.client_name) as dsp:
                    sub.deliver(event)
                self._m_delivered.inc()
                trace = sim.trace
                if trace is not None and event.src_span is not None:
                    trace.link(event.src_span, dsp, "ftb.event")
        # Network layer: flood to tree neighbours.
        fabric = self.backplane.fabric
        for peer in self.neighbours():
            if event.event_id in peer._seen:
                continue
            done = fabric.transfer(self.node, peer.node, event.nbytes,
                                   label=f"ftb:{event.name}")
            done.callbacks.append(
                lambda _ev, peer=peer: self._hand_over(peer, event))
        self._routing = False
        self._start_next()

    def _hand_over(self, peer: "FTBAgent", event: FTBEvent) -> None:
        """A forwarded event landed at ``peer``: submit it there."""
        if not peer.alive:
            return
        self._m_forwarded.inc()
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "ftb.forward", src=self.node,
                         dst=peer.node, event=event.name,
                         nbytes=event.nbytes)
        peer.submit(event)

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return f"<FTBAgent {self.node} {state} children={len(self.children)}>"


class FTBBackplane:
    """Builds and owns the agent tree over the GigE fabric.

    ``fanout`` controls the tree shape; the root lives on ``root_node``
    (the login node in the paper's deployment).
    """

    def __init__(self, sim: Simulator, fabric: EthernetFabric,
                 nodes: List[str], root_node: Optional[str] = None,
                 fanout: int = 4, params: Optional[FTBParams] = None):
        if not nodes:
            raise ValueError("backplane needs at least one node")
        self.sim = sim
        self.fabric = fabric
        self.params = params or FTBParams()
        root_node = root_node or nodes[0]
        if root_node not in nodes:
            raise ValueError(f"root {root_node!r} not in node list")
        for n in nodes:
            fabric.attach(n)
        self.agents: Dict[str, FTBAgent] = {}
        self.root = self._build_tree(nodes, root_node, fanout)
        #: Event ids, in this backplane's publish order.
        self._event_ids = count()

    def _build_tree(self, nodes: List[str], root_node: str, fanout: int) -> FTBAgent:
        ordered = [root_node] + [n for n in nodes if n != root_node]
        agents = [FTBAgent(self, n) for n in ordered]
        for i, agent in enumerate(agents[1:], start=1):
            parent = agents[(i - 1) // fanout]
            parent.attach_child(agent)
        self.agents = {a.node: a for a in agents}
        return agents[0]

    def agent(self, node: str) -> FTBAgent:
        try:
            return self.agents[node]
        except KeyError:
            raise KeyError(f"no FTB agent on {node!r}") from None

    def live_agent(self, preferred: str) -> FTBAgent:
        """The agent on ``preferred`` if alive, else the nearest live one
        (clients of a dead daemon reconnect up the tree, root as anchor)."""
        agent = self.agents.get(preferred)
        while agent is not None and not agent.alive:
            agent = agent.parent
        if agent is None or not agent.alive:
            agent = self.root
        if not agent.alive:
            for candidate in self.agents.values():
                if candidate.alive:
                    return candidate
            raise RuntimeError("no live FTB agent anywhere")
        return agent

    def alive_agents(self) -> List[FTBAgent]:
        return [a for a in self.agents.values() if a.alive]

    def is_connected(self) -> bool:
        """True when every live agent can reach the root through live links."""
        reached = set()
        stack = [self.root]
        while stack:
            a = stack.pop()
            if a.node in reached or not a.alive:
                continue
            reached.add(a.node)
            stack.extend(a.children)
            if a.parent is not None:
                stack.append(a.parent)
        return all(a.node in reached for a in self.alive_agents())
