"""FTB client layer: the API components use to talk to the backplane.

Mirrors the CIFTS client API shape: ``connect`` binds a named client to its
node's agent; ``publish`` injects an event (paying the client→agent handoff
cost); ``subscribe`` registers a mask and returns a :class:`Subscription`
whose queue the client polls (the C/R thread does exactly this) or an
optional callback for push-style delivery.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Generator, Optional

from ..simulate.core import Event, Simulator
from .agent import FTBAgent, FTBBackplane, Subscription
from .events import FTBEvent

__all__ = ["FTBClient"]


class FTBClient:
    """A named component attached to the agent on its node."""

    def __init__(self, backplane: FTBBackplane, node: str, name: str):
        self.backplane = backplane
        self.sim: Simulator = backplane.sim
        self.node = node
        self.name = name
        self.agent: FTBAgent = backplane.agent(node)

    # Resolved on first publish: most clients only subscribe.
    @cached_property
    def _m_published(self):
        return self.sim.metrics.counter("ftb.published", unit="events")

    def _live_agent(self) -> FTBAgent:
        """Detect a dead local daemon and reconnect to a live one (clients
        re-establish up the tree, like the agents themselves)."""
        if not self.agent.alive:
            self.agent = self.backplane.live_agent(self.node)
        return self.agent

    def _note_publish(self, event: FTBEvent) -> None:
        self._m_published.inc()
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "ftb.publish", node=self.node,
                         client=self.name, event=event.name,
                         severity=event.severity)

    def publish(self, event_name: str, payload: Optional[dict] = None,
                severity: str = "INFO") -> Generator:
        """Generator: publish an event into the backplane."""
        event = FTBEvent(name=event_name, source=self.name,
                         payload=payload or {}, severity=severity,
                         src_span=self.sim.tracer.current_span())
        yield self.sim.timeout(self.backplane.params.publish_cost)
        self._live_agent().submit(event)
        self._note_publish(event)
        return event

    def publish_nowait(self, event_name: str, payload: Optional[dict] = None,
                       severity: str = "INFO") -> FTBEvent:
        """Fire-and-forget publish from non-process context (callbacks)."""
        event = FTBEvent(name=event_name, source=self.name,
                         payload=payload or {}, severity=severity,
                         src_span=self.sim.tracer.current_span())
        self._live_agent().submit(event)
        self._note_publish(event)
        return event

    def subscribe(self, mask: str,
                  callback: Optional[Callable[[FTBEvent], None]] = None
                  ) -> Subscription:
        sub = Subscription(self.sim, mask, self.name, callback)
        self._live_agent().subscriptions.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        try:
            self.agent.subscriptions.remove(sub)
        except ValueError:
            pass

    @staticmethod
    def next_event(sub: Subscription) -> Event:
        """Event for the next delivery on a subscription queue."""
        return sub.queue.get()

    def __repr__(self) -> str:
        return f"<FTBClient {self.name}@{self.node}>"
