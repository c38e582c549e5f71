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

from ..simulate.core import Simulator
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

    def _new_event(self, event_name: str, payload: Optional[dict],
                   severity: str) -> FTBEvent:
        return FTBEvent(name=event_name, source=self.name,
                        event_id=next(self.backplane._event_ids),
                        payload=payload or {}, severity=severity,
                        src_span=self.sim.tracer.current_span())

    def _submit(self, event: FTBEvent) -> FTBEvent:
        self._live_agent().submit(event)
        self._m_published.inc()
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "ftb.publish", node=self.node,
                         client=self.name, event=event.name,
                         severity=event.severity)
        return event

    def publish(self, event_name: str, payload: Optional[dict] = None,
                severity: str = "INFO") -> Generator:
        """Generator: publish an event into the backplane."""
        event = self._new_event(event_name, payload, severity)
        yield self.sim.timeout(self.backplane.params.publish_cost)
        return self._submit(event)

    def publish_nowait(self, event_name: str, payload: Optional[dict] = None,
                       severity: str = "INFO") -> FTBEvent:
        """Fire-and-forget publish from non-process context (callbacks)."""
        return self._submit(self._new_event(event_name, payload, severity))

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

    def __repr__(self) -> str:
        return f"<FTBClient {self.name}@{self.node}>"
