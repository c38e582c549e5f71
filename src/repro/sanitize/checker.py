"""The trace checker: runs the invariant rules live or offline.

Live::

    checker = TraceChecker()
    sub = checker.attach(tracer)         # before the simulation runs
    ... run ...
    violations = checker.finish()

Offline::

    violations = TraceChecker.check_trace(read_jsonl("runs/<run_id>/trace.jsonl.gz"))

Both paths drive the identical :mod:`~repro.sanitize.invariants` state
machines, so a violation caught in CI replay reproduces live and vice
versa.  :meth:`TraceChecker.feed` never raises — a rule that blows up
is recorded as its *own* violation (``rule-internal-error``) and
detached, because a sanitizer that crashes the simulation it watches is
worse than no sanitizer.

:func:`live_checks` adds the end-of-run leak laws that need the
simulation's object graph rather than the trace: simulation processes
that must have exited, memory regions still pinned, FTB agent inboxes
still holding undelivered events, and a partitioned agent tree.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Optional

from ..simulate.trace import TraceRecord, TraceSubscription
from .invariants import Rule, Violation, default_rules

__all__ = ["TraceChecker", "live_checks", "MUST_EXIT_PREFIXES"]


class TraceChecker:
    """Feeds every record through every rule; collects violations."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None):
        self.rules: List[Rule] = (list(rules) if rules is not None
                                  else default_rules())
        self.violations: List[Violation] = []
        self._broken: List[Rule] = []
        self._last_time = 0.0
        self._finished = False
        for rule in self.rules:
            rule.bind(self._sink)

    def _sink(self, violation: Violation) -> None:
        if violation.time != violation.time:  # NaN: rule had no timestamp
            violation = replace(violation, time=self._last_time)
        self.violations.append(violation)

    # -- driving ------------------------------------------------------------
    def feed(self, rec: TraceRecord) -> None:
        """Run one record through every live rule.  Never raises."""
        self._last_time = rec.time
        for rule in self.rules:
            if rule in self._broken:
                continue
            try:
                rule.feed(rec)
            except Exception as exc:  # noqa: BLE001 — containment is the point
                self._broken.append(rule)
                self.violations.append(Violation(
                    "rule-internal-error", rule.doc, rec.time,
                    f"{rule.name}.feed raised {exc!r}; rule detached", rec))

    def attach(self, tracer) -> TraceSubscription:
        """Subscribe to a live tracer; returns the subscription handle."""
        return tracer.subscribe(self.feed)

    def finish(self) -> List[Violation]:
        """Run every rule's end-of-trace checks; returns all violations."""
        if not self._finished:
            self._finished = True
            for rule in self.rules:
                if rule in self._broken:
                    continue
                try:
                    rule.finish()
                except Exception as exc:  # noqa: BLE001
                    self.violations.append(Violation(
                        "rule-internal-error", rule.doc, self._last_time,
                        f"{rule.name}.finish raised {exc!r}", None))
        return self.violations

    @classmethod
    def check_trace(cls, trace: Iterable[TraceRecord],
                    rules: Optional[Iterable[Rule]] = None) -> List[Violation]:
        """Offline replay: feed a whole trace and finish."""
        checker = cls(rules)
        for rec in trace:
            checker.feed(rec)
        return checker.finish()


#: Name prefixes of simulation processes that must have exited once the
#: run is over — a live one is a leaked coroutine parked forever.
#: Steady-state residents (rank mains, demux pumps, cr watchdog threads)
#: legitimately outlive a migration and are exempt.
MUST_EXIT_PREFIXES = (
    "mig-", "flush.", "reconn.", "ckpt.", "cr-ckpt.", "cr-restart.",
    "cr-launch.", "ftb-reconnect.",
)


def live_checks(sim, cluster=None, backplane=None) -> List[Violation]:
    """End-of-run leak laws over the live object graph.

    Call after the simulation has quiesced (e.g. after
    ``run_to_completion``): anything here is state the trace cannot
    prove leaked but the objects can.
    """
    violations: List[Violation] = []
    now = sim.now

    def leak(message: str) -> None:
        violations.append(Violation(
            "LiveStateRule",
            "End-of-run leak checks over the live simulation objects.",
            now, message))

    for proc in sim.live_processes():
        name = getattr(proc, "name", "") or ""
        if name.startswith(MUST_EXIT_PREFIXES):
            leak(f"process {name!r} still alive after the run — leaked "
                 f"coroutine")

    if cluster is not None:
        for node in cluster.nodes.values():
            for mr in getattr(node.hca, "_mrs", {}).values():
                leak(f"memory region {getattr(mr, 'name', mr)!r} still "
                     f"registered on {node.name} — unreleased pinned pool")

    if backplane is not None:
        for agent in backplane.agents.values():
            pending = len(agent._inbox)
            if agent.alive and pending:
                leak(f"FTB agent on {agent.node} still holds {pending} "
                     f"undelivered event(s) in its inbox")
        if not backplane.is_connected():
            leak("FTB agent tree is partitioned: not every live agent "
                 "reaches the root")
    return violations
