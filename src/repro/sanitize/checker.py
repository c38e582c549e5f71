"""The trace checker: runs the invariant rules over a finished trace.

One path for every source — a tracer after its run, or a recorded run's
reload::

    violations = TraceChecker.check_trace(tracer)
    violations = TraceChecker.check_trace(read_jsonl("runs/<run_id>/trace.jsonl.gz"))

Both read the same records in the same order through the identical
:mod:`~repro.sanitize.invariants` state machines, so a violation found
in a scenario run reproduces from its archived trace and vice versa.
:meth:`TraceChecker.feed` never raises — a rule that blows up is
recorded as its *own* violation (``rule-internal-error``) and detached
while the other rules run on.  Without that, the first exception would
abort the whole check and hide every other rule's verdict.

:func:`live_checks` adds the one end-of-run leak law that needs the
simulation's object graph rather than the trace: no memory region may
still be registered on any HCA.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Optional

from ..simulate.trace import TraceRecord
from .invariants import Rule, Violation, default_rules

__all__ = ["TraceChecker", "live_checks"]


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
        """Run one record through every rule not yet detached.  Never raises."""
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
        """Feed a whole finished trace and finish."""
        checker = cls(rules)
        for rec in trace:
            checker.feed(rec)
        return checker.finish()


def live_checks(sim, cluster) -> List[Violation]:
    """End-of-run leak law over the live object graph.

    Call after the simulation has quiesced (e.g. after
    ``run_to_completion``).  A region left pinned is only an absent
    ``mr.deregister`` record in the trace; the HCAs hold it directly.
    """
    return [Violation("LiveStateRule",
                      "Every memory region is deregistered by the end of "
                      "the run.", sim.now,
                      f"memory region {mr.name!r} still registered on "
                      f"{node.name} — unreleased pinned pool")
            for node in cluster.nodes.values()
            for mr in node.hca._mrs.values()]
