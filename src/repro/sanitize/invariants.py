"""Protocol invariants: the rules the migration stack must never break.

Each :class:`Rule` is a small per-entity state machine fed one
:class:`~repro.simulate.trace.TraceRecord` at a time — the same code path
whether the trace is a scenario run's finished tracer or replayed from a
JSONL file.  A rule that observes a contradiction emits a :class:`Violation`
carrying the offending record, its sim-time, and the rule's own doc
string, so a report reads as *what law was broken, by which event, when*.

The laws come from the paper's protocol (Sec. III) and the verbs
semantics underneath it.  Each one is here because a model bug seeded
into production code breaks it and no other test notices (the seed table
in ``docs/sanitizer.md``):

* ``FTB_MIGRATE_PIIC`` is published before ``FTB_RESTART``;
* a pipelined restart begins only after its process's image is ready;
* a destroyed QP carries no further traffic, and teardown is symmetric
  across the pair;
* every RDMA migration session that is set up is torn down, once.

Register a new invariant by subclassing :class:`Rule`, adding it to
:func:`default_rules`, and shipping the seeded-bug test that only it
catches — see ``docs/sanitizer.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..ftb.events import FTB_MIGRATE_PIIC, FTB_RESTART
from ..simulate.trace import TraceRecord

__all__ = ["Violation", "Rule", "default_rules", "PhaseOrderRule",
           "PipelineStageOrderRule", "QPLifecycleRule", "SessionRule"]


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which law, which record, when."""

    rule: str                       #: rule class name
    doc: str                        #: first line of the rule's doc string
    time: float                     #: sim-time of the offence
    message: str                    #: what specifically went wrong
    record: Optional[TraceRecord] = None  #: offending record, if any

    def render(self) -> str:
        head = f"[{self.rule}] t={self.time:.6f}s {self.message}"
        if self.record is not None:
            head += f"\n    record: {self.record.as_dict()}"
        return head + f"\n    law: {self.doc}"


class Rule:
    """Base class: a per-entity state machine over trace records.

    Subclasses override :meth:`feed` (called once per record, in trace
    order) and optionally :meth:`finish` (called once after the last
    record, for end-of-trace laws like "every session torn down").  Report
    breaches via :meth:`report`; never raise — the checker treats a
    raising rule as its own violation so one buggy rule cannot take the
    simulation (or the other rules) down.
    """

    def __init__(self) -> None:
        self._sink: Optional[Callable[[Violation], None]] = None

    @property
    def name(self) -> str:
        return type(self).__name__

    @property
    def doc(self) -> str:
        return (type(self).__doc__ or "").strip().splitlines()[0]

    def bind(self, sink: Callable[[Violation], None]) -> "Rule":
        self._sink = sink
        return self

    def report(self, message: str, rec: Optional[TraceRecord] = None,
               time: Optional[float] = None) -> None:
        if self._sink is None:
            raise RuntimeError(f"{self.name} not bound to a checker")
        t = time if time is not None else (rec.time if rec is not None else 0.0)
        self._sink(Violation(self.name, self.doc, t, message, rec))

    def feed(self, rec: TraceRecord) -> None:  # pragma: no cover - interface
        pass

    def finish(self) -> None:
        pass


# ---------------------------------------------------------------------------
# framework layer
# ---------------------------------------------------------------------------

class PhaseOrderRule(Rule):
    """FTB_MIGRATE_PIIC is published before FTB_RESTART.

    The process-images-in-place announcement closes Phase 2; the restart
    announcement opens Phase 3 on the spare.  A restart announced first
    tells the spare to restart images that are not in place yet.  (The
    order of the ``phase`` spans themselves is checked against the
    migration report by ``test_phase_spans_match_report``.)
    """

    def __init__(self) -> None:
        super().__init__()
        self._piic_published = 0
        self._restart_published = 0

    def feed(self, rec: TraceRecord) -> None:
        if rec.kind != "ftb.publish":
            return
        event = rec.get("event")
        if event == FTB_MIGRATE_PIIC:
            self._piic_published += 1
        elif event == FTB_RESTART:
            self._restart_published += 1
            if self._restart_published > self._piic_published:
                self.report(
                    f"{FTB_RESTART} published before the matching "
                    f"{FTB_MIGRATE_PIIC} (restarts={self._restart_published}, "
                    f"piic={self._piic_published})", rec)


# ---------------------------------------------------------------------------
# pipeline layer
# ---------------------------------------------------------------------------

class PipelineStageOrderRule(Rule):
    """Pipeline stages respect per-process causality: an image becomes
    ready only after its checkpoint started, each process becomes ready
    exactly once per run, a pipelined restart begins only after its
    process's readiness, and a run closes with every expected process
    ready.

    The expected process count rides on the ``session.setup`` record of
    the transport the run drives (matched by its ``(source, target)``
    pair).  Runs are tracked by target node — the framework's op-lock
    serializes migrations, so at most one run is open per target.
    """

    def __init__(self) -> None:
        super().__init__()
        #: target node -> state of the open run on it
        self._runs: Dict[Any, Dict[str, Any]] = {}
        self._ckpt_started: Set[Any] = set()

    def feed(self, rec: TraceRecord) -> None:
        if rec.kind == "pipeline.run.start":
            self._runs[rec.get("target")] = {
                "span": rec.get("span"), "source": rec.get("source"),
                "ready": set(), "expected": None, "rec": rec}
        elif rec.kind == "session.setup":
            run = self._runs.get(rec.get("target"))
            if run is not None and run["source"] == rec.get("source"):
                run["expected"] = rec.get("expected_procs")
        elif rec.kind == "blcr.checkpoint.start":
            self._ckpt_started.add(rec.get("proc"))
        elif rec.kind == "pipeline.proc.ready":
            run = self._runs.get(rec.get("node"))
            proc = rec.get("proc")
            if run is None:
                self.report(f"process {proc!r} reported ready on "
                            f"{rec.get('node')} with no pipeline run open "
                            f"there", rec)
                return
            if proc not in self._ckpt_started:
                self.report(f"process {proc!r} ready before its checkpoint "
                            f"ever started — bytes cannot precede their "
                            f"source stage", rec)
            if proc in run["ready"]:
                self.report(f"process {proc!r} reported ready twice in "
                            f"pipeline run {run['span']}", rec)
            run["ready"].add(proc)
        elif rec.kind == "pipeline.restart.start":
            run = self._runs.get(rec.get("node"))
            proc = rec.get("proc")
            if run is not None and proc not in run["ready"]:
                self.report(f"pipelined restart of {proc!r} began before "
                            f"its image was ready", rec)
        elif rec.kind == "pipeline.run.end":
            for target, run in list(self._runs.items()):
                if run["span"] == rec.get("span"):
                    expected = run["expected"]
                    if expected is not None and len(run["ready"]) != expected:
                        self.report(
                            f"pipeline run {run['span']} closed with "
                            f"{len(run['ready'])} of {expected} expected "
                            f"processes ready", rec)
                    del self._runs[target]

    def finish(self) -> None:
        for target, run in sorted(self._runs.items(), key=repr):
            self.report(f"pipeline run {run['span']} on {target} never "
                        f"closed", run["rec"], time=run["rec"].time)


# ---------------------------------------------------------------------------
# network layer
# ---------------------------------------------------------------------------

class QPLifecycleRule(Rule):
    """A destroyed QP carries no further traffic and is torn down once,
    symmetrically with its peer.

    Tracks ``qp.connect`` / ``qp.destroy`` / ``qp.complete`` per QP
    number.  A successful (``ok=True``) completion attributed to a
    destroyed QP is post-teardown traffic; error completions are the
    legitimate receive flush.  At end of trace, a connected pair with
    exactly one side destroyed is an asymmetric teardown — the bug class
    that leaks one adapter context per migration.
    """

    def __init__(self) -> None:
        super().__init__()
        self._connected_peer: Dict[Any, Any] = {}
        self._destroyed: Dict[Any, float] = {}
        self._pairs: List[Tuple[Any, Any, TraceRecord]] = []

    def feed(self, rec: TraceRecord) -> None:
        if rec.kind == "qp.connect":
            qp, peer = rec.get("qp"), rec.get("peer")
            for end in (qp, peer):
                if end in self._destroyed:
                    self.report(
                        f"qp {end} reconnected after being destroyed at "
                        f"t={self._destroyed[end]:.6f}s — adapter context "
                        f"is gone, a fresh pair is required", rec)
            self._connected_peer[qp] = peer
            self._connected_peer[peer] = qp
            self._pairs.append((qp, peer, rec))
        elif rec.kind == "qp.destroy":
            qp = rec.get("qp")
            if qp in self._destroyed:
                self.report(
                    f"qp {qp} destroyed twice (first at "
                    f"t={self._destroyed[qp]:.6f}s)", rec)
            else:
                self._destroyed[qp] = rec.time
        elif rec.kind == "qp.complete":
            qp = rec.get("qp")
            if qp is None or not rec.get("ok"):
                return  # no QP attributed, or a legitimate flush
            when = self._destroyed.get(qp)
            if when is not None:
                self.report(
                    f"successful {rec.get('opcode')} completion on qp {qp} "
                    f"after its destroy at t={when:.6f}s", rec)

    def finish(self) -> None:
        for qp, peer, rec in self._pairs:
            a, b = qp in self._destroyed, peer in self._destroyed
            if a != b:
                dead, alive = (qp, peer) if a else (peer, qp)
                self.report(
                    f"asymmetric teardown of pair ({qp}, {peer}): qp {dead} "
                    f"was destroyed but its peer {alive} never was", rec,
                    time=self._destroyed[dead])


# ---------------------------------------------------------------------------
# buffer-pool session pairing
# ---------------------------------------------------------------------------

class SessionRule(Rule):
    """Every RDMA migration session that is set up is torn down, once.

    Keyed on the ``(source, target)`` pair.  A teardown without a setup,
    a second setup while the first is open, or a session still open at
    end of trace each indicate the framework lost track of the pinned
    pool and its QPs.
    """

    def __init__(self) -> None:
        super().__init__()
        self._open: Dict[Tuple[Any, Any], float] = {}

    def feed(self, rec: TraceRecord) -> None:
        key = (rec.get("source"), rec.get("target"))
        if rec.kind == "session.setup":
            if key in self._open:
                self.report(
                    f"session {key} set up again while the one opened at "
                    f"t={self._open[key]:.6f}s is still live", rec)
            self._open[key] = rec.time
        elif rec.kind == "session.teardown":
            if key not in self._open:
                self.report(f"teardown of session {key} that was never set "
                            f"up", rec)
            else:
                del self._open[key]

    def finish(self) -> None:
        for key, t0 in sorted(self._open.items(), key=repr):
            self.report(f"session {key} opened at t={t0:.6f}s never torn "
                        f"down — pinned pool and QPs leak", time=t0)


def default_rules() -> List[Rule]:
    """One fresh instance of every invariant, in reporting order."""
    return [PhaseOrderRule(), PipelineStageOrderRule(), QPLifecycleRule(),
            SessionRule()]
