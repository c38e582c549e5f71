"""Critical-path analysis over the span DAG of a traced run.

The span API records *containment* (parent ids, per-task nesting) and
:meth:`~repro.simulate.trace.Tracer.link` records *causality across
tasks* (``flow.link`` edges: chunk fill -> RDMA pull -> reassembly,
publish -> deliver, image complete -> restart, stall -> resume).  This
module fuses both into one DAG and walks the longest weighted path
through a migration or C/R cycle, answering the paper's attribution
questions quantitatively: Fig. 4's claim that Phase 3 file-based restart
dominates the LU.C cycle falls out as ``blcr.restart`` owning most
critical-path seconds.

Algorithm: starting from the root span's end, repeatedly step to the
latest-finishing unvisited child that ends before the cursor (the
operation the parent was actually waiting on); gaps between children are
the parent's own time.  When a span's start is reached and a ``flow.link``
edge points at it, the chain jumps to the causal predecessor — crossing
task and node boundaries the containment tree cannot see.  The walk is a
single backward chain in time, so blame seconds sum to (at most) the
cycle length and every second is attributed to exactly one component.

Spans opened inside ``sim.spawn()``-ed processes have no declared parent
(nesting stacks are per task); they are attached to the smallest
enclosing span by time, which keeps the DAG rooted without requiring
every spawn site to thread ids around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["SpanNode", "FlowEdge", "SpanDAG", "CriticalPath", "Segment",
           "ORCHESTRATION_SPANS", "build_span_dag", "critical_path",
           "dominant_component", "render_waterfall", "render_blame"]

_EPS = 1e-9

#: Cycle-root / wrapper spans whose critical-path seconds are bookkeeping,
#: not a component's own work — excluded when ranking "who owns the
#: cycle" (and, in the differential analyzer, "who owns the delta").
ORCHESTRATION_SPANS = ("migration", "cr.cycle", "pipeline.run")


@dataclass
class SpanNode:
    """One closed (or trace-truncated) span in the DAG."""

    span_id: int
    name: str
    start: float
    end: float
    attrs: Dict[str, Any]
    parent: Optional[int]
    synthetic_parent: bool = False
    truncated: bool = False
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def label(self) -> str:
        """Component label for blame: span name, phases by phase name."""
        if self.name == "phase" and "phase" in self.attrs:
            return f"phase:{self.attrs['phase']}"
        return self.name

    def contains(self, other: "SpanNode") -> bool:
        return (self.start <= other.start + _EPS
                and other.end <= self.end + _EPS)


@dataclass(frozen=True)
class FlowEdge:
    """One causal ``flow.link`` record: src span -> dst span."""

    src: int
    dst: int
    kind: str
    time: float


@dataclass
class SpanDAG:
    """All spans of a trace plus the flow edges between them."""

    nodes: Dict[int, SpanNode]
    flows: List[FlowEdge]
    roots: List[SpanNode]

    #: dst span id -> incoming flow edges, for the backward walk.
    flows_in: Dict[int, List[FlowEdge]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for edge in self.flows:
            self.flows_in.setdefault(edge.dst, []).append(edge)

    def node_named(self, name: str) -> Optional[SpanNode]:
        """The longest span with this name (e.g. the ``migration`` root)."""
        best = None
        for node in self.nodes.values():
            if node.name == name and (best is None
                                      or node.duration > best.duration):
                best = node
        return best


def build_span_dag(trace) -> SpanDAG:
    """Reconstruct the span DAG from a trace (live Tracer or jsonl reload).

    Pairs ``.start``/``.end`` records on span id; spans still open at the
    end of the trace are closed at the last recorded time and marked
    ``truncated``.  Parentless spans (opened in spawned tasks) are
    attached to the smallest enclosing span by time.
    """
    nodes: Dict[int, SpanNode] = {}
    flows: List[FlowEdge] = []
    t_last = 0.0
    for rec in trace:
        t_last = max(t_last, rec.time)
        if rec.kind == "flow.link":
            flows.append(FlowEdge(rec["src"], rec["dst"],
                                  rec.get("edge", "flow"), rec.time))
            continue
        span_id = rec.get("span")
        if span_id is None:
            continue
        if rec.kind.endswith(".start"):
            attrs = {k: v for k, v in rec.fields.items()
                     if k not in ("span", "parent")}
            nodes[span_id] = SpanNode(span_id, rec.kind[: -len(".start")],
                                      rec.time, float("inf"), attrs,
                                      rec.get("parent"))
        elif rec.kind.endswith(".end"):
            node = nodes.get(span_id)
            if node is None:
                continue  # end without start: partial trace, skip
            node.end = rec.time
            for k, v in rec.fields.items():
                if k not in ("span", "parent", "duration"):
                    node.attrs.setdefault(k, v)
    for node in nodes.values():
        if node.end == float("inf"):
            node.end = max(t_last, node.start)
            node.truncated = True
    # Containment fallback for spans opened in spawned tasks: smallest
    # enclosing span by time.  Ties on identical intervals break toward
    # the smaller span id, which keeps the relation acyclic.  The
    # containment test is vectorized — one mask over all spans per
    # parentless node instead of an O(nodes) Python scan — and the
    # handful of surviving candidates then go through the exact
    # sequential tie-break the scalar loop used, in the same order.
    parentless = [node for node in nodes.values()
                  if node.parent is None or node.parent not in nodes]
    if parentless and nodes:
        all_nodes = list(nodes.values())
        starts = np.array([n.start for n in all_nodes])
        ends = np.array([n.end for n in all_nodes])
        durations = ends - starts
        ids = np.array([n.span_id for n in all_nodes])
        for node in parentless:
            mask = ((starts <= node.start + _EPS)
                    & (ends >= node.end - _EPS)
                    & (ids != node.span_id)
                    & ((durations > node.duration + _EPS)
                       | (ids < node.span_id)))
            best: Optional[SpanNode] = None
            for i in np.nonzero(mask)[0]:
                cand = all_nodes[i]
                if best is None or cand.duration < best.duration or (
                        abs(cand.duration - best.duration) <= _EPS
                        and cand.start > best.start + _EPS):
                    best = cand
            if best is not None:
                node.parent = best.span_id
                node.synthetic_parent = True
            else:
                node.parent = None
    roots: List[SpanNode] = []
    for node in nodes.values():
        if node.parent is not None and node.parent in nodes:
            nodes[node.parent].children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.start)
    roots.sort(key=lambda n: -n.duration)
    return SpanDAG(nodes, flows, roots)


@dataclass(frozen=True)
class Segment:
    """One stretch of the critical path attributed to one span."""

    node: SpanNode
    start: float
    end: float
    #: how the chain entered this span: "self" (own time / gap between
    #: children) or "flow:<edge kind>" (jumped a causal edge).
    via: str = "self"

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The longest weighted chain through one cycle."""

    root: SpanNode
    segments: List[Segment]
    #: earliest time the backward chain reached (>= root.start when a
    #: causal chain dead-ends early; == root.start on full coverage).
    reached: float

    @property
    def total(self) -> float:
        return sum(seg.duration for seg in self.segments)

    def blame(self) -> Dict[str, Dict[str, float]]:
        """``{phase -> {component -> seconds on the critical path}}``.

        The phase of a segment is the nearest ``phase`` span on its
        ancestor chain (``(outside phases)`` when there is none), so the
        breakdown works on any trace without separate interval input.
        """
        out: Dict[str, Dict[str, float]] = {}
        for seg in self.segments:
            bucket = out.setdefault(self._phase_of(seg.node), {})
            label = seg.node.label
            bucket[label] = bucket.get(label, 0.0) + seg.duration
        return out

    def components(self) -> Dict[str, float]:
        """Total critical-path seconds per component, largest first."""
        out: Dict[str, float] = {}
        for seg in self.segments:
            out[seg.node.label] = out.get(seg.node.label, 0.0) + seg.duration
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def _phase_of(self, node: SpanNode) -> str:
        seen = set()
        cur: Optional[SpanNode] = node
        while cur is not None and cur.span_id not in seen:
            seen.add(cur.span_id)
            if cur.name == "phase":
                return cur.label
            cur = self._parent_of(cur)
        return "(outside phases)"

    def _parent_of(self, node: SpanNode) -> Optional[SpanNode]:
        # Resolved through the DAG attached at construction time.
        return self._nodes.get(node.parent) if node.parent is not None \
            else None

    # populated by critical_path(); not part of the public surface.
    _nodes: Dict[int, SpanNode] = None  # type: ignore[assignment]


def critical_path(dag_or_trace, root: Optional[str] = None) -> CriticalPath:
    """Walk the longest weighted path backward from the root span's end.

    ``root`` names the cycle to analyze (default: the ``migration`` span
    when present, else the longest root span).  Accepts a
    :class:`SpanDAG` or anything :func:`build_span_dag` accepts.
    """
    dag = dag_or_trace if isinstance(dag_or_trace, SpanDAG) \
        else build_span_dag(dag_or_trace)
    if not dag.nodes:
        raise ValueError("trace contains no spans to analyze")
    root_node = dag.node_named(root) if root is not None \
        else (dag.node_named("migration") or dag.roots[0])
    if root_node is None:
        raise ValueError(f"no span named {root!r} in the trace")

    segments: List[Segment] = []
    visited = set()

    def walk(node: SpanNode, t_hi: float, via: str) -> float:
        """Attribute the chain from ``t_hi`` down; returns the earliest
        time reached (the chain may burrow below ``node.start`` through
        flow edges discovered in descendants)."""
        visited.add(node.span_id)
        t = min(t_hi, node.end)
        entry_via = via
        while t > node.start + _EPS:
            best: Optional[SpanNode] = None
            for child in node.children:
                if child.span_id in visited:
                    continue
                if child.end <= t + _EPS and child.end > node.start + _EPS:
                    if best is None or child.end > best.end:
                        best = child
            if best is None:
                break
            if t - best.end > _EPS:
                segments.append(Segment(node, best.end, t, entry_via))
                entry_via = "self"
            reached = walk(best, best.end, "self")
            t = min(best.start, reached)
            if reached < node.start - _EPS:
                return reached  # chain escaped this scope via a flow edge
        if t > node.start + _EPS:
            segments.append(Segment(node, node.start, t, entry_via))
            t = node.start
        # At the span's start: follow the causal edge that triggered it —
        # but only a *blocking* predecessor, one still in flight (or just
        # ending) when this span started.  A logically-paired edge whose
        # source finished long before (the stall span of a stall->resume
        # barrier) is not what this span waited on; jumping it would
        # teleport the chain across the cycle.
        pred_edge: Optional[FlowEdge] = None
        pred_node: Optional[SpanNode] = None
        for edge in dag.flows_in.get(node.span_id, ()):
            cand = dag.nodes.get(edge.src)
            if cand is None or cand.span_id in visited:
                continue
            if cand.start > node.start + _EPS:
                continue  # not causal: the source started after us
            if cand.end + _EPS < node.start:
                continue  # finished earlier: not the blocking dependency
            if pred_node is None or cand.end > pred_node.end:
                pred_edge, pred_node = edge, cand
        if pred_node is not None:
            return walk(pred_node, node.start, f"flow:{pred_edge.kind}")
        return t

    reached = walk(root_node, root_node.end, "self")
    segments.sort(key=lambda seg: seg.start)
    cp = CriticalPath(root_node, segments, reached)
    cp._nodes = dag.nodes
    return cp


def dominant_component(cp: CriticalPath,
                       skip: Iterable[str] = ORCHESTRATION_SPANS
                       ) -> Tuple[str, float]:
    """(component, seconds): the largest non-orchestration contributor.

    The root span and phase wrappers only hold time their children do
    not account for, so they stay in the ranking; ``skip`` drops the
    named cycle roots themselves from consideration.
    """
    totals = {k: v for k, v in cp.components().items() if k not in skip}
    if not totals:
        raise ValueError("critical path has no non-root components")
    name = max(totals, key=lambda k: totals[k])
    return name, totals[name]


def render_waterfall(cp: CriticalPath, width: int = 48) -> str:
    """Text waterfall: one line per critical-path segment, in time order."""
    t0, t1 = cp.root.start, cp.root.end
    span = max(t1 - t0, 1e-12)
    out = [f"== critical path: {cp.root.label} "
           f"({t0:.3f}s .. {t1:.3f}s, {t1 - t0:.3f}s) =="]
    label_w = max((len(seg.node.label) for seg in cp.segments), default=4)
    for seg in cp.segments:
        lead = int(round(width * (max(seg.start, t0) - t0) / span))
        body = max(1, int(round(width * seg.duration / span)))
        bar = (" " * lead + "#" * body)[:width]
        mark = "~" if seg.via.startswith("flow:") else " "
        out.append(f"{seg.node.label.ljust(label_w)} {mark}|{bar.ljust(width)}|"
                   f" {seg.duration:9.6f}s")
    out.append(f"{'(total attributed)'.ljust(label_w)}  |{' ' * width}|"
               f" {cp.total:9.6f}s")
    return "\n".join(out)


def render_blame(blame: Dict[str, Dict[str, float]]) -> str:
    """Table of ``{phase -> {component -> seconds}}``, biggest first."""
    total = sum(v for comps in blame.values() for v in comps.values())
    total = max(total, 1e-12)
    rows = []
    for phase, comps in blame.items():
        for comp, sec in comps.items():
            rows.append((phase, comp, sec))
    rows.sort(key=lambda r: -r[2])
    phase_w = max((len(r[0]) for r in rows), default=5)
    comp_w = max((len(r[1]) for r in rows), default=9)
    out = [f"{'phase'.ljust(phase_w)}  {'component'.ljust(comp_w)}  "
           f"{'seconds':>10}  share"]
    for phase, comp, sec in rows:
        out.append(f"{phase.ljust(phase_w)}  {comp.ljust(comp_w)}  "
                   f"{sec:>10.6f}  {sec / total:5.1%}")
    return "\n".join(out)
