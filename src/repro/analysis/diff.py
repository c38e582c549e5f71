"""Differential trace analysis: explain where the time went *between* runs.

The observability layer can record one run exhaustively (spans, flow
edges, telemetry) and the run registry can diff two manifests' scalar
results — but when a bench drifts or a restart-mode ablation changes the
cycle, a scalar delta still leaves a human loading two Chrome traces to
find out *why*.  This module closes that gap with three engines over a
pair of traces:

* **span-tree alignment** — the two runs' span DAGs are walked together,
  pairing spans by name, parent chain and sim-process lane (tolerant of
  count mismatches: a retried phase or an extra rank leaves unmatched
  spans, reported as only-in-A/only-in-B rather than derailing the
  alignment), yielding per-span and per-component duration deltas;
* **critical-path delta attribution** — the causal profiler runs on both
  traces and the end-to-end delta is attributed to the components whose
  critical-path blame shifted, including components that *entered* or
  *left* the path entirely (the Fig. 4 file-vs-memory story: the cycle
  shrinks because ``blcr.restart`` leaves the path);
* **telemetry series diffing** — every sampled :class:`TimeSeries`
  shared by the runs is compared on peak, mean and area-under-curve, so
  a queue-depth or utilization regression surfaces next to the span
  regressions even when no span got slower.

:func:`diff_traces` fuses the three into a :class:`TraceDiff`;
:func:`render_explanation` renders it as the markdown "regression
explainer" that ``repro explain``, ``repro runs diff`` (when both runs
archived traces) and the bench harness's out-of-tolerance hook emit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .critical_path import (
    ORCHESTRATION_SPANS,
    SpanDAG,
    SpanNode,
    build_span_dag,
    critical_path,
)
from .timeline import extract_phases, phase_totals
from .trace_export import telemetry_series

__all__ = ["SpanMatch", "ComponentDelta", "BlameShift", "PhaseDelta",
           "SeriesDelta", "TraceDiff", "align_span_trees", "diff_traces",
           "series_stats", "render_explanation"]

_EPS = 1e-9


# -- span-tree alignment -----------------------------------------------------

@dataclass
class SpanMatch:
    """One aligned position in the two span trees.

    Either side may be ``None``: the span exists in only one run (count
    mismatch, a phase that only happens in one restart mode, ...).
    """

    path: str                      #: root-to-span label path, ``/``-joined.
    a: Optional[SpanNode] = None
    b: Optional[SpanNode] = None

    @property
    def delta(self) -> float:
        """Duration delta B - A (one-sided matches count their full
        duration as appearing/disappearing time)."""
        da = self.a.duration if self.a is not None else 0.0
        db = self.b.duration if self.b is not None else 0.0
        return db - da

    @property
    def status(self) -> str:
        if self.a is None:
            return "only-B"
        if self.b is None:
            return "only-A"
        return "both"


def _lane(node: SpanNode) -> Tuple[Any, Any]:
    """Sim-process identity of a span, best-effort from its attrs.

    Migration spans carry ``node``/``rank``/``proc`` attrs when they are
    per-process; orchestration spans have neither and land in one shared
    lane, which is exactly right for pairing them.
    """
    attrs = node.attrs
    return (attrs.get("node"),
            attrs.get("rank", attrs.get("proc", attrs.get("client"))))


def _pair_groups(group_a: List[SpanNode], group_b: List[SpanNode],
                 key) -> Tuple[List[Tuple[SpanNode, SpanNode]],
                               List[SpanNode], List[SpanNode]]:
    """Pair two same-parent span lists on ``key``, i-th with i-th.

    Within one key bucket spans pair in start order — the k-th retry of
    a phase in A lines up with the k-th retry in B.  Leftover spans
    (count mismatch) come back unpaired.
    """
    buckets_a: Dict[Any, List[SpanNode]] = {}
    buckets_b: Dict[Any, List[SpanNode]] = {}
    for node in group_a:
        buckets_a.setdefault(key(node), []).append(node)
    for node in group_b:
        buckets_b.setdefault(key(node), []).append(node)
    pairs: List[Tuple[SpanNode, SpanNode]] = []
    rest_a: List[SpanNode] = []
    rest_b: List[SpanNode] = []
    for k in list(buckets_a):
        la, lb = buckets_a[k], buckets_b.pop(k, [])
        # Group lists arrive in DAG order (roots: duration-descending);
        # re-sort so the k-th *starter* in A pairs with the k-th in B.
        la.sort(key=lambda n: (n.start, n.span_id))
        lb.sort(key=lambda n: (n.start, n.span_id))
        pairs.extend(zip(la, lb))
        if len(la) > len(lb):
            rest_a.extend(la[len(lb):])
        else:
            rest_b.extend(lb[len(la):])
    for lb in buckets_b.values():
        rest_b.extend(lb)
    return pairs, rest_a, rest_b


def align_span_trees(dag_a: SpanDAG, dag_b: SpanDAG) -> List[SpanMatch]:
    """Align two span DAGs; returns matches in A-then-B tree order.

    Children of a matched pair are paired first by ``(label, lane)``
    (same span name on the same sim-process), then leftovers by label
    alone (the lane moved: a migration retargeted to a different spare
    node still pairs), and whatever remains is reported one-sided.
    One-sided spans do not recurse — their whole subtree is unique to
    that run, and the top of it is the interesting fact.
    """
    out: List[SpanMatch] = []

    def descend(pairs_a: List[SpanNode], pairs_b: List[SpanNode],
                prefix: str) -> None:
        pairs, rest_a, rest_b = _pair_groups(
            pairs_a, pairs_b, key=lambda n: (n.label, _lane(n)))
        repairs, rest_a, rest_b = _pair_groups(
            rest_a, rest_b, key=lambda n: n.label)
        pairs.extend(repairs)
        pairs.sort(key=lambda ab: (ab[0].start, ab[0].span_id))
        for na, nb in pairs:
            path = f"{prefix}/{na.label}" if prefix else na.label
            out.append(SpanMatch(path, na, nb))
            descend(na.children, nb.children, path)
        for node in sorted(rest_a, key=lambda n: n.start):
            path = f"{prefix}/{node.label}" if prefix else node.label
            out.append(SpanMatch(path, a=node))
        for node in sorted(rest_b, key=lambda n: n.start):
            path = f"{prefix}/{node.label}" if prefix else node.label
            out.append(SpanMatch(path, b=node))

    descend(dag_a.roots, dag_b.roots, "")
    return out


# -- deltas ------------------------------------------------------------------

@dataclass
class ComponentDelta:
    """Aggregate span-duration movement of one component label."""

    label: str
    n_a: int = 0
    n_b: int = 0
    total_a: float = 0.0
    total_b: float = 0.0
    truncated: bool = False        #: any contributing span was truncated.

    @property
    def delta(self) -> float:
        return self.total_b - self.total_a


@dataclass
class BlameShift:
    """One component's critical-path blame in run A vs run B."""

    component: str
    a: float
    b: float
    status: str                    #: ``shifted`` | ``entered`` | ``left``.

    @property
    def delta(self) -> float:
        return self.b - self.a


@dataclass
class PhaseDelta:
    """Total per-phase seconds in each run (``None`` = phase absent)."""

    name: str
    a: Optional[float]
    b: Optional[float]

    @property
    def delta(self) -> float:
        return (self.b or 0.0) - (self.a or 0.0)


@dataclass
class SeriesDelta:
    """peak/mean/AUC comparison of one telemetry series."""

    name: str
    a: Optional[Dict[str, float]]
    b: Optional[Dict[str, float]]

    def delta(self, stat: str) -> float:
        va = self.a[stat] if self.a else 0.0
        vb = self.b[stat] if self.b else 0.0
        return vb - va


def series_stats(points: List[Tuple[float, float]]) -> Dict[str, float]:
    """``{n, peak, mean, auc}`` of one ``[(t, v), ...]`` series.

    AUC integrates value over sim time (trapezoid), so two runs of
    different length compare on accumulated load, not just levels.
    """
    if not points:
        return {"n": 0, "peak": 0.0, "mean": 0.0, "auc": 0.0}
    ts = np.array([t for t, _ in points], dtype=float)
    vs = np.array([v for _, v in points], dtype=float)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    auc = float(trapezoid(vs, ts)) if len(points) > 1 else 0.0
    return {"n": len(points), "peak": float(vs.max()),
            "mean": float(vs.mean()), "auc": auc}


@dataclass
class TraceDiff:
    """Everything :func:`diff_traces` learned about a pair of runs."""

    label_a: str
    label_b: str
    root: str                      #: cycle span both walks started from.
    total_a: float                 #: end-to-end seconds of the root in A.
    total_b: float
    matches: List[SpanMatch]
    components: List[ComponentDelta]       #: ranked by \|delta\|.
    shifts: List[BlameShift]               #: ranked by \|delta\|.
    phases: List[PhaseDelta]
    series: List[SeriesDelta]
    notes: List[str] = field(default_factory=list)

    @property
    def end_to_end_delta(self) -> float:
        return self.total_b - self.total_a

    def dominant_shift(self) -> Optional[BlameShift]:
        """The non-orchestration component whose blame moved the most, or
        ``None`` when no component's blame moved."""
        for shift in self.shifts:
            if abs(shift.delta) <= _EPS:
                return None  # ranked by |delta|: none after this moved
            if shift.component not in ORCHESTRATION_SPANS:
                return shift
        return None

    def only_in(self, side: str) -> List[SpanMatch]:
        status = {"a": "only-A", "b": "only-B"}[side]
        return [m for m in self.matches if m.status == status]


def _blame_shifts(comps_a: Dict[str, float],
                  comps_b: Dict[str, float]) -> List[BlameShift]:
    shifts: List[BlameShift] = []
    for name in sorted(set(comps_a) | set(comps_b)):
        a = comps_a.get(name)
        b = comps_b.get(name)
        if a is None:
            status = "entered"
        elif b is None:
            status = "left"
        else:
            status = "shifted"
        shifts.append(BlameShift(name, a or 0.0, b or 0.0, status))
    shifts.sort(key=lambda s: (-abs(s.delta), s.component))
    return shifts


def diff_traces(trace_a, trace_b, root: Optional[str] = None,
                label_a: str = "A", label_b: str = "B") -> TraceDiff:
    """Differential analysis of two traces (live tracers or reloads).

    ``root`` names the cycle span to attribute end-to-end time to
    (default: ``migration`` when both runs have it, else each run's
    longest root).  Raises ``ValueError`` when either trace has no spans
    — there is nothing to align.
    """
    dag_a = build_span_dag(trace_a)
    dag_b = build_span_dag(trace_b)
    if not dag_a.nodes or not dag_b.nodes:
        which = label_a if not dag_a.nodes else label_b
        raise ValueError(f"trace {which} contains no spans to diff")
    notes: List[str] = []

    cp_a = critical_path(dag_a, root=root)
    root_name = cp_a.root.name
    try:
        cp_b = critical_path(dag_b, root=root or root_name)
    except ValueError:
        cp_b = critical_path(dag_b)
        notes.append(f"root span {root_name!r} absent in {label_b}; "
                     f"using its {cp_b.root.name!r} cycle instead")
    if cp_a.root.truncated or cp_b.root.truncated:
        notes.append("a root span is trace-truncated; end-to-end totals "
                     "are lower bounds")

    # Per-component aggregate span durations over each whole tree.
    comps: Dict[str, ComponentDelta] = {}
    for node in dag_a.nodes.values():
        agg = comps.setdefault(node.label, ComponentDelta(node.label))
        agg.n_a += 1
        agg.total_a += node.duration
        agg.truncated = agg.truncated or node.truncated
    for node in dag_b.nodes.values():
        agg = comps.setdefault(node.label, ComponentDelta(node.label))
        agg.n_b += 1
        agg.total_b += node.duration
        agg.truncated = agg.truncated or node.truncated
    components = sorted(comps.values(),
                        key=lambda c: (-abs(c.delta), c.label))

    shifts = _blame_shifts(cp_a.components(), cp_b.components())

    pa = phase_totals(extract_phases(trace_a, allow_open=True))
    pb = phase_totals(extract_phases(trace_b, allow_open=True))
    phases = [PhaseDelta(name, pa.get(name), pb.get(name))
              for name in sorted(set(pa) | set(pb))]
    phases.sort(key=lambda p: (-abs(p.delta), p.name))

    sa = {k: series_stats(v) for k, v in telemetry_series(trace_a).items()}
    sb = {k: series_stats(v) for k, v in telemetry_series(trace_b).items()}
    series = [SeriesDelta(name, sa.get(name), sb.get(name))
              for name in sorted(set(sa) | set(sb))]
    series.sort(key=lambda s: (-abs(s.delta("auc")), s.name))

    return TraceDiff(
        label_a=label_a, label_b=label_b, root=root_name,
        total_a=cp_a.root.duration, total_b=cp_b.root.duration,
        matches=align_span_trees(dag_a, dag_b),
        components=components, shifts=shifts, phases=phases,
        series=series, notes=notes)


# -- rendering ---------------------------------------------------------------

def _sec(v: float) -> str:
    return f"{v:.3f}"


def _short_path(path: str, keep: int = 3) -> str:
    """Last ``keep`` segments of a span path (synthetic containment
    parents make full paths deep and repetitive)."""
    parts = path.split("/")
    if len(parts) <= keep:
        return path
    return "…/" + "/".join(parts[-keep:])


def _signed(v: float) -> str:
    return f"{v:+.3f}"


def _attribution_sentence(diff: TraceDiff, limit: int = 3) -> str:
    """The one-line story: cycle delta -> the blame shifts that drove it."""
    parts: List[str] = []
    for shift in diff.shifts:
        if shift.component in ORCHESTRATION_SPANS:
            continue
        if abs(shift.delta) < 1e-6 or len(parts) >= limit:
            continue
        if shift.status == "entered":
            how = "entered the critical path"
        elif shift.status == "left":
            how = "left the critical path"
        elif shift.delta > 0:
            how = "more on the critical path"
        else:
            how = "less on the critical path"
        parts.append(f"{shift.component} {_signed(shift.delta)}s ({how})")
    head = (f"cycle {_signed(diff.end_to_end_delta)}s "
            f"({diff.root}: {_sec(diff.total_a)}s -> "
            f"{_sec(diff.total_b)}s)")
    return head + (": " + "; ".join(parts) if parts else "")


def render_explanation(diff: TraceDiff, top: int = 12) -> str:
    """Markdown regression explainer for a :class:`TraceDiff`.

    The ``dominant delta component:`` line is stable and greppable — CI
    smoke jobs assert on it.
    """
    lines: List[str] = ["## Differential trace analysis", ""]
    lines.append(f"- run A: `{diff.label_a}` — {diff.root} "
                 f"{_sec(diff.total_a)}s end-to-end")
    lines.append(f"- run B: `{diff.label_b}` — {diff.root} "
                 f"{_sec(diff.total_b)}s end-to-end")
    lines.append("")
    lines.append(f"**{_attribution_sentence(diff)}**")
    lines.append("")
    for note in diff.notes:
        lines.append(f"_note: {note}_")
    if diff.notes:
        lines.append("")

    dom = diff.dominant_shift()
    if dom is not None:
        lines.append(f"dominant delta component: {dom.component} "
                     f"({_signed(dom.delta)}s critical-path blame, "
                     f"{dom.status})")
    else:
        lines.append("no component moved: every critical-path blame is "
                     "unchanged")
    lines.append("")

    shown = [s for s in diff.shifts if abs(s.delta) > 1e-9][:top]
    if shown:
        lines.append("### Critical-path blame shifts")
        lines.append("")
        lines.append("| component | A (s) | B (s) | delta (s) | note |")
        lines.append("| --- | ---: | ---: | ---: | --- |")
        for s in shown:
            note = {"entered": "entered the path", "left": "left the path",
                    "shifted": ""}[s.status]
            lines.append(f"| `{s.component}` | {_sec(s.a)} | {_sec(s.b)} "
                         f"| {_signed(s.delta)} | {note} |")
        lines.append("")

    shown_p = [p for p in diff.phases if abs(p.delta) > 1e-9][:top]
    if shown_p:
        lines.append("### Phase deltas")
        lines.append("")
        lines.append("| phase | A (s) | B (s) | delta (s) |")
        lines.append("| --- | ---: | ---: | ---: |")
        for p in shown_p:
            a = _sec(p.a) if p.a is not None else "—"
            b = _sec(p.b) if p.b is not None else "—"
            lines.append(f"| {p.name} | {a} | {b} | {_signed(p.delta)} |")
        lines.append("")

    shown_c = [c for c in diff.components if abs(c.delta) > 1e-9][:top]
    if shown_c:
        lines.append("### Span deltas by component")
        lines.append("")
        lines.append("| component | n A | n B | A total (s) | B total (s) "
                     "| delta (s) |")
        lines.append("| --- | ---: | ---: | ---: | ---: | ---: |")
        for c in shown_c:
            flag = " †" if c.truncated else ""
            lines.append(f"| `{c.label}`{flag} | {c.n_a} | {c.n_b} "
                         f"| {_sec(c.total_a)} | {_sec(c.total_b)} "
                         f"| {_signed(c.delta)} |")
        if any(c.truncated for c in shown_c):
            lines.append("")
            lines.append("† includes trace-truncated spans "
                         "(durations are lower bounds).")
        lines.append("")

    for side, label in (("a", diff.label_a), ("b", diff.label_b)):
        only = diff.only_in(side)
        if only:
            sample = ", ".join(f"`{_short_path(m.path)}`"
                               for m in only[:6])
            more = f" (+{len(only) - 6} more)" if len(only) > 6 else ""
            lines.append(f"spans only in {label}: {sample}{more}")
            lines.append("")

    # Only series both runs sampled compare; a run recorded without a
    # telemetry probe has none, so one-sided series get one note line.
    one_sided = []
    for label, names in (
            (diff.label_a, [s.name for s in diff.series if s.b is None]),
            (diff.label_b, [s.name for s in diff.series if s.a is None])):
        if names:
            more = f" (+{len(names) - 3} more)" if len(names) > 3 else ""
            sample = ", ".join(f"`{n}`" for n in sorted(names)[:3])
            one_sided.append(f"{len(names)} only in {label}: {sample}{more}")
    if one_sided:
        lines.append("telemetry series not compared, "
                     + "; ".join(one_sided))
        lines.append("")

    shown_s = [s for s in diff.series
               if s.a is not None and s.b is not None
               and any(abs(s.delta(k)) > _EPS
                       for k in ("peak", "mean", "auc"))][:top]
    if shown_s:
        lines.append("### Telemetry series deltas")
        lines.append("")
        lines.append("| series | peak A→B | mean A→B | AUC A→B |")
        lines.append("| --- | --- | --- | --- |")
        for s in shown_s:
            lines.append(
                f"| `{s.name}` "
                f"| {s.a['peak']:g} → {s.b['peak']:g} "
                f"| {s.a['mean']:.4g} → {s.b['mean']:.4g} "
                f"| {s.a['auc']:.4g} → {s.b['auc']:.4g} |")
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
