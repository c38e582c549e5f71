"""Differential trace analysis: explain where the time went *between* runs.

The run registry diffs two manifests' scalar results; when a pin moves
or a restart-mode ablation changes the cycle, this module says why, from
the two traces:

* **first differing record** — the record streams are compared row by
  row (telemetry samples dropped: the probe only observes), so a moved
  pin names the record, field and old -> new value where the runs part;
* **critical-path delta attribution** — the causal profiler runs on both
  span DAGs and the end-to-end delta is attributed to the components
  whose critical-path blame shifted, including components that *entered*
  or *left* the path entirely (the Fig. 4 file-vs-memory story: the
  cycle shrinks because ``blcr.restart`` leaves the path);
* **per-component span totals** — span count and summed duration of each
  component label over each whole DAG (phases as ``phase:<name>``).

:func:`diff_traces` fuses them into a :class:`TraceDiff`;
:func:`render_explanation` renders it as the markdown that
``repro explain`` prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from .critical_path import ORCHESTRATION_SPANS, build_span_dag, critical_path

__all__ = ["RecordDifference", "ComponentDelta", "BlameShift", "TraceDiff",
           "first_difference", "diff_traces", "render_explanation"]

_EPS = 1e-9
#: Least critical-path blame shift reported anywhere: half the last digit
#: the tables print (3 decimals), so a shown shift never reads ±0.000.
_SHIFT_FLOOR = 5e-4


class _Absent:
    """Stand-in value for a key one of two compared rows lacks."""

    def __repr__(self) -> str:
        return "(absent)"


_ABSENT = _Absent()


@dataclass(frozen=True)
class RecordDifference:
    """The first record at which two record streams part.

    ``index`` counts compared rows (telemetry samples excluded) and
    ``kind``/``t`` are run A's.  A field difference names its ``key``
    (``t``, ``kind`` or a field) with ``old`` (A) and ``new`` (B).  When
    one stream is a prefix of the other, ``key`` is ``None``, ``old`` and
    ``new`` are the two stream lengths, and ``kind``/``t`` belong to the
    first extra record.
    """

    index: int
    kind: str
    t: float
    key: Optional[str]
    old: Any
    new: Any

    def __str__(self) -> str:
        head = f"#{self.index} {self.kind} (t={self.t:.6f})"
        if self.key is None:
            longer = "B" if self.new > self.old else "A"
            return (f"{head}: only in {longer}, which has "
                    f"{abs(self.new - self.old)} more records")
        return f"{head}: {self.key} {self.old!r} -> {self.new!r}"


def _compared(rows: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """``rows`` without telemetry samples.  The probe only observes (a
    probed run's other records equal an unprobed run's) and pins are
    recorded without it."""
    return [row for row in rows if row["kind"] != "telemetry.sample"]


def _jsonl_row(rec) -> Dict[str, Any]:
    return json.loads(json.dumps(rec.as_dict(), default=str))


def first_difference(rows_a: Iterable[Dict[str, Any]],
                     rows_b: Iterable[Dict[str, Any]]
                     ) -> Optional[RecordDifference]:
    """Where two record streams first differ, or ``None`` if they agree.

    Rows are :meth:`~repro.simulate.trace.TraceRecord.as_dict` shapes
    (``{"t", "kind", **fields}``); telemetry samples are dropped first.
    Within the first unequal pair the keys compare ``t``, then ``kind``,
    then A's other keys in order, then the keys only B has.
    """
    a, b = _compared(rows_a), _compared(rows_b)
    for i, (row_a, row_b) in enumerate(zip(a, b)):
        if row_a == row_b:
            continue
        for key in dict.fromkeys(("t", "kind", *row_a, *row_b)):
            old, new = row_a.get(key, _ABSENT), row_b.get(key, _ABSENT)
            if old != new:
                return RecordDifference(i, row_a["kind"], row_a["t"], key,
                                        old, new)
    if len(a) == len(b):
        return None
    n = min(len(a), len(b))
    extra = (a if len(a) > n else b)[n]
    return RecordDifference(n, extra["kind"], extra["t"], None, len(a),
                            len(b))


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
class TraceDiff:
    """Everything :func:`diff_traces` learned about a pair of runs."""

    label_a: str
    label_b: str
    root: str                      #: cycle span both walks started from.
    total_a: float                 #: end-to-end seconds of the root in A.
    total_b: float
    first_record: Optional[RecordDifference]
    records: int                   #: compared records of A.
    samples: int                   #: telemetry samples of both, skipped.
    components: List[ComponentDelta]       #: ranked by \|delta\|.
    shifts: List[BlameShift]               #: ranked by \|delta\|.
    notes: List[str] = field(default_factory=list)

    @property
    def end_to_end_delta(self) -> float:
        return self.total_b - self.total_a

    def dominant_shift(self) -> Optional[BlameShift]:
        """The non-orchestration component whose blame moved the most, or
        ``None`` when no component's blame moved by the shift floor."""
        for shift in self.shifts:
            if abs(shift.delta) < _SHIFT_FLOOR:
                return None  # ranked by |delta|: none after this moved
            if shift.component not in ORCHESTRATION_SPANS:
                return shift
        return None


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
    — there is nothing to attribute.
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

    # Rows as ``write_jsonl`` stores them (tuples become lists), so a
    # live tracer and a reload of it compare equal.
    rows_a = _compared(_jsonl_row(rec) for rec in trace_a)
    rows_b = _compared(_jsonl_row(rec) for rec in trace_b)
    return TraceDiff(
        label_a=label_a, label_b=label_b, root=root_name,
        total_a=cp_a.root.duration, total_b=cp_b.root.duration,
        first_record=first_difference(rows_a, rows_b),
        records=len(rows_a),
        samples=len(trace_a) + len(trace_b) - len(rows_a) - len(rows_b),
        components=components,
        shifts=_blame_shifts(cp_a.components(), cp_b.components()),
        notes=notes)


# -- rendering ---------------------------------------------------------------

def _sec(v: float) -> str:
    return f"{v:.3f}"


def _signed(v: float) -> str:
    return f"{v:+.3f}"


def _attribution_sentence(diff: TraceDiff, limit: int = 3) -> str:
    """The one-line story: cycle delta -> the blame shifts that drove it."""
    parts: List[str] = []
    for shift in diff.shifts:
        if shift.component in ORCHESTRATION_SPANS:
            continue
        if abs(shift.delta) < _SHIFT_FLOOR or len(parts) >= limit:
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

    The ``records:``/``first differing record:`` line and the
    ``dominant delta component:`` line are stable and greppable — CI
    smoke jobs assert on them.
    """
    lines: List[str] = ["## Differential trace analysis", ""]
    lines.append(f"- run A: `{diff.label_a}` — {diff.root} "
                 f"{_sec(diff.total_a)}s end-to-end")
    lines.append(f"- run B: `{diff.label_b}` — {diff.root} "
                 f"{_sec(diff.total_b)}s end-to-end")
    lines.append("")
    if diff.first_record is None:
        lines.append(f"records: all {diff.records} identical "
                     f"({diff.samples} telemetry samples not compared)")
    else:
        lines.append(f"first differing record: {diff.first_record}")
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

    shown = [s for s in diff.shifts if abs(s.delta) >= _SHIFT_FLOOR][:top]
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

    # A count change is a row even at zero duration (a span only one run
    # has); sub-nanosecond deltas are summation order, not movement.
    shown_c = [c for c in diff.components
               if abs(c.delta) > _EPS or c.n_a != c.n_b][:top]
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

    return "\n".join(lines).rstrip() + "\n"
