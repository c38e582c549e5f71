"""Phase timeline of a simulation trace.

The migration framework brackets each protocol phase in a ``phase``
span.  :func:`extract_phases` reads those spans off the span DAG as
ordered intervals, and :func:`render_timeline` draws them as an ASCII
Gantt chart — useful for eyeballing where a cycle's time actually went
and for regression checks on phase boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .critical_path import SpanDAG, build_span_dag

__all__ = ["PhaseInterval", "extract_phases", "render_timeline"]


@dataclass(frozen=True)
class PhaseInterval:
    """One [start, end] span of a named phase.

    ``truncated`` marks an interval whose end is synthetic: the phase was
    still open when the trace stopped (aborted/failed run analyzed with
    ``extract_phases(..., allow_open=True)``).
    """

    name: str
    start: float
    end: float
    truncated: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def extract_phases(trace, allow_open: bool = False) -> List[PhaseInterval]:
    """The trace's ``phase`` spans as intervals, in start order.

    Accepts a :class:`SpanDAG` or anything :func:`build_span_dag`
    accepts.  Each span is its own interval, so two migrations running
    the same-named phase concurrently stay apart.  A phase still open
    when the trace stops raises ``ValueError`` — that would indicate a
    framework bug, not a data problem.  For post-mortems of
    aborted/failed runs, pass ``allow_open=True``: such a phase ends at
    the last recorded trace time, marked ``truncated``.
    """
    dag = trace if isinstance(trace, SpanDAG) else build_span_dag(trace)
    nodes = sorted((n for n in dag.nodes.values() if n.name == "phase"),
                   key=lambda n: (n.start, n.span_id))
    dangling = sorted(n.attrs["phase"] for n in nodes if n.truncated)
    if dangling and not allow_open:
        raise ValueError(f"phases never ended: {dangling}")
    return [PhaseInterval(n.attrs["phase"], n.start, n.end, n.truncated)
            for n in nodes]


def render_timeline(intervals: List[PhaseInterval], width: int = 60,
                    title: str = "timeline") -> str:
    """ASCII Gantt chart of the intervals."""
    if not intervals:
        return f"== {title} ==\n(no phases)"
    t0 = min(iv.start for iv in intervals)
    t1 = max(iv.end for iv in intervals)
    span = max(t1 - t0, 1e-12)
    label_w = max(len(iv.name) for iv in intervals)
    out = [f"== {title} ({t0:.3f}s .. {t1:.3f}s) =="]
    for iv in intervals:
        lead = int(round(width * (iv.start - t0) / span))
        body = max(1, int(round(width * iv.duration / span)))
        bar = " " * lead + "#" * body
        out.append(f"{iv.name.ljust(label_w)} |{bar[:width].ljust(width)}| "
                   f"{iv.duration:.3f}s")
    return "\n".join(out)
