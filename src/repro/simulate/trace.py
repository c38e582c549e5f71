"""Structured tracing of simulation activity.

A :class:`Tracer` collects ``TraceRecord`` tuples that the analysis layer
turns into phase decompositions (Figure 4/6/7) and byte accounting
(Table I).  Tracing is opt-in: components call ``trace(...)`` through a
no-op guard so untraced runs pay almost nothing.

``Tracer.records`` is a run's one record of what it observed: recording
only appends, nothing watches it live, and every reader (``of_kind`` and
``between`` are filters over it, the exporters, ``repro explain`` and
``report``, the sanitizer) reads it after the run or from its
``read_jsonl`` reload.

On top of raw records the tracer offers a **span API**: paired
``<name>.start`` / ``<name>.end`` records carrying a monotonically
increasing span id and the id of the enclosing span, so nested and
concurrent operations (two overlapping migrations, per-chunk RDMA pulls
inside Phase 2) stay distinguishable::

    with tracer.span("migration.rdma_pull", rank=r) as sp:
        ...
        sp.annotate(nbytes=n)     # extra fields on the end record

Spans need a clock; binding happens automatically when the tracer is
handed to a :class:`~repro.simulate.core.Simulator` (directly or through
``Cluster``/``Scenario``).  :data:`NULL_TRACER` is a shared inert
instance for the untraced fast path — every API is a no-op, so code can
be written against one surface without ``if trace is not None`` guards
on cold paths.

Spans capture *containment*; :meth:`Tracer.link` captures *causality
across tasks*: a ``flow.link`` record naming a source and destination
span plus an edge kind (a filled pool chunk triggering an RDMA pull, a
published FTB event reaching a subscriber).  The Chrome exporter turns
these into ``s``/``f`` flow events so Perfetto draws the arrows, and
``analysis.critical_path`` uses them to follow the causal chain across
process boundaries.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["TraceRecord", "Tracer", "NullTracer", "Span", "NULL_TRACER"]


class TraceRecord:
    """One timestamped observation.

    A plain ``__slots__`` class rather than a dataclass: ``record()`` is
    the single hottest call of a traced run.  ``fields`` is the dict that
    ``record(**fields)`` already built (keyword unpacking always makes a
    fresh one), so a record allocates nothing per field.  Readers treat
    it as read-only; one that needs different fields copies it first.
    Equality and hashing follow value semantics over ``(time, kind,
    fields)`` with the fields compared as an ordered ``(key, value)``
    sequence, so two records with the same fields in another order
    differ.
    """

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: Dict[str, Any]):
        self.time = time
        self.kind = kind
        self.fields = fields

    def __repr__(self) -> str:
        return (f"TraceRecord(time={self.time!r}, kind={self.kind!r}, "
                f"fields={self.fields!r})")

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time == other.time and self.kind == other.kind
                and self.fields == other.fields
                and list(self.fields) == list(other.fields))

    def __hash__(self) -> int:
        return hash((self.time, self.kind, tuple(self.fields.items())))

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def as_dict(self) -> Dict[str, Any]:
        """Flat ``{"t": ..., "kind": ..., **fields}`` (JSONL row shape)."""
        return {"t": self.time, "kind": self.kind, **self.fields}


#: Fields a span writes itself.  An attribute or annotation under one of
#: these names would overwrite the span's identity (breaking the
#: ``.start``/``.end`` match), its measured duration, or its error.
_SPAN_RESERVED = frozenset(("span", "parent", "duration", "error"))


def _reject_reserved(name: str, fields: Dict[str, Any]) -> None:
    if not _SPAN_RESERVED.isdisjoint(fields):
        clash = ", ".join(repr(k) for k in fields if k in _SPAN_RESERVED)
        raise ValueError(
            f"span {name!r}: reserved field name {clash} (a span writes"
            " span, parent, duration and error itself)")


class Span:
    """One in-flight traced operation (context manager).

    Entering emits ``<name>.start`` with ``span`` (this span's id) and,
    when nested, ``parent`` (the enclosing span's id); exiting emits
    ``<name>.end`` with the same identity fields, the original
    attributes, any :meth:`annotate` additions, and the measured
    ``duration``.  A body that raises still closes the span, with an
    ``error`` field, so traces of failed runs stay balanced.
    """

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id",
                 "start_time", "_extra", "_open", "_closed")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = next(tracer._span_ids)
        self.parent_id: Optional[int] = None
        self.start_time: float = 0.0
        self._extra: Dict[str, Any] = {}
        self._open = False
        self._closed = False

    def annotate(self, **fields: Any) -> "Span":
        """Attach extra fields to the eventual ``.end`` record.

        Raises :class:`ValueError` on a reserved field name (``span``,
        ``parent``, ``duration``, ``error``), which would overwrite what
        the span records itself.

        Raises once the span has closed: the ``.end`` record is already
        emitted, so a late annotation would be silently lost.  This bites
        in error paths — an exception unwinds through ``__exit__`` (which
        closes the span with an ``error`` field) *before* an outer
        ``except`` block gets a chance to annotate.
        """
        if self._closed:
            raise RuntimeError(
                f"annotate() on closed span {self.name!r} (id {self.span_id}):"
                " the .end record was already emitted, late fields would be"
                " lost. Annotate inside the with-block (before any exception"
                " propagates), or record a separate event.")
        _reject_reserved(self.name, fields)
        self._extra.update(fields)
        return self

    def __enter__(self) -> "Span":
        t = self.tracer
        self.start_time = t._clock_now()
        stack = t._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        ident = {"span": self.span_id}
        if self.parent_id is not None:
            ident["parent"] = self.parent_id
        t.record(self.start_time, f"{self.name}.start", **ident, **self.attrs)
        self._open = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t = self.tracer
        now = t._clock_now()
        # Pop down to (and including) this span: an exception thrown across
        # nested spans may unwind several levels through one __exit__ chain.
        stack = t._stack()
        if self.span_id in stack:
            del stack[stack.index(self.span_id):]
        fields: Dict[str, Any] = {"span": self.span_id}
        if self.parent_id is not None:
            fields["parent"] = self.parent_id
        fields.update(self.attrs)
        fields.update(self._extra)
        fields["duration"] = now - self.start_time
        if exc is not None:
            fields["error"] = repr(exc)
        t.record(now, f"{self.name}.end", **fields)
        self._open = False
        self._closed = True
        return False


class Tracer:
    """Append-only in-memory trace; retrieval filters :attr:`records`."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.records: List[TraceRecord] = []
        self._clock = clock
        self._task_key: Optional[Callable[[], Any]] = None
        self._span_ids = count(1)
        self._flow_ids = count(1)
        #: Per-task open-span stacks: nesting is tracked per simulated
        #: process, so concurrent coroutines (two in-flight chunk pulls)
        #: never appear as each other's parents.  ``None`` keys the
        #: stack used outside any process context.
        self._span_stacks: Dict[Any, List[int]] = {}

    # -- clock binding ------------------------------------------------------
    def bind(self, clock: Any) -> "Tracer":
        """Bind the span clock: a zero-arg callable, or anything with
        ``.now`` (a Simulator also contributes its ``active_process`` as
        the span-nesting task key)."""
        if callable(clock):
            self._clock = clock
        else:
            self._clock = lambda: clock.now
            if hasattr(clock, "active_process"):
                self._task_key = lambda: clock.active_process
        return self

    def _clock_now(self) -> float:
        if self._clock is None:
            raise RuntimeError(
                "tracer has no clock: pass it to Simulator(trace=...) or "
                "call tracer.bind(sim) before opening spans")
        return self._clock()

    def _stack(self) -> List[int]:
        key = self._task_key() if self._task_key is not None else None
        stack = self._span_stacks.get(key)
        if stack is None:
            stack = self._span_stacks[key] = []
        elif not stack and len(self._span_stacks) > 8:
            # Opportunistic cleanup of stacks whose processes finished.
            self._span_stacks = {k: v for k, v in self._span_stacks.items()
                                 if v or k is key}
        return stack

    # -- recording ----------------------------------------------------------
    def record(self, time: float, kind: str, **fields: Any) -> None:
        self.records.append(TraceRecord(time, kind, fields))

    def span(self, name: str, **attrs: Any) -> Span:
        """A context manager emitting paired ``.start``/``.end`` records.

        Raises :class:`ValueError` if an attribute takes a name the span
        writes itself (``span``, ``parent``, ``duration``, ``error``);
        :meth:`Span.annotate` checks the same names.
        """
        _reject_reserved(name, attrs)
        return Span(self, name, attrs)

    def current_span(self) -> Optional[int]:
        """Id of the innermost open span of the *current* task, or None.

        This is what cross-task handoffs capture as their flow source: a
        producer stamps ``tracer.current_span()`` on the message/descriptor
        it hands off, and the consumer links that id to its own span.
        """
        stack = self._stack()
        return stack[-1] if stack else None

    def link(self, src: Any, dst: Any, kind: str = "flow") -> Optional[int]:
        """Record a causal flow edge between two spans.

        ``src``/``dst`` may be :class:`Span` objects or raw span ids; a
        ``None`` endpoint (e.g. an unstamped descriptor, or a null span's
        id) drops the edge silently so emit sites need no guards.  Emits
        one ``flow.link`` record — ``flow`` (edge id), ``src``/``dst``
        (span ids), ``edge`` (kind) — and returns the edge id.
        """
        src_id = src.span_id if isinstance(src, Span) else src
        dst_id = dst.span_id if isinstance(dst, Span) else dst
        if src_id is None or dst_id is None:
            return None
        flow_id = next(self._flow_ids)
        self.record(self._clock_now(), "flow.link",
                    flow=flow_id, src=src_id, dst=dst_id, edge=kind)
        return flow_id

    # -- retrieval ----------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceRecord]:
        return [r for r in self.records if r.kind == kind]

    def kinds(self) -> List[str]:
        return sorted({r.kind for r in self.records})

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def between(self, t0: float, t1: float, kind: Optional[str] = None) -> List[TraceRecord]:
        return [r for r in self.records if t0 <= r.time <= t1
                and (kind is None or r.kind == kind)]


class _NullSpan:
    """Shared inert span: enter/exit/annotate all no-ops."""

    __slots__ = ()

    #: Always None so a null span id stamped on a descriptor makes any
    #: later ``link()`` a silent no-op.
    span_id: Optional[int] = None

    def annotate(self, **fields: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Drop-in tracer that discards everything (the fast default).

    Mirrors the full :class:`Tracer` surface — ``records``, ``kinds()``,
    ``between()``, iteration, spans — so helpers written
    against a real tracer (``extract_phases``, exporters) run unchanged
    on an untraced simulation and simply see an empty trace.
    """

    #: Always-empty record list (shared; record() never appends).
    records: Tuple[TraceRecord, ...] = ()

    def record(self, time: float, kind: str, **fields: Any) -> None:
        pass

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def current_span(self) -> None:
        return None

    def link(self, src: Any, dst: Any, kind: str = "flow") -> None:
        return None

    def bind(self, clock: Any) -> "NullTracer":
        return self

    def of_kind(self, kind: str) -> List[TraceRecord]:
        return []

    def kinds(self) -> List[str]:
        return []

    def between(self, t0: float, t1: float, kind: Optional[str] = None) -> List[TraceRecord]:
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(())


#: Shared inert tracer: ``sim.tracer`` resolves to this when tracing is off.
NULL_TRACER = NullTracer()
