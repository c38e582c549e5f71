"""Registry of trace-record kinds: the observability contract.

Every ``kind`` a component may emit is declared here with the layer it
belongs to and the fields a record of that kind must carry.  The registry
serves three purposes:

* **documentation** — ``docs/observability.md`` renders from this table,
  so the written schema cannot drift from the checked one;
* **validation** — :func:`validate_record` / :func:`validate_trace` let
  tests replay a full scenario and assert every record is well-formed;
* **coverage** — :func:`layers_covered` reports which subsystems a trace
  actually touched (the integration test requires one record from every
  layer during a migration).

Span kinds are declared once by base name via :data:`SPAN_KINDS`; their
``.start``/``.end`` variants are derived (both require ``span``, the end
additionally ``duration``).  Fields listed here are *required*; extra
fields are always allowed — the schema is a floor, not a straitjacket.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from .trace import TraceRecord

__all__ = ["KindSpec", "TRACE_SCHEMA", "SPAN_KINDS", "validate_record",
           "validate_trace", "validate_emitters", "layers_covered", "LAYERS"]


class KindSpec:
    """One kind's contract: owning layer + required field names."""

    __slots__ = ("kind", "layer", "required", "doc")

    def __init__(self, kind: str, layer: str, required: Tuple[str, ...],
                 doc: str):
        self.kind = kind
        self.layer = layer
        self.required = required
        self.doc = doc

    def __repr__(self) -> str:
        return f"<KindSpec {self.kind} [{self.layer}] {self.required}>"


#: Span base-names -> (layer, required attrs on both records, doc).
SPAN_KINDS: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "migration": ("framework", ("source", "target", "reason"),
                  "One full four-phase migration cycle."),
    "phase": ("framework", ("phase",),
              "One migration/CR phase (STALL/MIGRATION/RESTART/RESUME)."),
    "migration.rdma_pull": ("buffer-pool", ("seq", "proc", "node", "src",
                                            "rkey"),
                            "Target-side RDMA Read of one pool chunk."),
    "blcr.checkpoint": ("checkpoint", ("proc", "node", "incremental"),
                        "BLCR scan+stream of one process image."),
    "blcr.restart": ("checkpoint", ("mode", "proc", "node"),
                     "Rebuild of one process from file/chain/memory."),
    "nla.restart": ("framework", ("node", "mode", "procs"),
                    "NLA restarting all migrated processes on a spare."),
    "pool.reassemble": ("buffer-pool", ("proc", "node"),
                        "Spare-side reassembly of one process image from "
                        "pulled chunks."),
    "rank.stall": ("framework", ("rank", "node"),
                   "One rank suspending and draining its channels."),
    "rank.resume": ("framework", ("rank", "node"),
                    "One rank re-establishing connections and resuming."),
    "ftb.deliver": ("ftb", ("node", "event", "client"),
                    "An agent delivering an event to a subscription."),
    "pipeline.run": ("pipeline", ("source", "target", "transport", "sink"),
                     "One staged-pipeline execution: checkpoint source, "
                     "transport, reassembly sink and restart stage."),
    "pipeline.restart": ("pipeline", ("proc", "node", "mode"),
                         "Pipelined restart of one process the moment its "
                         "image completed (memory sink)."),
}

#: Point-event kinds -> (layer, required fields, doc).
_EVENT_KINDS: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "spawn": ("framework", ("name",), "A simulation process started."),
    "session.setup": ("buffer-pool",
                      ("source", "target", "chunks", "pool_bytes",
                       "expected_procs"),
                      "RDMA migration session established (MRs + QPs)."),
    "session.teardown": ("buffer-pool",
                         ("source", "target", "bytes", "chunks"),
                         "Session closed; resources released."),
    "pool.chunk.fill": ("buffer-pool",
                        ("seq", "proc", "nbytes", "node", "wait",
                         "pool_offset"),
                        "Source-side writer filled one pool chunk."),
    "pool.chunk.release": ("buffer-pool", ("pool_offset", "node"),
                           "Source freed a pool slot after the pull."),
    "pool.proc.complete": ("buffer-pool", ("proc", "node", "nbytes"),
                           "All chunks of one process reassembled."),
    "qp.complete": ("network", ("cq", "opcode", "ok", "nbytes"),
                    "A work completion landed in a CQ."),
    "qp.connect": ("network", ("qp", "peer", "node", "peer_node"),
                   "QP pair transitioned to RTS."),
    "qp.destroy": ("network", ("qp", "node"), "QP torn down."),
    "mr.register": ("network", ("node", "nbytes", "rkey", "name"),
                    "Memory region pinned and registered."),
    "mr.deregister": ("network", ("node", "rkey", "name"),
                      "Memory region released."),
    "ib.move": ("network", ("src", "dst", "nbytes", "op"),
                "Bytes crossing the IB fabric (any verb)."),
    "fluid.recompute": ("network", ("flows", "links", "components"),
                        "Max-min rate recomputation of one component."),
    "eth.transfer": ("network", ("src", "dst", "nbytes"),
                     "TCP-style transfer on the GigE fabric."),
    "ftb.publish": ("ftb", ("node", "client", "event", "severity"),
                    "A client injected an event into the backplane."),
    "ftb.dedup": ("ftb", ("node", "event", "event_id"),
                  "An agent dropped an already-seen event id."),
    "ftb.forward": ("ftb", ("src", "dst", "event", "nbytes"),
                    "An agent flooded an event to a tree neighbour."),
    "disk.write": ("storage", ("node", "nbytes"),
                   "Streaming write to a local platter."),
    "disk.read": ("storage", ("node", "nbytes"),
                  "Cold streaming read from a local platter."),
    "disk.sync": ("storage", ("node",), "One serialized journal commit."),
    "fs.create": ("storage", ("node", "path"), "Local file created."),
    "fs.write": ("storage", ("node", "path", "nbytes", "cached"),
                 "Local file write (cached or direct)."),
    "fs.close": ("storage", ("node", "path", "nbytes", "synced"),
                 "Local file closed (optionally fsync'd)."),
    "pvfs.write": ("storage", ("client", "path", "nbytes", "stripes"),
                   "Striped write across the PVFS servers."),
    "pvfs.read": ("storage", ("client", "path", "nbytes", "stripes"),
                  "Striped read from the PVFS servers."),
    "msg.send": ("mpi", ("src", "dst", "nbytes", "flush"),
                 "One MPI point-to-point message leaving a rank."),
    "msg.recv": ("mpi", ("src", "dst", "nbytes", "flush"),
                 "One MPI point-to-point message arriving at a rank."),
    "flow.link": ("flow", ("flow", "src", "dst", "edge"),
                  "Causal edge between two spans across a task boundary "
                  "(chunk fill->pull, publish->deliver, image->restart, "
                  "stall->resume)."),
    "pipeline.proc.ready": ("pipeline", ("proc", "node", "sink"),
                            "One process's image finished reassembling in "
                            "the pipeline's sink (restart may begin)."),
    "telemetry.sample": ("telemetry", ("metric", "value"),
                         "One cadenced probe sample: the named time-series "
                         "(kernel counter or metric instrument) observed at "
                         "this sim time."),
    "cluster.job.launch": ("cluster", ("job", "rack", "nodes"),
                          "A cluster-scale job began executing on its "
                          "rack's node allocation."),
    "cluster.job.complete": ("cluster",
                             ("job", "rack", "migrations", "rollbacks"),
                             "A cluster-scale job finished all its work."),
    "cluster.job.migrate": ("cluster", ("job", "node", "spare", "mode"),
                            "A predicted failure moved one of a job's "
                            "nodes onto a spare (``mode`` local: the job's "
                            "own rack; remote: borrowed over the rack "
                            "ring)."),
    "cluster.node.fail": ("cluster", ("node", "rack", "predicted"),
                          "A compute node failed (predicted failures give "
                          "the job a migration window first)."),
    "cluster.ckpt": ("cluster", ("job", "rack", "nbytes"),
                     "One coordinated checkpoint: every job node streamed "
                     "its image to the rack store."),
    "cluster.spare.request": ("cluster", ("job", "src", "dst"),
                              "A job whose rack pool is empty starts a "
                              "spare walk around the rack ring: ``src`` "
                              "is its rack, ``dst`` the first rack asked."),
    "cluster.spare.restart": ("cluster", ("job", "node", "src", "dst"),
                              "A process restarted on a spare borrowed "
                              "from another rack: ``src`` is the job's "
                              "rack, ``dst`` the rack that granted it."),
}


def _build_schema() -> Dict[str, KindSpec]:
    schema: Dict[str, KindSpec] = {}
    for kind, (layer, required, doc) in _EVENT_KINDS.items():
        schema[kind] = KindSpec(kind, layer, required, doc)
    for base, (layer, attrs, doc) in SPAN_KINDS.items():
        schema[f"{base}.start"] = KindSpec(
            f"{base}.start", layer, ("span",) + attrs, f"{doc} (span open)")
        schema[f"{base}.end"] = KindSpec(
            f"{base}.end", layer, ("span", "duration") + attrs,
            f"{doc} (span close)")
    return schema


#: kind -> KindSpec, the complete contract.
TRACE_SCHEMA: Dict[str, KindSpec] = _build_schema()

#: Every subsystem with at least one declared kind.
LAYERS: Tuple[str, ...] = tuple(sorted(
    {spec.layer for spec in TRACE_SCHEMA.values()}))


def validate_record(rec: TraceRecord) -> List[str]:
    """Problems with one record (empty list == valid).

    Unknown kinds are an error: anything a component emits must be
    declared in the schema, or the documented contract silently rots.
    """
    spec = TRACE_SCHEMA.get(rec.kind)
    if spec is None:
        return [f"undeclared kind {rec.kind!r}"]
    present = {k for k, _ in rec.fields}
    missing = [f for f in spec.required if f not in present]
    return [f"{rec.kind}: missing required field {f!r}" for f in missing]


def validate_trace(trace: Iterable[TraceRecord],
                   max_problems: int = 50) -> List[str]:
    """All problems across a trace, capped at ``max_problems``."""
    problems: List[str] = []
    for rec in trace:
        problems.extend(validate_record(rec))
        if len(problems) >= max_problems:
            problems.append("... (truncated)")
            break
    return problems


def layers_covered(trace: Iterable[TraceRecord]) -> Set[str]:
    """Which declared layers the trace has at least one record from."""
    return {TRACE_SCHEMA[rec.kind].layer for rec in trace
            if rec.kind in TRACE_SCHEMA}


def validate_emitters(emitted: Iterable[str]) -> List[str]:
    """Cross-check the set of kinds code actually emits against the schema.

    ``emitted`` is the collection of kind strings found at emit sites —
    literal ``record(kind=...)`` arguments plus ``span(name)`` base names
    (a span base counts as emitting both its ``.start`` and ``.end``).
    Returns problem strings for (a) emitted kinds the schema does not
    declare and (b) declared kinds no code emits.  Used by ``repro lint``
    and the schema tests so the registry can neither rot ahead of nor
    behind the code.
    """
    emitted_kinds: Set[str] = set()
    for name in emitted:
        if name in SPAN_KINDS:
            emitted_kinds.add(f"{name}.start")
            emitted_kinds.add(f"{name}.end")
        else:
            emitted_kinds.add(name)
    problems = [f"emitted kind {k!r} is not declared in TRACE_SCHEMA"
                for k in sorted(emitted_kinds - set(TRACE_SCHEMA))]
    problems.extend(
        f"declared kind {k!r} has no emitter in the codebase"
        for k in sorted(set(TRACE_SCHEMA) - emitted_kinds))
    return problems
