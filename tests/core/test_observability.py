"""End-to-end observability: a traced Scenario migration replayed against
the schema registry, with metrics coverage across every layer."""

import json

import pytest

from repro.analysis import chrome_trace, extract_phases
from repro.scenario import Scenario
from repro.simulate import (
    LAYERS,
    MetricsRegistry,
    TRACE_SCHEMA,
    TelemetryProbe,
    Tracer,
    layers_covered,
    validate_trace,
)


@pytest.fixture(scope="module")
def observed():
    tracer = Tracer()
    registry = MetricsRegistry()
    sc = Scenario.build(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                        iterations=20, trace=tracer, metrics=registry)
    # The probe contributes the telemetry layer's records on a sampling
    # cadence, alongside the event-driven spans.
    sc.sim.attach_probe(TelemetryProbe())
    report = sc.run_migration("node1", at=2.0)
    # Run the app to the end so steady-state MPI traffic (msg.* records)
    # is part of the observed trace alongside the migration cycle.
    sc.run_to_completion()
    return tracer, registry, report


def test_every_record_validates_against_schema(observed):
    tracer, _, _ = observed
    assert len(tracer) > 0
    assert validate_trace(tracer) == []


def test_trace_spans_at_least_20_kinds_across_all_layers(observed):
    tracer, _, _ = observed
    kinds = set(tracer.kinds())
    assert len(kinds) >= 20, sorted(kinds)
    # The cluster layer only appears on cluster-scale runs (cluster.*
    # job records); a paper-testbed migration covers everything else.
    assert layers_covered(tracer) == set(LAYERS) - {"cluster"}


def test_schema_covers_only_known_layers():
    assert set(LAYERS) == {"framework", "pipeline", "buffer-pool",
                           "checkpoint", "network", "mpi", "ftb", "storage",
                           "flow", "telemetry", "cluster"}
    for spec in TRACE_SCHEMA.values():
        assert spec.layer in LAYERS
        assert spec.doc


def test_flow_links_emitted_at_every_cross_layer_handoff(observed):
    """A full migration emits causal edges for each handoff the
    profiler depends on, and every edge endpoint is a real span."""
    tracer, _, _ = observed
    links = tracer.of_kind("flow.link")
    edges = {rec["edge"] for rec in links}
    assert {"rdma.pull", "reassembly", "image.ready",
            "ftb.event", "barrier"} <= edges, edges
    span_ids = {rec["span"] for rec in tracer
                if rec.kind.endswith(".start") and rec.get("span") is not None}
    for rec in links:
        assert rec["src"] in span_ids, rec
        assert rec["dst"] in span_ids, rec
    # New span kinds ride along in the same migration.
    for kind in ("pool.reassemble.start", "rank.stall.end",
                 "rank.resume.end", "ftb.deliver.start"):
        assert tracer.of_kind(kind), f"missing {kind}"


def test_phase_spans_match_report(observed):
    tracer, _, report = observed
    intervals = extract_phases(tracer)
    assert [iv.name for iv in intervals] == [
        "Job Stall", "Job Migration", "Restart", "Resume"]
    by_name = {iv.name: iv.duration for iv in intervals}
    for phase, seconds in report.phase_seconds.items():
        assert by_name[phase.value] == pytest.approx(seconds)
    # migration span carries the total and parents the phase spans —
    # directly for Stall/Resume, through the ``pipeline.run`` span for
    # the Migration/Restart phases the pipeline owns.
    mig = tracer.of_kind("migration.start")[0]
    end = tracer.of_kind("migration.end")[0]
    assert end["total"] == pytest.approx(report.total_seconds)
    run = tracer.of_kind("pipeline.run.start")[0]
    assert run["parent"] == mig["span"]
    for rec in tracer.of_kind("phase.start"):
        if rec["phase"] in ("Job Migration", "Restart"):
            assert rec["parent"] == run["span"]
        else:
            assert rec["parent"] == mig["span"]


def test_metrics_cover_every_layer(observed):
    _, registry, report = observed
    names = set(registry.names())
    for expected in ("qp.wqe.posted", "qp.wqe.completed",
                     "qp.rdma_read.bytes", "pool.fill.bytes",
                     "pool.chunk.fill_seconds", "pool.occupancy",
                     "ftb.published", "ftb.delivered",
                     "fluid.recompute.component_flows",
                     "disk.bytes_written", "blcr.bytes_scanned",
                     "eth.bytes_sent", "ib.bytes_moved"):
        assert expected in names, f"missing {expected}"
    # Byte accounting agrees with the report.
    pulled = registry.get("pool.pull.bytes").value
    assert pulled == report.bytes_migrated
    assert registry.get("blcr.bytes_scanned").value == report.bytes_migrated


def test_chrome_trace_from_scenario_round_trips(observed):
    tracer, registry, _ = observed
    doc = chrome_trace(tracer, metrics=registry)
    text = json.dumps(doc, default=str)
    loaded = json.loads(text)
    events = loaded["traceEvents"]
    assert events
    phs = {e["ph"] for e in events}
    assert {"X", "C", "M"} <= phs
    # Spans nest: every X event with a parent arg closes inside it.
    assert any(e["ph"] == "X" and e["name"].startswith("phase:")
               for e in events)


def test_untraced_scenario_still_runs():
    sc = Scenario.build(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                        iterations=20)
    report = sc.run_migration("node1", at=2.0)
    assert report.total_seconds > 0
