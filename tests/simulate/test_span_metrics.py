"""Span API, metrics registry, and NullTracer parity."""

import pytest

from repro.analysis import telemetry_series
from repro.simulate import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NULL_TRACER,
    NullTracer,
    Simulator,
    TelemetryProbe,
    Tracer,
)


# ---------------------------------------------------------------------------
# Span API
# ---------------------------------------------------------------------------

def test_span_emits_paired_records_with_duration():
    t = Tracer()
    clock = [0.0]
    t.bind(lambda: clock[0])
    with t.span("op", rank=3) as sp:
        clock[0] = 2.5
        sp.annotate(nbytes=100)
    starts = t.of_kind("op.start")
    ends = t.of_kind("op.end")
    assert len(starts) == len(ends) == 1
    assert starts[0]["rank"] == 3
    assert starts[0]["span"] == ends[0]["span"]
    assert ends[0]["nbytes"] == 100
    assert ends[0]["duration"] == pytest.approx(2.5)


def test_span_nesting_sets_parent():
    t = Tracer(clock=lambda: 0.0)
    with t.span("outer"):
        with t.span("inner"):
            pass
    outer = t.of_kind("outer.start")[0]
    inner = t.of_kind("inner.start")[0]
    assert outer.get("parent") is None
    assert inner["parent"] == outer["span"]
    # After both closed, a new span is top-level again.
    with t.span("after"):
        pass
    assert t.of_kind("after.start")[0].get("parent") is None


def test_span_error_still_closes():
    t = Tracer(clock=lambda: 1.0)
    with pytest.raises(RuntimeError):
        with t.span("fragile"):
            raise RuntimeError("boom")
    end = t.of_kind("fragile.end")[0]
    assert "boom" in end["error"]


def test_annotate_after_close_raises():
    t = Tracer(clock=lambda: 0.0)
    with t.span("op") as sp:
        sp.annotate(ok=1)  # fine while open
    with pytest.raises(RuntimeError, match="closed span 'op'"):
        sp.annotate(late=1)
    # The late annotation must not have leaked into the emitted record.
    end = t.of_kind("op.end")[0]
    assert end.get("late") is None
    assert end["ok"] == 1


@pytest.mark.parametrize("field", ["span", "parent", "duration", "error"])
def test_span_identity_fields_are_reserved(field):
    """An attribute or annotation named like a field the span writes
    itself would overwrite its id (unmatching .start/.end), forge its
    parent, or replace its duration or error."""
    t = Tracer(clock=lambda: 0.0)
    with pytest.raises(ValueError, match=f"'{field}'"):
        t.span("b", **{field: 7})
    with t.span("outer"):
        with pytest.raises(ValueError, match=f"'{field}'"):
            t.span("nested", **{field: 7})
        with t.span("a") as sp:
            with pytest.raises(ValueError, match=f"'{field}'"):
                sp.annotate(ok=1, **{field: 99})
    end = t.of_kind("a.end")[0]
    assert end["span"] == t.of_kind("a.start")[0]["span"]
    assert end["parent"] == t.of_kind("outer.start")[0]["span"]
    assert end["duration"] == 0.0
    assert end.get("error") is None and end.get("ok") is None
    assert not t.of_kind("b.start") and not t.of_kind("nested.start")


def test_current_span_and_link():
    t = Tracer(clock=lambda: 0.0)
    assert t.current_span() is None
    with t.span("producer") as src:
        assert t.current_span() == src.span_id
        src_id = t.current_span()
    with t.span("consumer") as dst:
        flow = t.link(src_id, dst, "handoff")
    assert flow == 1
    rec = t.of_kind("flow.link")[0]
    assert rec["src"] == src.span_id
    assert rec["dst"] == dst.span_id
    assert rec["edge"] == "handoff"
    # Flow ids are unique per tracer.
    with t.span("again") as sp:
        assert t.link(src_id, sp, "handoff") == 2


def test_link_with_missing_endpoint_is_noop():
    t = Tracer(clock=lambda: 0.0)
    with t.span("only") as sp:
        pass
    assert t.link(None, sp, "x") is None
    assert t.link(sp, None, "x") is None
    assert t.of_kind("flow.link") == []
    # NullTracer parity: link/current_span exist and return None.
    assert NULL_TRACER.current_span() is None
    with NULL_TRACER.span("a") as a, NULL_TRACER.span("b") as b:
        assert NULL_TRACER.link(a, b, "x") is None


def test_span_without_clock_raises():
    t = Tracer()
    with pytest.raises(RuntimeError):
        with t.span("op"):
            pass


def test_concurrent_coroutines_get_independent_stacks():
    """Interleaved sim processes must not parent each other's spans."""
    sim = Simulator()
    tracer = Tracer()
    sim.trace = tracer

    def worker(sim, label, delay):
        with tracer.span("job", label=label):
            yield sim.timeout(delay)
            with tracer.span("step", label=label):
                yield sim.timeout(delay)

    sim.spawn(worker(sim, "a", 1.0))
    sim.spawn(worker(sim, "b", 1.5))
    sim.run()
    jobs = {r["label"]: r["span"] for r in tracer.of_kind("job.start")}
    for step in tracer.of_kind("step.start"):
        assert step["parent"] == jobs[step["label"]]


def test_simulator_binds_tracer_clock():
    sim = Simulator(start=4.0, trace=Tracer())

    def run(sim):
        with sim.tracer.span("tick"):
            yield sim.timeout(1.0)

    sim.run(until=sim.spawn(run(sim)))
    assert sim.trace.of_kind("tick.start")[0].time == 4.0
    assert sim.trace.of_kind("tick.end")[0].time == 5.0


# ---------------------------------------------------------------------------
# NullTracer parity
# ---------------------------------------------------------------------------

def test_null_tracer_full_surface_parity():
    real, null = Tracer(clock=lambda: 0.0), NullTracer()
    for api in ("record", "span", "bind", "of_kind", "kinds",
                "between", "records", "__len__", "__iter__"):
        assert hasattr(null, api), f"NullTracer missing {api}"
    # Same call patterns, empty results.
    null.record(0.0, "k", a=1)
    with null.span("op", rank=1) as sp:
        sp.annotate(n=2)
    assert null.bind(object()) is null
    assert list(null) == []
    assert len(null) == 0
    assert null.records == ()
    assert null.kinds() == real.kinds() == []
    assert null.of_kind("k") == []
    assert null.between(0.0, 1.0) == []
    assert null.between(0.0, 1.0, kind="k") == []


def test_null_tracer_spans_run_without_clock():
    sim = Simulator()  # untraced: sim.tracer is the shared NULL_TRACER
    assert sim.tracer is NULL_TRACER

    def run(sim):
        with sim.tracer.span("anything", deep=True):
            yield sim.timeout(1.0)

    sim.run(until=sim.spawn(run(sim)))
    assert sim.now == 1.0


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

def _probed(body):
    """Run the process ``body(sim)`` under a 1 s telemetry probe; the
    probe samples each boundary before that instant's events run.
    Returns the registry and the sampled ``{name: points}`` series."""
    m = MetricsRegistry()
    tracer = Tracer()
    sim = Simulator(trace=tracer, metrics=m)
    sim.attach_probe(TelemetryProbe(interval=1.0))
    sim.run(until=sim.spawn(body(sim)))
    return m, telemetry_series(tracer)


def test_counter_monotonic_and_sampled():
    def body(sim):
        c = sim.metrics.counter("bytes", unit="B")
        c.inc(10)
        yield sim.timeout(1.0)
        c.inc(5)
        yield sim.timeout(1.0)

    m, series = _probed(body)
    c = m.counter("bytes")
    assert c.value == 15
    assert series["bytes"] == [(1.0, 10.0), (2.0, 15.0)]
    assert m.as_dict()["bytes"]["unit"] == "B"
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_inc_dec():
    def body(sim):
        g = sim.metrics.gauge("depth")
        g.set(4)
        yield sim.timeout(1.0)
        g.inc()
        yield sim.timeout(1.0)
        g.dec(2)
        yield sim.timeout(1.0)

    m, series = _probed(body)
    assert m.gauge("depth").value == 3
    assert [v for _, v in series["depth"]] == [4, 5, 3]


def test_histogram_buckets_and_time_series():
    m = MetricsRegistry()
    h = m.histogram("lat", buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count == 3
    assert h.mean == pytest.approx((0.5 + 5.0 + 50.0) / 3)
    assert h.bucket_counts == [1, 1, 1]  # <=1, <=10, overflow
    d = h.as_dict()
    assert d["min"] == 0.5 and d["max"] == 50.0
    # The telemetry probe is the one time-series source.
    assert "series" not in d


def test_histogram_observation_on_bucket_bound():
    """A value exactly on an upper bound falls into the NEXT bucket.

    ``bisect_right`` gives exclusive upper bounds: bucket i holds
    ``bounds[i-1] <= v < bounds[i]``.  This pins that behaviour so a
    refactor to ``bisect_left`` (inclusive bounds) trips a test instead
    of silently shifting every boundary observation.
    """
    h = MetricsRegistry().histogram(
        "lat", buckets=(1.0, 10.0))
    h.observe(0.999)   # below first bound -> bucket 0
    h.observe(1.0)     # exactly on first bound -> bucket 1
    h.observe(10.0)    # exactly on last bound -> overflow bucket
    assert h.bucket_counts == [1, 1, 1]
    d = h.as_dict()
    assert d["buckets"] == [{"le": 1.0, "count": 1},
                            {"le": 10.0, "count": 1},
                            {"le": "inf", "count": 1}]


def test_empty_histogram_summary():
    h = MetricsRegistry().histogram("empty")
    assert h.count == 0
    assert h.mean == 0.0
    d = h.as_dict()
    assert d["count"] == 0 and d["sum"] == 0.0
    # min/max are omitted rather than reported as +/-inf.
    assert "min" not in d and "max" not in d
    assert d["buckets"] == []


def test_registry_get_or_create_and_kind_conflict():
    m = MetricsRegistry()
    assert m.counter("x") is m.counter("x")
    with pytest.raises(TypeError):
        m.gauge("x")
    assert m.names() == ["x"]
    assert len(m) == 1
    assert isinstance(m.as_dict()["x"], dict)


def test_histogram_validation():
    m = MetricsRegistry()
    with pytest.raises(ValueError):
        m.histogram("bad", buckets=(2.0, 1.0))


def test_null_metrics_is_inert():
    assert not NULL_METRICS.enabled
    c = NULL_METRICS.counter("x")
    c.inc(5)
    NULL_METRICS.gauge("g").set(1)
    NULL_METRICS.histogram("h").observe(2)
    assert c.value == 0.0
    assert NULL_METRICS.as_dict() == {}
    assert NULL_METRICS.get("x") is None
    assert len(NULL_METRICS) == 0


def test_simulator_attaches_metrics_registry():
    m = MetricsRegistry()
    tracer = Tracer()
    sim = Simulator(trace=tracer, metrics=m)
    assert sim.metrics is m

    sim.attach_probe(TelemetryProbe(interval=1.0))

    def run(sim):
        yield sim.timeout(3.0)
        sim.metrics.counter("ticks").inc()
        yield sim.timeout(1.0)

    sim.run(until=sim.spawn(run(sim)))
    assert m.counter("ticks").value == 1.0
    assert telemetry_series(tracer)["ticks"] == [(4.0, 1.0)]


def test_untraced_simulator_uses_null_registry():
    sim = Simulator()
    assert sim.metrics is NULL_METRICS
    assert isinstance(Counter, type) and isinstance(Gauge, type) \
        and isinstance(Histogram, type)
