"""Tests for Tracer/NullTracer details and kernel odds and ends."""

import pytest

from repro.simulate import (
    Event,
    NullTracer,
    Simulator,
    SimulationError,
    Store,
    TraceRecord,
    Tracer,
)
from repro.analysis import read_jsonl, write_jsonl


def test_null_tracer_is_inert():
    t = NullTracer()
    t.record(0.0, "x", a=1)
    assert len(t) == 0
    assert t.of_kind("x") == []


def test_tracer_of_kind_isolated_copies():
    t = Tracer()
    t.record(0.0, "a", v=1)
    t.record(1.0, "b")
    t.record(2.0, "a", v=2)
    rows = t.of_kind("a")
    assert [r["v"] for r in rows] == [1, 2]
    rows.clear()
    assert len(t.of_kind("a")) == 2  # internal state untouched


def test_tracer_between_kind_filter():
    t = Tracer()
    for i in range(5):
        t.record(float(i), "tick", i=i)
    assert [r["i"] for r in t.between(1.0, 3.0, kind="tick")] == [1, 2, 3]
    assert t.between(1.0, 3.0, kind="other") == []


def test_record_keeps_field_order_and_values():
    t = Tracer()
    t.record(1.5, "op", z=1, a="x", m=[2, 3], n=None)
    rec = t.records[0]
    assert list(rec.fields) == ["z", "a", "m", "n"]
    assert rec.as_dict() == {"t": 1.5, "kind": "op", "z": 1, "a": "x",
                             "m": [2, 3], "n": None}
    assert list(rec.as_dict()) == ["t", "kind", "z", "a", "m", "n"]


def test_record_lookups_equality_and_hash_agree():
    t = Tracer()
    t.record(1.0, "op", a=1, b=2)
    t.record(1.0, "op", a=1, b=2)
    t.record(1.0, "op", b=2, a=1)
    t.record(1.0, "op", a=1, b=3)
    same, twin, reordered, other = t.records
    for key in ("a", "b"):
        assert same[key] == same.get(key) == same.as_dict()[key]
    assert same.get("missing") is None and same.get("missing", 5) == 5
    with pytest.raises(KeyError):
        same["missing"]
    assert same == twin and hash(same) == hash(twin)
    assert len({same, twin}) == 1
    # Equality is over the ordered (key, value) sequence, as a tuple of
    # items compares: the same fields in another order are another record.
    assert same != reordered
    assert same != other
    assert same != TraceRecord(2.0, "op", {"a": 1, "b": 2})
    assert same != TraceRecord(1.0, "op2", {"a": 1, "b": 2})


def test_records_from_one_emit_site_do_not_share_fields():
    t = Tracer()
    for i in range(3):
        t.record(float(i), "tick", i=i)
    first, second, third = t.records
    assert first.fields is not second.fields
    assert second.fields is not third.fields
    assert [r["i"] for r in t.records] == [0, 1, 2]
    # An exported copy is not the record's own dict.
    row = first.as_dict()
    row["i"] = 99
    assert first["i"] == 0


@pytest.mark.parametrize("name", ["trace.jsonl", "trace.jsonl.gz"])
def test_jsonl_round_trip_gives_equal_records(tmp_path, name):
    t = Tracer()
    t.record(0.0, "op", a=1, b="two", c=[1, 2], d={"k": 1.5}, e=None)
    t.record(0.25, "op", ok=True)
    t.record(1.0, "empty")
    path = str(tmp_path / name)
    assert write_jsonl(t, path) == 3
    back = read_jsonl(path)
    assert back.records == t.records
    assert [list(r.fields) for r in back] == [list(r.fields) for r in t]


def test_succeed_later_validation():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(ValueError):
        ev.succeed_later(None, delay=-1.0)
    ev.succeed_later("v", delay=2.0)
    with pytest.raises(SimulationError):
        ev.succeed(1)  # already triggered

    def waiter(sim):
        return (yield ev)

    p = sim.spawn(waiter(sim))
    sim.run()
    assert p.value == "v"
    assert sim.now == 2.0


def test_store_cancel_pending_get():
    sim = Simulator()
    store = Store(sim)
    ev = store.get()
    store.cancel(ev)
    store.put("item")

    def consumer(sim):
        return (yield store.get())

    p = sim.spawn(consumer(sim))
    sim.run()
    # The cancelled getter never stole the item.
    assert p.value == "item"
    assert not ev.triggered


def test_store_cancel_after_grant_is_noop():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    ev = store.get()
    assert ev.triggered
    store.cancel(ev)  # no-op; the item already belongs to the caller
    assert ev.value == "x"


def test_event_repr_and_value_guards():
    sim = Simulator()
    ev = Event(sim, name="probe")
    assert "probe" in repr(ev)
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok
    ev.fail(RuntimeError("x"))
    ev.defuse()
    assert not ev.ok
    with pytest.raises(TypeError):
        Event(sim).fail("not-an-exception")


def test_trigger_copies_state():
    sim = Simulator()
    src_ok = sim.event()
    src_ok.succeed(41)
    dst = sim.event()
    dst.trigger(src_ok)
    assert dst.value == 41
    src_bad = sim.event()
    src_bad.fail(RuntimeError("boom"))
    src_bad.defuse()
    dst2 = sim.event()
    dst2.trigger(src_bad)
    dst2.defuse()
    assert not dst2.ok
    sim.run()
