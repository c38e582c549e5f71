"""Sharded kernel unit surface: windows, mailboxes, the shards=1 path.

The conservative-sync invariants each get a direct check here: the
lookahead bounds (derive + post-time enforcement), the fixed
(deliver_time, dst, seq) drain order, same-shard mail staying in-band,
and the window loop committing time monotonically.  The determinism
suite in ``tests/test_determinism.py`` covers the byte-level claims;
this file covers the mechanism.
"""

import pytest

from repro.simulate import Tracer
from repro.simulate.core import SimulationError
from repro.simulate.shard import (
    PartitionMap,
    ShardedSimulator,
    derive_lookahead,
)


# -- lookahead derivation -----------------------------------------------------

def test_derive_lookahead_is_the_minimum():
    assert derive_lookahead([5e-6, 2e-6, 9e-6]) == 2e-6


def test_derive_lookahead_rejects_empty():
    with pytest.raises(ValueError, match="no cross-partition links"):
        derive_lookahead([])


def test_derive_lookahead_rejects_nonpositive():
    with pytest.raises(ValueError, match="must be > 0"):
        derive_lookahead([1e-6, 0.0])


# -- partition map ------------------------------------------------------------

def test_round_robin_deals_in_order():
    pm = PartitionMap.round_robin(["r0", "r1", "r2", "r3", "r4"], 2)
    assert [pm.shard_of(f"r{i}") for i in range(5)] == [0, 1, 0, 1, 0]
    assert pm.partitions_of(0) == ["r0", "r2", "r4"]
    assert len(pm) == 5 and "r3" in pm and "rX" not in pm


def test_assign_validates_shard_range():
    pm = PartitionMap(2)
    pm.assign("a", 1)
    with pytest.raises(ValueError, match="out of range"):
        pm.assign("b", 2)
    with pytest.raises(KeyError, match="unmapped partition"):
        pm.shard_of("b")


# -- constructor validation ---------------------------------------------------

def test_sharded_requires_lookahead():
    with pytest.raises(ValueError, match="requires a lookahead"):
        ShardedSimulator(shards=2)
    with pytest.raises(ValueError, match="lookahead must be > 0"):
        ShardedSimulator(shards=2, lookahead=0.0)
    with pytest.raises(ValueError, match="shards must be >= 1"):
        ShardedSimulator(shards=0)


# -- shards=1: the compatibility path -----------------------------------------

def test_single_shard_delegates_run():
    sim = ShardedSimulator()
    done = []

    def body():
        yield sim.timeout(2.0)
        done.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert done == [2.0]
    assert sim.now == 2.0
    assert sim.windows == 0  # window machinery never engaged


def test_single_shard_runs_until_event():
    sim = ShardedSimulator()
    ev = sim.event("gate")

    def body():
        yield sim.timeout(1.0)
        ev.succeed("open")
        yield sim.timeout(5.0)

    sim.spawn(body())
    sim.run(until=ev)
    assert sim.now == 1.0


# -- sharded: window loop and mailboxes ---------------------------------------

def _two_shards(lookahead=0.5, trace=None):
    return ShardedSimulator(shards=2, lookahead=lookahead, trace=trace)


def test_until_event_requires_single_shard():
    sim = _two_shards()
    ev = sim.event(shard=0)
    with pytest.raises(SimulationError, match="requires shards=1"):
        sim.run(until=ev)


def test_post_below_lookahead_is_refused():
    sim = _two_shards(lookahead=0.5)
    with pytest.raises(SimulationError, match="below the\n?.*lookahead"):
        sim.shard(0).post(1, "fast", delay=0.1)
    with pytest.raises(ValueError, match="out of range"):
        sim.shard(0).post(7, "nowhere")


def test_cross_shard_mail_arrives_at_deliver_time():
    sim = _two_shards(lookahead=0.5)
    got = []
    sim.shard(1).subscribe(lambda m: got.append((sim.shard(1).now,
                                                 m.topic, m.data)))

    def sender():
        yield sim.timeout(1.0, shard=0)
        sim.shard(0).post(1, "ping", {"n": 7})

    def keepalive():
        # Keeps shard 1's clock advancing so delivery has a live loop.
        yield sim.timeout(3.0, shard=1)

    sim.spawn(sender(), shard=0)
    sim.spawn(keepalive(), shard=1)
    sim.run()
    assert got == [(1.5, "ping", {"n": 7})]
    assert sim.mail_delivered == 1
    assert sim.windows >= 1
    assert sim.pending_mail() == 0


def test_same_shard_post_needs_no_barrier():
    sim = _two_shards(lookahead=0.5)
    got = []
    sim.shard(0).subscribe(lambda m: got.append(m.topic))

    def body():
        sim.shard(0).post(0, "local", delay=0.0)  # below lookahead: fine
        yield sim.timeout(1.0, shard=0)

    sim.spawn(body(), shard=0)
    sim.run()
    assert got == ["local"]
    assert sim.mail_delivered == 0  # never crossed the mailbox


def test_drain_is_deterministic_and_time_ordered_per_shard():
    sim = ShardedSimulator(shards=3, lookahead=1.0)
    order = []
    for i in range(3):
        sim.shard(i).subscribe(
            lambda m, i=i: order.append((m.deliver_time, i, m.topic)))

    def sender():
        # Same send time; two land at the lookahead, one later.
        sim.shard(0).post(2, "b")
        sim.shard(0).post(1, "a")
        sim.shard(0).post(1, "c", delay=2.0)
        yield sim.timeout(0.5, shard=0)

    def keep(i):
        yield sim.timeout(3.0, shard=i)

    sim.spawn(sender(), shard=0)
    for i in (1, 2):
        sim.spawn(keep(i), shard=i)
    sim.run()
    # Every message arrives exactly once, per-destination in time order.
    # (Global dispatch interleaves by window x fixed shard order, so the
    # cross-shard sequence is deterministic but not globally time-sorted.)
    assert sorted(order) == [(1.0, 1, "a"), (1.0, 2, "b"), (2.0, 1, "c")]
    shard1 = [(t, topic) for t, i, topic in order if i == 1]
    assert shard1 == [(1.0, "a"), (2.0, "c")]
    assert sim.mail_delivered == 3


def test_subscribers_run_in_registration_order():
    sim = _two_shards()
    calls = []
    sim.shard(1).subscribe(lambda m: calls.append("first"))
    sim.shard(1).subscribe(lambda m: calls.append("second"))

    def sender():
        sim.shard(0).post(1, "x")
        yield sim.timeout(0.1, shard=0)

    def keep():
        yield sim.timeout(2.0, shard=1)

    sim.spawn(sender(), shard=0)
    sim.spawn(keep(), shard=1)
    sim.run()
    assert calls == ["first", "second"]


def test_peek_sees_undelivered_mail():
    sim = _two_shards(lookahead=0.5)

    def sender():
        sim.shard(0).post(1, "late", delay=10.0)
        yield sim.timeout(0.1, shard=0)

    sim.spawn(sender(), shard=0)
    sim.run(until=1.0)
    # All events done, but the message is still pending: peek must see it.
    assert sim.pending_mail() == 1
    assert sim.peek() == 10.0


def test_run_rejects_past_horizon():
    sim = _two_shards()

    def body():
        yield sim.timeout(1.0, shard=0)

    sim.spawn(body(), shard=0)
    sim.run(until=5.0)
    assert sim.now == 5.0
    with pytest.raises(ValueError, match="in the past"):
        sim.run(until=2.0)


def test_sync_records_trace_windows():
    tracer = Tracer()
    sim = _two_shards(lookahead=0.5, trace=tracer)

    def body(i):
        yield sim.timeout(1.0, shard=i)

    for i in (0, 1):
        sim.spawn(body(i), shard=i)
    sim.run()
    syncs = [r for r in tracer.records if r.kind == "shard.sync"]
    assert len(syncs) == sim.windows >= 1
    upto = [dict(r.fields)["upto"] for r in syncs]
    assert upto == sorted(upto)


def test_aggregate_counters_sum_over_shards():
    sim = _two_shards()

    def body(i):
        yield sim.timeout(1.0 + i, shard=i)

    for i in (0, 1):
        sim.spawn(body(i), shard=i)
    assert len(sim.live_processes()) == 2
    assert sim.queue_depth() == 2
    sim.run()
    assert sim.events_processed == sum(
        s.events_processed for s in sim.shards) > 0
    assert sim.live_processes() == []
