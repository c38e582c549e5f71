"""Tests for the C/R channel protocol: suspend, drain, teardown, resume.

This machinery is Phase 1 / Phase 4 of the paper's migration cycle and the
consistency foundation of the whole design, so it gets adversarial tests:
suspensions landing mid-compute, mid-recv, and with traffic in flight.
"""

import pytest

from repro.cluster import Cluster
from repro.mpi import MPIJob
from repro.mpi.message import Message
from repro.network.qp import QPState
from repro.simulate import Simulator


def make_job(nprocs=4, n_compute=2):
    sim = Simulator()
    cluster = Cluster(sim, n_compute=n_compute, n_spare=1)
    job = MPIJob(sim, cluster, nprocs)
    return sim, cluster, job


def suspend_all(sim, job, at):
    """Coordinator that suspends every rank at ``at`` and returns the
    all-drained process."""

    def sweep(sim):
        yield sim.timeout(at)
        drains = [sim.spawn(rk.controller.suspend_and_drain(),
                            name=f"drain.{rk.rank}") for rk in job.ranks]
        yield sim.all_of(drains)
        return sim.now

    return sim.spawn(sweep(sim), name="suspend-sweep")


def resume_all(sim, job, after_proc):
    def sweep(sim):
        yield after_proc
        for rk in job.ranks:
            yield from rk.controller.reestablish()
        for rk in job.ranks:
            rk.controller.release()

    return sim.spawn(sweep(sim), name="resume-sweep")


def test_drain_leaves_no_inflight_and_kills_endpoints():
    sim, cluster, job = make_job()
    # Constant chatter between ranks 0 and 2.
    def app(rank):
        for i in range(200):
            if rank.rank == 0:
                yield from rank.send(2, 32768, tag=i)
            elif rank.rank == 2:
                yield from rank.recv(src=0, tag=i)
            else:
                yield from rank.compute(0.0005)

    job.start(app)
    drained = suspend_all(sim, job, at=0.02)
    sim.run(until=drained)
    for rk in job.ranks:
        assert rk.channels.established() == {}
        assert rk.incoming == {}
        for chan in rk.channels.outgoing.values():
            assert chan.pending_sends == 0
    # QPs are destroyed: any that existed are no longer RTS.
    # (channels dict cleared, so inspect via drain stats instead)
    stats = job.rank_obj(0).controller.drain_stats
    assert stats["channels_flushed"] >= 1


def test_suspension_freezes_compute_and_resumes_remainder():
    sim, cluster, job = make_job(nprocs=2, n_compute=2)
    done_at = {}

    def app(rank):
        yield from rank.compute(1.0)
        done_at[rank.rank] = rank.sim.now

    job.start(app)
    drained = suspend_all(sim, job, at=0.4)

    def resume_later(sim):
        yield drained
        yield sim.timeout(5.0)  # hold suspended for 5 s
        for rk in job.ranks:
            rk.controller.release()

    sim.spawn(resume_later(sim))
    sim.run(until=job.completion())
    # 0.4 s computed, then ~5 s frozen, then 0.6 s remainder.
    for t in done_at.values():
        assert t == pytest.approx(0.4 + 5.0 + 0.6 + (sim.now - t) * 0, abs=0.2)


def test_suspension_mid_recv_does_not_lose_messages():
    sim, cluster, job = make_job()
    got = []

    def app(rank):
        if rank.rank == 0:
            for i in range(50):
                yield from rank.send(2, 1024, tag="stream", payload=i)
        elif rank.rank == 2:
            for _ in range(50):
                msg = yield from rank.recv(src=0, tag="stream")
                got.append(msg.payload)
        else:
            yield from rank.compute(0.001)

    job.start(app)
    drained = suspend_all(sim, job, at=0.003)
    resume_all(sim, job, drained)
    sim.run(until=job.completion())
    assert got == list(range(50))


def test_recv_posted_before_migration_completes_on_spare():
    """A receive posted on a rank that then migrates completes on the
    spare, with the message sent after the migration."""
    from repro import Scenario

    sc = Scenario.build(app="LU.C", nprocs=4, n_compute=2, n_spare=1,
                        iterations=2, start_app=False)
    got = {}

    def app(rank):
        if rank.rank == 0:
            yield from rank.compute(3.0)   # past the migration window
            yield from rank.send(2, 1024, tag="late", payload="post-mig")
        elif rank.rank == 2:
            msg = yield from rank.recv(src=0, tag="late")
            got["payload"] = msg.payload
            got["node"] = rank.node.name
        else:
            yield from rank.compute(0.05)

    sc.job.start(app)
    sc.run_migration("node1", at=0.5)   # rank 2 migrates while waiting
    sc.sim.run(until=sc.job.completion())
    assert got == {"payload": "post-mig", "node": "spare0"}


def test_collective_in_flight_survives_suspension():
    sim, cluster, job = make_job(nprocs=8, n_compute=2)
    results = {}

    def app(rank):
        yield from rank.compute(0.002 * (rank.rank + 1))
        out = yield from rank.allreduce(rank.rank, lambda a, b: a + b)
        results[rank.rank] = out

    job.start(app)
    drained = suspend_all(sim, job, at=0.004)  # mid-collective
    resume_all(sim, job, drained)
    sim.run(until=job.completion())
    assert all(v == 28 for v in results.values())


def test_double_suspend_rejected():
    sim, cluster, job = make_job(nprocs=2, n_compute=2)

    def app(rank):
        yield from rank.compute(10)

    job.start(app)

    def sweep(sim):
        yield sim.timeout(1)
        rk = job.rank_obj(0)
        yield from rk.controller.suspend_and_drain()
        with pytest.raises(RuntimeError):
            yield from rk.controller.suspend_and_drain()
        rk.controller.release()
        job.rank_obj(1).controller.release()  # never suspended: no-op
        return True

    p = sim.spawn(sweep(sim))
    sim.run(until=job.completion())
    assert p.value is True


def test_reestablish_rebuilds_previous_peers():
    sim, cluster, job = make_job()

    def app(rank):
        if rank.rank == 0:
            yield from rank.send(2, 64, tag="a")
            yield from rank.send(3, 64, tag="a")
        elif rank.rank in (2, 3):
            yield from rank.recv(src=0, tag="a")
        else:
            yield rank.sim.timeout(0)

    job.start(app)

    def sweep(sim):
        yield job.completion()
        r0 = job.rank_obj(0)
        yield from r0.controller.suspend_and_drain()
        assert r0.channels.established() == {}
        yield from r0.controller.reestablish()
        r0.controller.release()
        chans = r0.channels.established()
        return set(chans)

    p = sim.spawn(sweep(sim))
    sim.run()
    assert p.value == {2, 3}
    for chan in job.rank_obj(0).channels.established().values():
        assert chan.qp_src.state is QPState.RTS


def test_drain_time_is_small():
    """Phase 1 must complete in tens of milliseconds (paper Sec. IV-A)."""
    sim, cluster, job = make_job(nprocs=8, n_compute=2)

    def app(rank):
        for i in range(1000):
            peer = (rank.rank + 1) % 8
            if rank.rank % 2 == 0:
                yield from rank.send(peer, 8192, tag=i)
            else:
                yield from rank.recv(tag=i)

    job.start(app)
    drained = suspend_all(sim, job, at=0.05)
    p = sim.run(until=drained)
    stall_time = p - 0.05
    assert stall_time < 0.1


def test_drain_returns_only_after_inflight_messages_arrive():
    """A rank's drain waits for every peer's FLUSH marker, which RC order
    puts behind the peer's last message: that message is in the mailbox
    before the rank's endpoints go."""
    sim, cluster, job = make_job(nprocs=2, n_compute=2)
    r0, r1 = job.ranks

    def app(rank):
        if rank.rank == 0:
            yield from rank.send(1, 4 << 20, tag="bulk")

    job.start(app)
    seen = {}

    def sweep(sim):
        # Suspend both ranks once rank 0's bulk send is on the wire.
        while not any(c.pending_sends for c in r0.channels.outgoing.values()):
            yield sim.timeout(1e-4)
        assert len(r1.mailbox) == 0
        sim.spawn(r0.controller.suspend_and_drain(), name="drain.0")
        yield from r1.controller.suspend_and_drain()
        seen["tags"] = [m.tag for m in r1.mailbox.items]

    sim.run(until=sim.spawn(sweep(sim)))
    assert seen["tags"] == ["bulk"]


def test_rank_suspended_mid_connect_sends_nothing_until_release():
    """A suspension that lands while the main thread is connecting inside
    ``send`` holds the send at the gate: no channel comes up and no byte
    leaves before ``release``."""
    sim, cluster, job = make_job(nprocs=2, n_compute=2)
    r0, r1 = job.ranks
    setup = cluster.ib.params.qp_setup_time
    arrived = []

    def app(rank):
        if rank.rank == 0:
            yield from rank.send(1, 1024, tag="t")
        else:
            yield from rank.recv(src=0, tag="t")
            arrived.append(rank.sim.now)

    job.start(app)
    release_at = 1.0

    def sweep(sim):
        yield sim.timeout(setup / 2)  # rank 0 is mid-connect
        assert r0.channels._connecting
        yield from r0.controller.suspend_and_drain()
        yield sim.timeout(release_at - sim.now)
        assert r0.channels.established() == {}
        assert r0.bytes_sent == 0 and arrived == []
        r0.controller.release()

    sim.spawn(sweep(sim))
    sim.run(until=job.completion())
    assert len(arrived) == 1 and arrived[0] > release_at


@pytest.mark.parametrize("dst", [0, 1], ids=["self", "peer"])
def test_send_after_recv_completed_at_suspension_waits_for_release(dst):
    """A receive whose message is already delivered when the suspension
    lands returns it; the suspension is honoured at the next MPI call, so
    the send that follows leaves only after ``release``."""
    sim, cluster, job = make_job(nprocs=2, n_compute=2)
    r0 = job.rank_obj(0)
    sent_at = []

    def app(rank):
        if rank.rank == 0:
            yield from rank.recv(tag="go")
            yield from rank.send(dst, 64, tag="after")
            sent_at.append(rank.sim.now)

    job.start(app)
    release_at = 1.0

    def sweep(sim):
        yield sim.timeout(0.01)
        r0.mailbox.put(Message(1, 0, "go", 8, None))
        yield from r0.controller.suspend_and_drain()
        yield sim.timeout(release_at - sim.now)
        assert sent_at == [] and r0.bytes_sent == 0
        assert r0.channels.established() == {}
        r0.controller.release()

    sim.spawn(sweep(sim))
    sim.run(until=job.completion())
    assert len(sent_at) == 1 and sent_at[0] >= release_at
