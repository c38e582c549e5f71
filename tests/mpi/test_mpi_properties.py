"""Property-based tests for MPI semantics (hypothesis).

Small simulated clusters, randomized shapes: the collectives must be
mathematically correct for any rank count, message storms must deliver
exactly once in per-pair FIFO order, and a suspension at an arbitrary
moment must never lose a message — the drain invariant the migration
protocol rests on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.mpi import MPIJob, bcast
from repro.simulate import Simulator


def make_job(nprocs):
    sim = Simulator()
    # Place all ranks on up to 2 nodes to keep the sim small.
    n_compute = 2 if nprocs % 2 == 0 else 1
    cluster = Cluster(sim, n_compute=n_compute, n_spare=1)
    job = MPIJob(sim, cluster, nprocs)
    return sim, job


@given(nprocs=st.integers(min_value=1, max_value=10),
       values=st.data())
@settings(max_examples=25, deadline=None)
def test_allreduce_sum_correct_for_any_shape(nprocs, values):
    vals = [values.draw(st.integers(min_value=-1000, max_value=1000))
            for _ in range(nprocs)]
    if nprocs % 2 == 1 and nprocs > 1:
        nprocs += 1
        vals.append(0)
    sim, job = make_job(nprocs)
    got = {}

    def app(rank):
        out = yield from rank.allreduce(vals[rank.rank], lambda a, b: a + b)
        got[rank.rank] = out

    job.start(app)
    sim.run(until=job.completion())
    assert all(v == sum(vals) for v in got.values())


@given(nprocs=st.integers(min_value=2, max_value=10),
       root=st.data())
@settings(max_examples=25, deadline=None)
def test_bcast_reaches_everyone_from_any_root(nprocs, root):
    if nprocs % 2 == 1:
        nprocs += 1
    r = root.draw(st.integers(min_value=0, max_value=nprocs - 1))
    sim, job = make_job(nprocs)
    got = {}

    def app(rank):
        payload = ("secret", r) if rank.rank == r else None
        out = yield from bcast(rank, r, 128, payload)
        got[rank.rank] = out

    job.start(app)
    sim.run(until=job.completion())
    assert all(v == ("secret", r) for v in got.values())


@given(n_messages=st.integers(min_value=1, max_value=40),
       sizes=st.data())
@settings(max_examples=20, deadline=None)
def test_message_storm_exactly_once_fifo(n_messages, sizes):
    """Randomized burst 0 -> 1: delivery is exactly-once, in order."""
    msg_sizes = [sizes.draw(st.integers(min_value=1, max_value=600_000))
                 for _ in range(n_messages)]
    sim, job = make_job(2)
    received = []

    def app(rank):
        if rank.rank == 0:
            for i, n in enumerate(msg_sizes):
                yield from rank.send(1, n, tag="storm", payload=i)
        else:
            for _ in range(n_messages):
                msg = yield from rank.recv(src=0, tag="storm")
                received.append((msg.payload, msg.nbytes))

    job.start(app)
    sim.run(until=job.completion())
    assert received == list(enumerate(msg_sizes))


@given(suspend_at=st.floats(min_value=0.001, max_value=0.2),
       n_messages=st.integers(min_value=5, max_value=30))
@settings(max_examples=20, deadline=None)
def test_suspension_at_any_moment_loses_nothing(suspend_at, n_messages):
    """The drain invariant: a suspend/resume cycle at an arbitrary point of
    a message stream must not lose, duplicate, or reorder anything."""
    sim, job = make_job(4)
    received = []

    def app(rank):
        if rank.rank == 0:
            for i in range(n_messages):
                yield from rank.compute(0.004)
                yield from rank.send(2, 30_000, tag="s", payload=i)
        elif rank.rank == 2:
            for _ in range(n_messages):
                msg = yield from rank.recv(src=0, tag="s")
                received.append(msg.payload)
        else:
            yield from rank.compute(0.01)

    job.start(app)

    def cr_sweep(sim):
        yield sim.timeout(suspend_at)
        drains = [sim.spawn(r.controller.suspend_and_drain())
                  for r in job.ranks]
        yield sim.all_of(drains)
        yield sim.timeout(0.05)
        for r in job.ranks:
            yield from r.controller.reestablish()
        for r in job.ranks:
            r.controller.release()

    sim.spawn(cr_sweep(sim))
    sim.run(until=job.completion())
    assert received == list(range(n_messages))
    # Post-drain invariant held at completion too: nothing in flight.
    for r in job.ranks:
        for chan in r.channels.established().values():
            assert chan.pending_sends == 0
