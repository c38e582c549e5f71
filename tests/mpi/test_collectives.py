"""Tests for collective operations across varied rank counts."""

import operator

import pytest

from repro.cluster import Cluster
from repro.mpi import MPIJob, bcast, reduce_
from repro.simulate import Simulator


def run_collective(nprocs, n_compute, app_factory):
    sim = Simulator()
    cluster = Cluster(sim, n_compute=n_compute, n_spare=0)
    job = MPIJob(sim, cluster, nprocs)
    job.start(app_factory)
    sim.run(until=job.completion())
    return sim, job


@pytest.mark.parametrize("nprocs,n_compute,root", [(4, 2, 0), (8, 4, 3),
                                                   (6, 3, 5), (2, 2, 1)])
def test_bcast_delivers_to_all(nprocs, n_compute, root):
    got = {}

    def app(rank):
        value = {"data": "blob"} if rank.rank == root else None
        out = yield from bcast(rank, root, 4096, value)
        got[rank.rank] = out

    run_collective(nprocs, n_compute, app)
    assert all(got[r] == {"data": "blob"} for r in range(nprocs))


def test_bcast_bad_root():
    def app(rank):
        with pytest.raises(ValueError):
            yield from bcast(rank, 99, 64, None)
        yield rank.sim.timeout(0)

    run_collective(2, 2, app)


@pytest.mark.parametrize("nprocs,n_compute", [(2, 2), (4, 4), (8, 4), (6, 3)])
def test_allreduce_sum(nprocs, n_compute):
    got = {}

    def app(rank):
        out = yield from rank.allreduce(rank.rank + 1, lambda a, b: a + b)
        got[rank.rank] = out

    run_collective(nprocs, n_compute, app)
    expected = nprocs * (nprocs + 1) // 2
    assert all(v == expected for v in got.values())


@pytest.mark.parametrize("op,expected", [
    pytest.param(lambda a, b: a + b, 6, id="SUM-6"),
    pytest.param(max, 3, id="MAX-3"),
    pytest.param(min, 0, id="MIN-0"),
    pytest.param(operator.mul, 0, id="PROD-0"),
])
def test_allreduce_ops(op, expected):
    got = {}

    def app(rank):
        got[rank.rank] = yield from rank.allreduce(rank.rank, op)

    run_collective(4, 2, app)
    assert all(v == expected for v in got.values())


@pytest.mark.parametrize("root", [0, 2])
def test_reduce_max_only_at_root(root):
    got = {}

    def app(rank):
        out = yield from reduce_(rank, root, rank.rank * 10, max, 8)
        got[rank.rank] = out

    run_collective(4, 2, app)
    assert got[root] == 30
    assert all(got[r] is None for r in range(4) if r != root)


def test_back_to_back_collectives_do_not_cross_match():
    got = {}

    def app(rank):
        a = yield from rank.allreduce(1, lambda x, y: x + y)
        b = yield from rank.allreduce(rank.rank, max)
        c = yield from rank.allreduce(rank.rank, min)
        d = yield from bcast(rank, 0, 64, "final" if rank.rank == 0 else None)
        got[rank.rank] = (a, b, c, d)

    run_collective(8, 4, app)
    assert all(v == (8, 7, 0, "final") for v in got.values())


def test_single_rank_collectives_trivial():
    got = {}

    def app(rank):
        c = yield from bcast(rank, 0, 64, "only")
        out = yield from rank.allreduce(5, lambda a, b: a + b)
        got["v"] = (c, out)

    sim = Simulator()
    cluster = Cluster(sim, n_compute=1, n_spare=0)
    job = MPIJob(sim, cluster, 1)
    job.start(app)
    sim.run(until=job.completion())
    assert got["v"] == ("only", 5)
