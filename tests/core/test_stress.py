"""Stress tests: migrations under hostile communication patterns."""

from repro import Scenario
from repro.cluster import Cluster
from repro.mpi import MPIJob
from repro.simulate import Simulator


class HaloExchange:
    """1-D ring halo exchange: fixed iterations, fixed message size."""

    def __init__(self, iterations, nbytes=65536, compute_seconds=0.01):
        self.iterations = iterations
        self.nbytes = nbytes
        self.compute_seconds = compute_seconds

    def rank_main(self, rank):
        n = rank.job.nprocs
        for it in range(self.iterations):
            yield from rank.compute(self.compute_seconds)
            if n > 1:
                yield from rank.send((rank.rank + 1) % n, self.nbytes,
                                     ("halo", it))
                yield from rank.recv(src=(rank.rank - 1) % n, tag=("halo", it))


class AllToAllChatter:
    """Dense communication: every rank messages every other each round.

    Stresses the drain protocol with many simultaneously active channels.
    """

    def __init__(self, rounds, nbytes=4096, compute_seconds=0.002):
        self.rounds = rounds
        self.nbytes = nbytes
        self.compute_seconds = compute_seconds

    def rank_main(self, rank):
        n = rank.job.nprocs
        for rnd in range(self.rounds):
            yield from rank.compute(self.compute_seconds)
            for peer in range(n):
                if peer != rank.rank:
                    yield from rank.send(peer, self.nbytes,
                                         ("a2a", rnd, rank.rank))
            for peer in range(n):
                if peer != rank.rank:
                    yield from rank.recv(src=peer, tag=("a2a", rnd, peer))


def scenario(**kw):
    defaults = dict(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                    start_app=False)
    defaults.update(kw)
    return Scenario.build(**defaults)


def test_halo_exchange_completes():
    sim = Simulator()
    cluster = Cluster(sim, n_compute=2, n_spare=0)
    job = MPIJob(sim, cluster, 4)
    w = HaloExchange(iterations=6)
    job.start(w.rank_main)
    sim.run(until=job.completion())
    assert all(rk.bytes_sent == 6 * w.nbytes for rk in job.ranks)


def test_all_to_all_chatter_completes():
    sim = Simulator()
    cluster = Cluster(sim, n_compute=2, n_spare=0)
    job = MPIJob(sim, cluster, 6)
    w = AllToAllChatter(rounds=3)
    job.start(w.rank_main)
    sim.run(until=job.completion())
    for rk in job.ranks:
        assert rk.bytes_sent == 3 * 5 * w.nbytes


def test_migration_under_all_to_all_chatter():
    """Dense traffic: every rank talks to every other while the drain runs;
    nothing may be lost and the chatter must complete afterwards."""
    sc = scenario()
    w = AllToAllChatter(rounds=30, nbytes=8192, compute_seconds=0.003)
    sc.job.start(w.rank_main)
    report = sc.run_migration("node1", at=0.05)
    sc.sim.run(until=sc.job.completion())
    # Every rank sent exactly rounds * (n-1) messages.
    for rank in sc.job.ranks:
        assert rank.bytes_sent == 30 * 7 * 8192
    assert report.total_seconds < 60


def test_back_to_back_migrations_under_halo_traffic():
    sc = scenario(n_spare=2)
    w = HaloExchange(iterations=300, nbytes=32768, compute_seconds=0.002)
    sc.job.start(w.rank_main)
    r1 = sc.run_migration("node0", at=0.1, reason="health:a")

    def fire(sim):
        yield sim.timeout(0.1)
        return (yield from sc.framework.migrate("node1", reason="health:b"))

    r2 = sc.sim.run(until=sc.sim.spawn(fire(sc.sim)))
    sc.sim.run(until=sc.job.completion())
    assert {r1.target, r2.target} == {"spare0", "spare1"}
    for rank in sc.job.ranks:
        assert rank.bytes_sent == 300 * 32768


def test_migrate_every_node_once_round_robin():
    """March the job across the cluster: each primary node drained in turn
    (user mode returns nodes to the spare pool, so one spare suffices)."""
    sc = scenario(nprocs=8, n_compute=2, n_spare=1)
    w = HaloExchange(iterations=400, nbytes=4096, compute_seconds=0.002)
    sc.job.start(w.rank_main)

    def plan(sim):
        reports = []
        for source in ("node0", "node1", "spare0"):
            yield sim.timeout(0.1)
            if not sc.job.ranks_on(source):
                continue
            reports.append((yield from sc.framework.migrate(source,
                                                            reason="user")))
        return reports

    reports = sc.sim.run(until=sc.sim.spawn(plan(sc.sim)))
    assert len(reports) == 3
    sc.sim.run(until=sc.job.completion())
    for rank in sc.job.ranks:
        assert rank.bytes_sent == 400 * 4096


def test_migration_with_single_rank_per_node():
    sc = scenario(nprocs=2, n_compute=2)
    w = HaloExchange(iterations=50, nbytes=1024)
    sc.job.start(w.rank_main)
    report = sc.run_migration("node1", at=0.05)
    assert report.ranks_migrated == [1]
    sc.sim.run(until=sc.job.completion())
    assert sc.job.rank_obj(1).node.name == "spare0"
