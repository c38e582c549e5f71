"""Integration tests: the full four-phase migration cycle on the paper's
testbed shape (scaled down for test speed where exactness isn't the point).
"""

import pytest

from repro import MigrationError, MigrationPhase, Scenario
from repro.blcr import CheckpointImage
from repro.cluster import NodeState
from repro.launch import NLAState


def small_scenario(**kw):
    defaults = dict(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                    iterations=8)
    defaults.update(kw)
    return Scenario.build(**defaults)


def test_migration_completes_and_phases_ordered():
    sc = small_scenario()
    report = sc.run_migration("node1", at=0.5)
    assert report.source == "node1"
    assert report.target == "spare0"
    for phase in MigrationPhase:
        assert report.phase_seconds[phase] > 0
    assert report.total_seconds < 60
    # Restart (file-based) dominates, per the paper.
    assert (report.phase_seconds[MigrationPhase.RESTART]
            > report.phase_seconds[MigrationPhase.MIGRATION])
    assert (report.phase_seconds[MigrationPhase.STALL]
            < report.phase_seconds[MigrationPhase.MIGRATION])


def test_only_source_node_bytes_move():
    sc = small_scenario()
    victims = sc.job.ranks_on("node1")
    expected = sum(r.osproc.image_bytes for r in victims)
    report = sc.run_migration("node1", at=0.5)
    assert report.bytes_migrated == pytest.approx(expected)
    assert report.ranks_migrated == [r.rank for r in victims]


def test_ranks_relocated_and_roles_updated():
    sc = small_scenario()
    sc.run_migration("node1", at=0.5, reason="health:test")
    for rank in sc.job.ranks:
        assert rank.node.name != "node1"
    assert [r.rank for r in sc.job.ranks_on("spare0")] == [4, 5, 6, 7]
    assert sc.jm.nla("node1").state is NLAState.MIGRATION_INACTIVE
    assert sc.jm.nla("spare0").state is NLAState.MIGRATION_READY
    # Health-triggered migration retires the source.
    assert sc.cluster.node("node1").state is NodeState.FAILED
    assert sc.cluster.node("spare0") in sc.cluster.compute
    assert "node1" not in sc.jm.tree
    assert "spare0" in sc.jm.tree


def test_user_migration_returns_source_to_spare_pool():
    sc = small_scenario()
    sc.run_migration("node1", at=0.5, reason="user")
    assert sc.cluster.node("node1") in sc.cluster.spares
    assert sc.cluster.node("node1").state is NodeState.HEALTHY


def test_application_completes_after_migration():
    sc = small_scenario(iterations=12)
    done = {}

    def watcher(sim):
        yield sc.job.completion()
        done["t"] = sim.now
        done["iters"] = [rk.osproc.app_state["iteration"]
                        for rk in sc.job.ranks]

    sc.sim.spawn(watcher(sc.sim))
    sc.run_migration("node0", at=2.0)
    sc.sim.run()
    assert done["iters"] == [12] * 8


def test_migration_preserves_process_state_exactly():
    sc = small_scenario(record_data=True, nprocs=4, n_compute=2,
                        iterations=6)
    victims = sc.job.ranks_on("node1")
    pre = {}

    def snapshot(sim):
        yield sim.timeout(0.49)
        for rank in victims:
            pre[rank.rank] = CheckpointImage.snapshot(rank.osproc)

    sc.sim.spawn(snapshot(sc.sim))
    sc.run_migration("node1", at=0.5)
    for rank in victims:
        post = CheckpointImage.snapshot(rank.osproc)
        # Memory bytes may have advanced with the app (it resumed), but the
        # layout and identity must hold and the process must live on spare0.
        assert post.layout == pre[rank.rank].layout
        assert rank.osproc.node == "spare0"


@pytest.mark.parametrize("restart_mode", ["file", "memory"])
@pytest.mark.parametrize("transport", ["rdma", "tcp", "ipoib", "staging"])
def test_migration_state_fidelity_when_app_frozen(transport, restart_mode):
    """With the app finished (quiescent), the migrated images must be
    byte-identical before and after the move, whichever transport carries
    them and whichever sink they land in."""
    sc = small_scenario(record_data=True, nprocs=4, n_compute=2,
                        iterations=2, transport=transport,
                        restart_mode=restart_mode)
    sc.sim.run(until=sc.job.completion())
    victims = sc.job.ranks_on("node1")
    sums = {r.rank: CheckpointImage.snapshot(r.osproc).checksum()
            for r in victims}

    def fire(sim):
        report = yield from sc.framework.migrate("node1")
        return report

    p = sc.sim.spawn(fire(sc.sim))
    sc.sim.run(until=p)
    for rank in victims:
        assert CheckpointImage.snapshot(rank.osproc).checksum() == sums[rank.rank]
        assert rank.osproc.node == "spare0"


def test_no_spare_raises():
    sc = small_scenario(n_spare=0)

    def fire(sim):
        yield sim.timeout(0.5)
        with pytest.raises(MigrationError, match="spare"):
            yield from sc.framework.migrate("node1")
        return True

    p = sc.sim.spawn(fire(sc.sim))
    assert sc.sim.run(until=p) is True


def test_bad_source_raises():
    sc = small_scenario()

    def fire(sim):
        yield sim.timeout(0.5)
        with pytest.raises(MigrationError, match="no ranks"):
            yield from sc.framework.migrate("login")
        return True

    p = sc.sim.spawn(fire(sc.sim))
    assert sc.sim.run(until=p) is True


def test_target_hosting_ranks_rejected():
    sc = small_scenario()

    def fire(sim):
        yield sim.timeout(0.5)
        with pytest.raises(MigrationError, match="already hosts"):
            yield from sc.framework.migrate("node0", target="node1")
        return True

    p = sc.sim.spawn(fire(sc.sim))
    assert sc.sim.run(until=p) is True


def test_two_sequential_migrations():
    sc = small_scenario(n_spare=2, iterations=20)
    r1 = sc.run_migration("node0", at=0.5, reason="health:a")

    def fire(sim):
        report = yield from sc.framework.migrate("node1", reason="health:b")
        return report

    p = sc.sim.spawn(fire(sc.sim))
    r2 = sc.sim.run(until=p)
    assert r1.target == "spare0"
    assert r2.target == "spare1"
    hosts = {rk.node.name for rk in sc.job.ranks}
    assert hosts == {"spare0", "spare1"}
    sc.sim.run(until=sc.job.completion())
    assert all(rk.osproc.app_state["iteration"] == 20 for rk in sc.job.ranks)


def test_memory_restart_mode_faster():
    def total(mode):
        sc = small_scenario(restart_mode=mode, app="BT.C")
        report = sc.run_migration("node1", at=0.5)
        return report

    t_file = total("file")
    t_mem = total("memory")
    assert (t_mem.phase_seconds[MigrationPhase.RESTART]
            < t_file.phase_seconds[MigrationPhase.RESTART] / 3)


def test_migration_overhead_visible_in_runtime():
    base = small_scenario(iterations=10)
    t_base = base.run_to_completion()

    mig = small_scenario(iterations=10)
    mig.run_migration("node1", at=0.5)
    mig.sim.run(until=mig.job.completion())
    t_mig = mig.sim.now
    # The run with one migration is longer by roughly the migration cost.
    assert t_mig > t_base
    assert t_mig - t_base > 1.0
