"""Tests for the Checkpoint/Restart baseline strategy."""

import pytest

from repro import Scenario
from repro.simulate import MetricsRegistry


def small_scenario(**kw):
    defaults = dict(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                    iterations=8, with_pvfs=True)
    defaults.update(kw)
    return Scenario.build(**defaults)


def run_cycle(sc, destination, with_restart=True):
    strat = sc.cr_strategy(destination)

    def drive(sim):
        yield sim.timeout(0.5)
        ckpt = yield from strat.checkpoint()
        res = (yield from strat.restart()) if with_restart else None
        return ckpt, res

    p = sc.sim.spawn(drive(sc.sim))
    return sc.sim.run(until=p)


def test_cr_checkpoints_all_ranks_bytes():
    sc = small_scenario()
    ckpt, res = run_cycle(sc, "ext3")
    expected = sum(r.osproc.image_bytes for r in sc.job.ranks)
    assert ckpt.bytes_written == pytest.approx(expected)
    assert res.bytes_read == pytest.approx(expected)
    assert ckpt.n_ranks == 8


@pytest.mark.parametrize("destination", ["ext3", "pvfs"])
def test_cr_restart_bytes_read_metric_matches_report(destination):
    """Every file of every rank's chain is read in full, and the restart
    counter says so."""
    sc = small_scenario(metrics=MetricsRegistry())
    _, res = run_cycle(sc, destination)
    counter = sc.sim.metrics.get("blcr.restart.bytes_read")
    assert res.bytes_read > 0
    assert counter.value == res.bytes_read


def test_cr_files_land_on_each_node_for_ext3():
    sc = small_scenario()
    run_cycle(sc, "ext3", with_restart=False)
    for node_name in ("node0", "node1"):
        fs = sc.cluster.node(node_name).fs
        files = fs.listdir("/ckpt/")
        assert len(files) == 4  # 4 ranks per node


def test_cr_files_land_on_pvfs():
    sc = small_scenario()
    ckpt, _ = run_cycle(sc, "pvfs", with_restart=False)
    assert len([p for p in sc.cluster.pvfs.files if p.startswith("/ckpt/")]) == 8
    assert sc.cluster.pvfs.total_bytes_written == pytest.approx(
        ckpt.bytes_written)


def test_cr_pvfs_slower_than_ext3():
    """Figure 7's central contrast: shared-storage contention.

    This only holds in the paper's regime — many concurrent streams
    hammering few PVFS servers while each node's local disk serves only its
    own 8 writers — so the test runs at 32 ranks / 4 nodes.  (At 2 nodes the
    contrast legitimately inverts: 4 PVFS servers out-spindle 2 local
    disks.)
    """
    sc1 = small_scenario(app="BT.C", nprocs=32, n_compute=4)
    ckpt_ext3, res_ext3 = run_cycle(sc1, "ext3")
    sc2 = small_scenario(app="BT.C", nprocs=32, n_compute=4)
    ckpt_pvfs, res_pvfs = run_cycle(sc2, "pvfs")
    assert ckpt_pvfs.checkpoint_seconds > 1.3 * ckpt_ext3.checkpoint_seconds
    assert res_pvfs.restart_seconds > res_ext3.restart_seconds


def test_cr_app_continues_after_checkpoint():
    sc = small_scenario(iterations=10)
    run_cycle(sc, "ext3", with_restart=False)
    sc.sim.run(until=sc.job.completion())
    assert all(rk.osproc.app_state["iteration"] == 10 for rk in sc.job.ranks)


def test_cr_restart_before_checkpoint_rejected():
    sc = small_scenario()
    strat = sc.cr_strategy("ext3")

    def drive(sim):
        with pytest.raises(RuntimeError):
            yield from strat.restart()
        return True

    p = sc.sim.spawn(drive(sc.sim))
    assert sc.sim.run(until=p) is True


def test_cr_destination_validation():
    sc = small_scenario()
    with pytest.raises(ValueError):
        sc.cr_strategy("nfs")
    sc2 = Scenario.build(app="LU.C", nprocs=4, n_compute=2, n_spare=0,
                         iterations=4, with_pvfs=False)
    with pytest.raises(ValueError, match="PVFS"):
        sc2.cr_strategy("pvfs")


def test_cr_restart_preserves_state_exactly():
    sc = small_scenario(record_data=True, nprocs=4, n_compute=2)
    sc.sim.run(until=sc.job.completion())  # quiesce first
    from repro.blcr import CheckpointImage

    sums = {r.rank: CheckpointImage.snapshot(r.osproc).checksum()
            for r in sc.job.ranks}
    strat = sc.cr_strategy("ext3")

    def drive(sim):
        yield from strat.checkpoint()
        # scribble over live memory to prove restart really restores
        for r in sc.job.ranks:
            for seg in r.osproc.segments:
                if seg.data is not None:
                    seg.data[:] = 0
        yield from strat.restart()

    p = sc.sim.spawn(drive(sc.sim))
    sc.sim.run(until=p)
    for r in sc.job.ranks:
        assert CheckpointImage.snapshot(r.osproc).checksum() == sums[r.rank]


def test_successive_checkpoints_use_new_epochs():
    sc = small_scenario(iterations=30)
    strat = sc.cr_strategy("ext3")

    def drive(sim):
        yield sim.timeout(0.5)
        a = yield from strat.checkpoint()
        yield sim.timeout(0.5)
        b = yield from strat.checkpoint()
        return a, b

    p = sc.sim.spawn(drive(sc.sim))
    a, b = sc.sim.run(until=p)
    fs = sc.cluster.node("node0").fs
    assert fs.listdir("/ckpt/e1/") and fs.listdir("/ckpt/e2/")


def test_migration_beats_full_cr_cycle():
    """The paper's core claim: one migration cycle is far cheaper than
    checkpoint+restart of the whole job.  Needs the paper's proportions —
    the migration moves 1/4 of the ranks here (1/8 in the paper), while CR
    dumps all of them."""
    sc1 = small_scenario(nprocs=32, n_compute=4)
    mig = sc1.run_migration("node1", at=0.5)

    sc2 = small_scenario(nprocs=32, n_compute=4)
    ckpt, res = run_cycle(sc2, "pvfs")
    cr_total = ckpt.total_seconds + res.restart_seconds
    assert cr_total > 1.5 * mig.total_seconds
