"""Tests for the spawn tree, NLAs and the Job Manager."""

import numpy as np
import pytest

from repro.blcr import CheckpointEngine, CheckpointImage, FileSink
from repro.cluster import Cluster, OSProcess
from repro.ftb import FTBBackplane
from repro.launch import JobManager, NLAState, SpawnTree
from repro.simulate import Simulator


def make(n_compute=4, n_spare=1, fanout=2):
    sim = Simulator()
    cluster = Cluster(sim, n_compute=n_compute, n_spare=n_spare,
                      record_data=True)
    bp = FTBBackplane(sim, cluster.eth, [n for n in cluster.nodes],
                      root_node="login")
    jm = JobManager(sim, cluster, bp, fanout=fanout)
    return sim, cluster, bp, jm


# ----------------------------------------------------------------- SpawnTree
def test_tree_structure_and_depths():
    t = SpawnTree("login", [f"n{i}" for i in range(6)], fanout=2)
    assert t.root == "login"
    assert t.depth_of("n0") == 1
    assert t.height >= 2
    assert "n5" in t
    assert t.path_to_root("n5")[-1] == "login"


def test_tree_replace_preserves_shape():
    t = SpawnTree("login", ["a", "b", "c", "d"], fanout=2)
    kids_before = list(t.children["a"])
    parent_before = t.parent["a"]
    t.replace("a", "spare")
    assert "a" not in t
    assert "spare" in t
    assert t.parent["spare"] == parent_before
    assert t.children["spare"] == kids_before
    for child in kids_before:
        assert t.parent[child] == "spare"


def test_tree_replace_validation():
    t = SpawnTree("login", ["a", "b"], fanout=2)
    with pytest.raises(KeyError):
        t.replace("ghost", "s")
    with pytest.raises(ValueError):
        t.replace("a", "b")
    with pytest.raises(ValueError):
        SpawnTree("login", ["login"])
    with pytest.raises(ValueError):
        SpawnTree("login", ["a"], fanout=0)


# ----------------------------------------------------------------------- NLA
def test_nla_initial_states():
    sim, cluster, bp, jm = make()
    assert jm.nla("node0").state is NLAState.MIGRATION_READY
    assert jm.nla("spare0").state is NLAState.MIGRATION_SPARE
    with pytest.raises(KeyError):
        jm.nla("ghost")


def test_nla_restart_from_tmp_files_roundtrip():
    sim, cluster, bp, jm = make()
    spare = cluster.node("spare0")
    nla = jm.nla("spare0")
    engine = CheckpointEngine(sim, "spare0")
    proc = OSProcess.synthetic("rank5", "node0", image_bytes=40_000,
                               record_data=True,
                               rng=np.random.default_rng(14))
    proc.app_state["iter"] = 17
    src_sum = CheckpointImage.snapshot(proc).checksum()

    def run(sim):
        sink = FileSink(sim, spare.fs, "/tmp/mig", fsync=False,
                        through_cache=True)
        yield from engine.checkpoint(proc, sink)
        restarted = yield from nla.restart_processes(sink.metadata)
        return restarted["rank5"]

    p = sim.spawn(run(sim))
    sim.run()
    clone = p.value
    assert clone.app_state["iter"] == 17
    assert CheckpointImage.snapshot(clone).checksum() == src_sum
    assert nla.state is NLAState.MIGRATION_READY


def test_nla_restart_memory_mode():
    """Memory restart is per process (the pipelined path): it leaves the
    state flip to the caller, who owns the whole set."""
    sim, cluster, bp, jm = make()
    nla = jm.nla("spare0")
    proc = OSProcess.synthetic("r", "node0", image_bytes=10_000, record_data=True,
                               rng=np.random.default_rng(13))
    image = CheckpointImage.snapshot(proc)
    src_sum = image.checksum()

    def run(sim):
        return (yield from nla.restart_one(image, mode="memory"))

    p = sim.spawn(run(sim))
    sim.run()
    assert p.value.node == "spare0"
    assert CheckpointImage.snapshot(p.value).checksum() == src_sum
    assert nla.state is NLAState.MIGRATION_SPARE


def test_nla_restart_mode_validation():
    """Neither restart path runs on an NLA that left the restartable
    states."""
    sim, cluster, bp, jm = make()
    nla = jm.nla("spare0")
    image = CheckpointImage.snapshot(
        OSProcess.synthetic("r", "node0", image_bytes=10_000))

    def run(sim):
        nla.to_inactive()
        with pytest.raises(RuntimeError, match="MIGRATION_INACTIVE"):
            yield from nla.restart_processes({})
        with pytest.raises(RuntimeError, match="MIGRATION_INACTIVE"):
            yield from nla.restart_one(image, mode="memory")

    sim.spawn(run(sim))
    sim.run()


# ---------------------------------------------------------------- JobManager
def test_pmi_exchange_linear_in_ranks():
    sim, cluster, bp, jm = make()

    def run(sim):
        t0 = sim.now
        yield from jm.pmi_exchange(64)
        return sim.now - t0

    p = sim.spawn(run(sim))
    sim.run()
    assert p.value == pytest.approx(64 * jm.params.pmi_exchange_per_rank)


def test_repair_tree_swaps_spare():
    sim, cluster, bp, jm = make()

    def run(sim):
        yield from jm.repair_tree("node2", "spare0")

    p = sim.spawn(run(sim))
    sim.run(until=p)
    assert "node2" not in jm.tree
    assert "spare0" in jm.tree
    assert sim.now >= jm.params.tree_repair_cost


def test_nla_restart_expected_procs_mismatch():
    from repro.pipeline import RestartSetMismatch

    sim, cluster, bp, jm = make()
    nla = jm.nla("spare0")
    proc = OSProcess.synthetic("r", "node0", image_bytes=10_000,
                               record_data=True,
                               rng=np.random.default_rng(12))
    image = CheckpointImage.snapshot(proc)

    def run(sim):
        with pytest.raises(RestartSetMismatch, match="2 processes"):
            yield from nla.restart_processes({"/tmp/mig/r.ckpt": image},
                                             expected_procs=2)
        yield sim.timeout(0)

    sim.spawn(run(sim))
    sim.run()
    # Validation fires before any restart work: the spare stays a spare.
    assert nla.state is NLAState.MIGRATION_SPARE


def test_nla_restart_matching_expected_procs_succeeds():
    sim, cluster, bp, jm = make()
    nla = jm.nla("spare0")
    engine = CheckpointEngine(sim, "spare0")
    proc = OSProcess.synthetic("r", "node0", image_bytes=10_000,
                               record_data=True,
                               rng=np.random.default_rng(10))

    def run(sim):
        sink = FileSink(sim, cluster.node("spare0").fs, "/tmp/mig",
                        fsync=False, through_cache=True)
        yield from engine.checkpoint(proc, sink)
        out = yield from nla.restart_processes(sink.metadata,
                                               expected_procs=1)
        return out

    p = sim.spawn(run(sim))
    sim.run()
    assert set(p.value) == {"r"}
    assert nla.state is NLAState.MIGRATION_READY
