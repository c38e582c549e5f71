"""Tests for Cluster/Node topology and the OS process model."""

import numpy as np
import pytest

from repro.cluster import Cluster, MemorySegment, NodeState, OSProcess
from repro.simulate import Simulator


def test_cluster_shape_matches_paper_testbed():
    sim = Simulator()
    c = Cluster(sim, n_compute=8, n_spare=1, with_pvfs=True)
    assert len(c.compute) == 8
    assert len(c.spares) == 1
    assert c.login.name == "login"
    assert c.pvfs is not None
    assert len(c.pvfs.servers) == 4
    # Every node attached to both fabrics.
    for node in c.nodes.values():
        assert node.name in c.ib.hcas
        assert node.name in c.eth.ports
    assert c.node("node0").cores.capacity == 8


def test_cluster_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Cluster(sim, n_compute=0)
    with pytest.raises(ValueError):
        Cluster(sim, n_compute=1, n_spare=-1)
    c = Cluster(sim, n_compute=2, n_spare=0)
    with pytest.raises(KeyError):
        c.node("nope")


def test_spare_promotion_and_retire():
    sim = Simulator()
    c = Cluster(sim, n_compute=2, n_spare=1)
    spare = c.healthy_spare()
    assert spare is not None
    bad = c.node("node0")
    c.retire(bad)
    c.promote_spare(spare)
    assert bad not in c.compute
    assert spare in c.compute
    assert c.healthy_spare() is None
    assert bad.state is NodeState.FAILED


def test_nodes_share_one_fluid_engine():
    sim = Simulator()
    c = Cluster(sim, n_compute=2, n_spare=0)
    assert c.ib.net is c.net
    assert c.eth.net is c.net
    assert c.node("node0").disk.net is c.net


def test_osprocess_segments_and_image_size():
    proc = OSProcess("rank0", "node0")
    proc.add_segment("heap", 1000)
    proc.add_segment("stack", 24)
    assert proc.image_bytes == 1024
    assert proc.alive
    proc.kill()
    assert not proc.alive


def test_killed_process_holds_no_segment_bytes():
    proc = OSProcess.synthetic("rank0", "node0", image_bytes=100_000,
                               record_data=True,
                               rng=np.random.default_rng(5))
    assert all(seg.data is not None for seg in proc.segments)
    proc.kill()
    assert all(seg.data is None for seg in proc.segments)
    # The layout survives for accounting.
    assert proc.image_bytes == 100_000


def test_osprocess_synthetic_layout():
    proc = OSProcess.synthetic("rank0", "node0", image_bytes=21_300_000)
    assert proc.image_bytes == 21_300_000
    names = [s.name for s in proc.segments]
    assert names == ["text", "data", "heap", "stack"]
    assert all(s.data is None for s in proc.segments)


def test_osprocess_synthetic_with_data():
    proc = OSProcess.synthetic("rank0", "node0", image_bytes=100_000,
                               record_data=True,
                               rng=np.random.default_rng(4))
    assert proc.image_bytes == 100_000
    assert all(s.data is not None for s in proc.segments if s.nbytes)
    # Drawn from the seeded stream: content exists and is non-trivial.
    heap = next(s for s in proc.segments if s.name == "heap")
    assert heap.data.std() > 0


def test_segment_validation():
    with pytest.raises(ValueError):
        MemorySegment("x", -1)
    with pytest.raises(TypeError):
        MemorySegment("x", 8, np.zeros(1, dtype=np.float32))
    with pytest.raises(ValueError):
        MemorySegment("x", 8, np.zeros(4, dtype=np.uint8))


def test_segment_clone_is_deep():
    seg = MemorySegment("heap", 4, np.array([1, 2, 3, 4], dtype=np.uint8))
    dup = seg.clone()
    dup.data[0] = 99
    assert seg.data[0] == 1
