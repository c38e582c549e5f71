"""Unit tests for the reassembly sinks and the pipeline's stage tables."""

import numpy as np
import pytest

from repro.blcr import CheckpointImage
from repro.cluster import Cluster, OSProcess
from repro.pipeline import (
    SINKS,
    TRANSPORTS,
    FileReassemblySink,
    MemoryReassemblySink,
    ReassemblyError,
    check_stage_names,
)
from repro.simulate import Simulator


def drive(sim, gen):
    p = sim.spawn(gen)
    sim.run()
    return p.value


def spare(sim, record_data=False):
    cluster = Cluster(sim, n_compute=1, n_spare=1, record_data=record_data)
    return cluster.node("spare0")


# ----------------------------------------------------------- memory sink
def test_memory_sink_reassembles_payload_from_shuffled_chunks():
    sim = Simulator()
    sink = MemoryReassemblySink(sim, spare(sim))
    proc = OSProcess.synthetic("r0", "node0", image_bytes=3000,
                               record_data=True,
                               rng=np.random.default_rng(3))
    meta = CheckpointImage.snapshot(proc)
    payload = meta.payload
    chunks = [(0, 1000), (1000, 1000), (2000, 1000)]

    def run(sim):
        # Arrival order is the transport's business, not the sink's.
        for off, n in (chunks[2], chunks[0], chunks[1]):
            data = np.frombuffer(payload[off:off + n], dtype=np.uint8)
            yield from sink.write("r0", off, n, data)
        yield from sink.finish("r0", meta, 3000)

    drive(sim, run(sim))
    image = sink.images["r0"]
    assert image.payload == payload
    assert image.checksum() == meta.checksum()
    assert sink.paths == {}


def test_memory_sink_missing_bytes_raise_reassembly_error():
    sim = Simulator()
    sink = MemoryReassemblySink(sim, spare(sim))
    proc = OSProcess.synthetic("r0", "node0", image_bytes=2000)
    meta = CheckpointImage.snapshot(proc)

    def run(sim):
        yield from sink.write("r0", 0, 500, None)
        with pytest.raises(ReassemblyError, match="500 of 2000"):
            yield from sink.finish("r0", meta, 2000)

    drive(sim, run(sim))
    assert "r0" not in sink.images


def test_memory_sink_sized_only_keeps_header_image():
    sim = Simulator()
    sink = MemoryReassemblySink(sim, spare(sim))
    proc = OSProcess.synthetic("r0", "node0", image_bytes=1000)
    meta = CheckpointImage.snapshot(proc)
    assert meta.payload is None

    def run(sim):
        yield from sink.write("r0", 0, 1000, None)
        yield from sink.finish("r0", meta, 1000)

    drive(sim, run(sim))
    assert sink.images["r0"] is meta


# ------------------------------------------------------------- file sink
def test_file_sink_writes_each_proc_to_its_own_tmp_file():
    sim = Simulator()
    target = spare(sim, record_data=True)
    sink = FileReassemblySink(sim, target)
    proc = OSProcess.synthetic("r0", "node0", image_bytes=2000,
                               record_data=True,
                               rng=np.random.default_rng(2))
    meta = CheckpointImage.snapshot(proc)

    def run(sim):
        yield from sink.write("r0", 0, 1000, None)
        yield from sink.write("r0", 1000, 1000, None)
        yield from sink.finish("r0", meta, 2000)

    drive(sim, run(sim))
    assert sink.paths["r0"] == "/tmp/migrate/r0.ckpt"
    assert sink.images["r0"] is meta
    assert target.fs.size("/tmp/migrate/r0.ckpt") == 2000


# -------------------------------------------------------- stage tables
def test_registry_names():
    assert list(SINKS) == ["file", "memory"]
    assert list(TRANSPORTS) == ["rdma", "tcp", "ipoib", "staging"]
    assert all(cls.kind == name for name, cls in SINKS.items())


def test_registry_rejects_unknown_sink():
    with pytest.raises(ValueError, match="unknown restart mode 'tape'"):
        check_stage_names("rdma", "tape")


def test_registry_rejects_unknown_transport():
    with pytest.raises(ValueError, match="unknown transport 'pigeon'"):
        check_stage_names("pigeon", "file")


def test_registry_builds_each_sink_kind():
    for mode in ("file", "memory"):
        sim = Simulator()
        assert SINKS[mode](sim, spare(sim)).kind == mode


def test_registry_builds_restart_engine():
    """The restart stage is the target NLA's own engine, built for its
    node when the Job Manager starts the NLA."""
    from repro.blcr.restart import RestartEngine
    from repro.ftb import FTBBackplane
    from repro.launch import JobManager

    sim = Simulator()
    cluster = Cluster(sim, n_compute=1, n_spare=1)
    backplane = FTBBackplane(sim, cluster.eth, list(cluster.nodes),
                             root_node="login")
    engine = JobManager(sim, cluster, backplane).nla("spare0").restart_engine
    assert type(engine) is RestartEngine
    assert engine.node_name == "spare0"
