"""Unit tests for the checkpoint sinks as the migration target uses them:
chunks arrive in any order, from concurrent writers, and the sink seals
each image once its stream is complete."""

import numpy as np
import pytest

from repro.blcr import CheckpointImage, FileSink, MemorySink
from repro.cluster import Cluster, OSProcess
from repro.pipeline import SINKS
from repro.simulate import Simulator


def drive(sim, gen):
    p = sim.spawn(gen)
    sim.run()
    return p.value


def spare(sim, record_data=False):
    cluster = Cluster(sim, n_compute=1, n_spare=1, record_data=record_data)
    return cluster.node("spare0")


def header_and_bytes(nbytes, record_data=True, seed=3):
    """``(header-only image, its stream bytes)``: the image as the engine
    streams it, with the bytes a transport delivers (None if sized-only)."""
    proc = OSProcess.synthetic("r0", "node0", image_bytes=nbytes,
                               record_data=record_data,
                               rng=np.random.default_rng(seed))
    snap = CheckpointImage.snapshot(proc)
    header = CheckpointImage(snap.proc_name, snap.origin_node, snap.layout,
                             snap.app_state, payload=None)
    return header, snap.payload


def chunk(payload, offset, nbytes):
    return np.frombuffer(payload[offset:offset + nbytes], dtype=np.uint8)


# ----------------------------------------------------------- memory sink
def test_memory_sink_reassembles_payload_from_shuffled_chunks():
    sim = Simulator()
    sink = MemorySink(sim)
    image, payload = header_and_bytes(3000)

    def run(sim):
        # Arrival order is the transport's business, not the sink's.
        for off in (2000, 0, 1000):
            yield from sink.write(image, off, 1000, chunk(payload, off, 1000))
        yield from sink.finalize(image)

    drive(sim, run(sim))
    rebuilt = sink.images["r0"]
    assert rebuilt.payload == payload
    assert rebuilt.layout == image.layout
    assert rebuilt.app_state == image.app_state


def test_memory_sink_short_stream_raises():
    sim = Simulator()
    sink = MemorySink(sim)
    image, _ = header_and_bytes(2000, record_data=False)

    def run(sim):
        yield from sink.write(image, 0, 500, None)
        with pytest.raises(RuntimeError, match="500/2000"):
            yield from sink.finalize(image)

    drive(sim, run(sim))
    assert "r0" not in sink.images


def test_memory_sink_sized_only_keeps_header_image():
    sim = Simulator()
    sink = MemorySink(sim)
    image, payload = header_and_bytes(1000, record_data=False)
    assert payload is None

    def run(sim):
        yield from sink.write(image, 0, 1000, None)
        yield from sink.finalize(image)

    drive(sim, run(sim))
    assert sink.images["r0"] is image


# ------------------------------------------------------------- file sink
def test_file_sink_writes_each_proc_to_its_own_tmp_file():
    """The migration target's file sink: one temp file per process, whose
    path maps to the image header a restart reads it back with."""
    sim = Simulator()
    target = spare(sim, record_data=True)
    sink = SINKS["file"](sim, target)
    image, payload = header_and_bytes(2000, seed=2)

    def run(sim):
        yield from sink.write(image, 1000, 1000, chunk(payload, 1000, 1000))
        yield from sink.write(image, 0, 1000, chunk(payload, 0, 1000))
        yield from sink.finalize(image)

    drive(sim, run(sim))
    assert sink.metadata == {"/tmp/migrate/r0.ckpt": image}
    assert target.fs.size("/tmp/migrate/r0.ckpt") == 2000
    assert bytes(target.fs.files["/tmp/migrate/r0.ckpt"].data) == payload


def test_file_sink_concurrent_first_writers_create_the_file_once():
    """Two writers land the first chunks of one image at the same instant,
    out of order: the first creates the file, the second waits on its
    gate, and every byte lands at its stream offset."""
    sim = Simulator()
    target = spare(sim, record_data=True)
    fs = target.fs
    created = []
    create = fs.create

    def counting_create(path):
        created.append(path)
        return (yield from create(path))

    fs.create = counting_create
    sink = FileSink(sim, fs, "/tmp/migrate", fsync=False, through_cache=True)
    image, payload = header_and_bytes(2000, seed=5)

    def writer(offset):
        yield from sink.write(image, offset, 1000,
                              chunk(payload, offset, 1000))

    def run(sim):
        yield sim.all_of([sim.spawn(writer(1000)), sim.spawn(writer(0))])
        yield from sink.finalize(image)

    drive(sim, run(sim))
    assert created == ["/tmp/migrate/r0.ckpt"]
    assert bytes(fs.files["/tmp/migrate/r0.ckpt"].data) == payload
    assert sink.metadata == {"/tmp/migrate/r0.ckpt": image}
