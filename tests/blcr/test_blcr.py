"""Tests for checkpoint images, the checkpoint engine and restart engines."""

import mmap

import numpy as np
import pytest

from repro.blcr import (
    CheckpointEngine,
    CheckpointImage,
    FileSink,
    MemorySink,
    RestartEngine,
    RestartError,
)
from repro.cluster import OSProcess
from repro.params import DiskParams
from repro.simulate import Simulator
from repro.storage import Disk, LocalFS


def data_proc(name="rank0", node="node0", nbytes=50_000):
    return OSProcess.synthetic(name, node, image_bytes=nbytes, record_data=True,
                               rng=np.random.default_rng(1))


def on_mappings(proc):
    """Whether every segment's bytes are an anonymous page mapping."""
    def mapped(array):
        while isinstance(array, np.ndarray):
            array = array.base
        return isinstance(array, memoryview) and isinstance(array.obj,
                                                            mmap.mmap)
    return all(mapped(seg.data) for seg in proc.segments if seg.nbytes)


# -------------------------------------------------------------------- image
def test_snapshot_copy_semantics():
    proc = data_proc()
    proc.app_state["iteration"] = 7
    image = CheckpointImage.snapshot(proc)
    # Mutate the live process after the snapshot.
    proc.app_state["iteration"] = 99
    proc.segments[2].data[:] = 0
    assert image.app_state["iteration"] == 7
    assert image.checksum() != CheckpointImage.snapshot(proc).checksum()


def test_snapshot_materialize_roundtrip():
    proc = data_proc()
    proc.app_state["x"] = [1, 2, 3]
    image = CheckpointImage.snapshot(proc)
    clone = image.materialize("spare0")
    assert clone.node == "spare0"
    assert clone.name == proc.name
    assert clone.app_state == {"x": [1, 2, 3]}
    assert clone.image_bytes == proc.image_bytes
    for a, b in zip(proc.segments, clone.segments):
        np.testing.assert_array_equal(a.data, b.data)
    assert on_mappings(clone)


def test_image_slice_and_bounds():
    proc = data_proc(nbytes=1000)
    image = CheckpointImage.snapshot(proc)
    whole = image.slice(0, 1000)
    assert whole.nbytes == 1000
    with pytest.raises(ValueError):
        image.slice(990, 20)
    with pytest.raises(ValueError):
        image.slice(-1, 10)


def test_sized_only_image():
    proc = OSProcess.synthetic("r0", "n0", image_bytes=10_000, record_data=False)
    image = CheckpointImage.snapshot(proc)
    assert image.payload is None
    assert image.nbytes == 10_000
    assert image.slice(0, 100) is None
    assert image.checksum() is None
    # Real bytes need a stream to draw from: there is no default.
    with pytest.raises(ValueError, match="rng"):
        OSProcess.synthetic("r0", "n0", image_bytes=10_000, record_data=True)


def test_checksum_order_sensitive():
    a = OSProcess("p", "n")
    a.add_segment("s", 4, np.array([1, 2, 3, 4], dtype=np.uint8))
    b = OSProcess("p", "n")
    b.add_segment("s", 4, np.array([4, 3, 2, 1], dtype=np.uint8))
    assert (CheckpointImage.snapshot(a).checksum()
            != CheckpointImage.snapshot(b).checksum())


def test_payload_length_validated():
    with pytest.raises(ValueError):
        CheckpointImage("p", "n", [("s", 10)], {}, b"short")


# ----------------------------------------------------------------- engine
def test_checkpoint_to_memory_sink_complete_and_exact():
    sim = Simulator()
    engine = CheckpointEngine(sim, "node0")
    sink = MemorySink(sim)
    proc = data_proc(nbytes=70_000)
    src_sum = CheckpointImage.snapshot(proc).checksum()

    def run(sim):
        image = yield from engine.checkpoint(proc, sink, chunk_bytes=4096)
        return image

    p = sim.spawn(run(sim))
    sim.run()
    assert sink.bytes_received == 70_000
    assert sink.images["rank0"].checksum() == src_sum
    assert sim.now >= engine.params.checkpoint_proc_overhead


def test_checkpoint_scan_time_scales_with_size():
    def time_for(nbytes):
        sim = Simulator()
        engine = CheckpointEngine(sim, "node0")
        sink = MemorySink(sim)
        proc = OSProcess.synthetic("r", "n0", image_bytes=nbytes)

        def run(sim):
            yield from engine.checkpoint(proc, sink)

        sim.spawn(run(sim))
        sim.run()
        return sim.now

    t1, t2 = time_for(10_000_000), time_for(100_000_000)
    assert t2 > 5 * t1


def test_concurrent_checkpoints_share_membus():
    sim = Simulator()
    engine = CheckpointEngine(sim, "node0")
    nbytes = 200_000_000  # large enough that the bus dominates

    def run(sim):
        sink = MemorySink(sim)
        proc = OSProcess.synthetic("r", "n0", image_bytes=nbytes)
        yield from engine.checkpoint(proc, sink)

    procs = [sim.spawn(run(sim)) for _ in range(8)]
    sim.run(until=sim.all_of(procs))
    t8 = sim.now
    # Aggregate limited by the node bus, not 8x the per-proc rate.
    bus_bound = 8 * nbytes / engine.params.node_memory_bandwidth
    assert t8 == pytest.approx(bus_bound, rel=0.25)


def test_checkpoint_dead_process_rejected():
    sim = Simulator()
    engine = CheckpointEngine(sim, "node0")
    proc = data_proc()
    proc.kill()

    def run(sim):
        with pytest.raises(RuntimeError):
            yield from engine.checkpoint(proc, MemorySink(sim))

    sim.spawn(run(sim))
    sim.run()


def test_checkpoint_bad_chunk_size():
    sim = Simulator()
    engine = CheckpointEngine(sim, "node0")

    def run(sim):
        with pytest.raises(ValueError):
            yield from engine.checkpoint(data_proc(), MemorySink(sim),
                                         chunk_bytes=0)

    sim.spawn(run(sim))
    sim.run()


# ----------------------------------------------------------- file roundtrip
def test_checkpoint_file_restart_roundtrip():
    sim = Simulator()
    disk = Disk(sim, "node0")
    fs = LocalFS(sim, disk, record_data=True)
    engine = CheckpointEngine(sim, "node0")
    restart = RestartEngine(sim, "node0")
    sink = FileSink(sim, fs, "/ckpt", fsync=True)
    proc = data_proc(nbytes=60_000)
    proc.app_state["step"] = 41
    src_sum = CheckpointImage.snapshot(proc).checksum()

    def run(sim):
        image = yield from engine.checkpoint(proc, sink, chunk_bytes=8192)
        path = sink.path_for(image)
        assert fs.size(path) == 60_000
        clone = yield from restart.restart_from_file(
            fs, path, metadata=sink.metadata[path])
        return clone

    p = sim.spawn(run(sim))
    sim.run()
    clone = p.value
    assert clone.app_state["step"] == 41
    assert CheckpointImage.snapshot(clone).checksum() == src_sum
    assert on_mappings(clone)


def test_restart_missing_file_raises():
    sim = Simulator()
    fs = LocalFS(sim, Disk(sim, "node0"))
    restart = RestartEngine(sim, "node0")

    def run(sim):
        with pytest.raises(RestartError):
            yield from restart.restart_from_file(fs, "/ghost", metadata=None)
        yield sim.timeout(0)

    sim.spawn(run(sim))
    sim.run()


def test_restart_truncated_file_raises():
    sim = Simulator()
    fs = LocalFS(sim, Disk(sim, "node0"))
    restart = RestartEngine(sim, "node0")
    proc = OSProcess.synthetic("r0", "node0", image_bytes=1000)
    image = CheckpointImage.snapshot(proc)

    def run(sim):
        h = yield from fs.create("/short.ckpt")
        yield from fs.write(h, 500)  # half the image
        with pytest.raises(RestartError, match="truncated"):
            yield from restart.restart_from_file(fs, "/short.ckpt",
                                                 metadata=image)

    sim.spawn(run(sim))
    sim.run()


def test_memory_restart_faster_than_file_restart():
    nbytes = 40_000_000

    def file_time():
        sim = Simulator()
        fs = LocalFS(sim, Disk(sim, "node0"))
        engine = CheckpointEngine(sim, "node0")
        restart = RestartEngine(sim, "node0")
        sink = FileSink(sim, fs, "/ckpt", fsync=False, through_cache=True)
        proc = OSProcess.synthetic("r0", "node0", image_bytes=nbytes)

        def run(sim):
            image = yield from engine.checkpoint(proc, sink)
            t0 = sim.now
            yield from restart.restart_from_file(
                fs, sink.path_for(image), metadata=image)
            return sim.now - t0

        p = sim.spawn(run(sim))
        sim.run()
        return p.value

    def mem_time():
        sim = Simulator()
        engine = CheckpointEngine(sim, "node0")
        restart = RestartEngine(sim, "node0")
        sink = MemorySink(sim)
        proc = OSProcess.synthetic("r0", "node0", image_bytes=nbytes)

        def run(sim):
            image = yield from engine.checkpoint(proc, sink)
            t0 = sim.now
            yield from restart.restart_from_memory(image)
            return sim.now - t0

        p = sim.spawn(run(sim))
        sim.run()
        return p.value

    assert mem_time() < file_time() / 5


def test_memory_restart_preserves_state():
    sim = Simulator()
    restart = RestartEngine(sim, "spare0")
    proc = data_proc()
    proc.app_state["counter"] = 123
    image = CheckpointImage.snapshot(proc)

    def run(sim):
        return (yield from restart.restart_from_memory(image))

    p = sim.spawn(run(sim))
    sim.run()
    assert p.value.app_state["counter"] == 123
    assert p.value.node == "spare0"


def test_memory_restart_truncated_image_raises():
    sim = Simulator()
    restart = RestartEngine(sim, "spare0")
    proc = data_proc(nbytes=1000)
    image = CheckpointImage.snapshot(proc)
    # Corrupt the resident payload after construction (the constructor
    # itself rejects a short payload, so lose bytes the way a buggy
    # reassembly would: in place).
    image.payload = image.payload[:500]

    def run(sim):
        with pytest.raises(RestartError, match="truncated"):
            yield from restart.restart_from_memory(image)
        yield sim.timeout(0)

    sim.spawn(run(sim))
    sim.run()


def test_memory_restart_none_image_raises():
    sim = Simulator()
    restart = RestartEngine(sim, "spare0")

    def run(sim):
        with pytest.raises(RestartError, match="no resident image"):
            yield from restart.restart_from_memory(None)
        yield sim.timeout(0)

    sim.spawn(run(sim))
    sim.run()


def test_memory_restart_metrics_and_span_parity_with_file():
    """Both restart paths are equally observable: one `blcr.restart` span
    with mode/proc/node/nbytes, and a byte counter of the same value."""
    from repro.simulate import MetricsRegistry, Tracer

    nbytes = 60_000

    def observe(mode):
        tracer, registry = Tracer(), MetricsRegistry()
        sim = Simulator(trace=tracer, metrics=registry)
        engine = CheckpointEngine(sim, "node0")
        restart = RestartEngine(sim, "spare0")
        proc = data_proc(nbytes=nbytes)

        if mode == "file":
            fs = LocalFS(sim, Disk(sim, "spare0"), record_data=True)
            sink = FileSink(sim, fs, "/ckpt", fsync=False,
                            through_cache=True)

            def run(sim):
                image = yield from engine.checkpoint(proc, sink)
                yield from restart.restart_from_file(
                    fs, sink.path_for(image), metadata=image)
        else:
            sink = MemorySink(sim)

            def run(sim):
                image = yield from engine.checkpoint(proc, sink)
                yield from restart.restart_from_memory(image)

        sim.spawn(run(sim))
        sim.run()
        return tracer, registry

    counters = {"file": "blcr.restart.bytes_read",
                "memory": "blcr.restart.bytes_memory"}
    for mode in ("file", "memory"):
        tracer, registry = observe(mode)
        ends = [r for r in tracer.of_kind("blcr.restart.end")
                if r.get("mode") == mode]
        assert len(ends) == 1
        rec = ends[0]
        assert rec.get("proc") == "rank0"
        assert rec.get("node") == "spare0"
        assert rec.get("nbytes") == nbytes
        assert rec.get("duration") > 0
        assert registry.counter(counters[mode]).value == nbytes
