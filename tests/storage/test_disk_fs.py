"""Tests for Disk, BufferCache and LocalFS."""

import numpy as np
import pytest

from repro.params import DiskParams
from repro.simulate import Simulator
from repro.storage import BufferCache, Disk, FileExists, FileNotFoundInFS, LocalFS


def make_fs(record_data=False, **disk_kw):
    sim = Simulator()
    disk = Disk(sim, "n0", params=DiskParams(**disk_kw) if disk_kw else None)
    fs = LocalFS(sim, disk, record_data=record_data)
    return sim, disk, fs


# ------------------------------------------------------------------- Disk
def test_disk_write_rate():
    sim = Simulator()
    disk = Disk(sim, "n0")
    done = disk.write_stream(disk.params.write_bandwidth)  # 1 s of writes
    sim.run(until=done)
    assert sim.now == pytest.approx(1.0, rel=1e-6)


def test_disk_read_degrades_with_streams():
    sim = Simulator()
    disk = Disk(sim, "n0")
    one_sec = disk.params.read_bandwidth
    # 8 concurrent streams, each 1/8 of a second of raw reads.
    events = [disk.read_stream(one_sec / 8) for _ in range(8)]
    sim.run(until=sim.all_of(events))
    eff = disk.params.read_efficiency
    expected = 1.0 / max(eff["floor"], 1 - eff["per_stream"] * 7)
    assert sim.now == pytest.approx(expected, rel=1e-2)
    assert sim.now > 1.5  # materially slower than the single-stream second


def test_disk_sync_serializes():
    sim = Simulator()
    disk = Disk(sim, "n0")
    times = []

    def syncer(sim, disk):
        yield from disk.sync()
        times.append(sim.now)

    for _ in range(4):
        sim.spawn(syncer(sim, disk))
    sim.run()
    expected = [disk.params.sync_cost * i for i in range(1, 5)]
    assert times == pytest.approx(expected)


def test_disk_byte_counters():
    sim = Simulator()
    disk = Disk(sim, "n0")
    sim.run(until=sim.all_of([disk.write_stream(1000), disk.read_stream(500)]))
    assert disk.bytes_written == 1000
    assert disk.bytes_read == 500


# -------------------------------------------------------------- BufferCache
def test_cache_absorbs_burst_at_memory_speed():
    sim = Simulator()
    disk = Disk(sim, "n0")
    cache = BufferCache(sim, disk, capacity_bytes=100e6, memory_bandwidth=2.4e9)

    def writer(sim):
        yield from cache.write(50e6)  # fits in cache
        return sim.now

    p = sim.spawn(writer(sim))
    sim.run(until=p)
    # Memory speed: ~21 ms, vs ~0.4 s at disk speed.
    assert p.value < 0.05


def test_cache_throttles_when_dirty_limit_hit():
    sim = Simulator()
    disk = Disk(sim, "n0")
    cache = BufferCache(sim, disk, capacity_bytes=50e6, memory_bandwidth=2.4e9)

    def writer(sim):
        yield from cache.write(200e6)  # 4x the cache
        return sim.now

    p = sim.spawn(writer(sim))
    sim.run()
    # Sustained writes converge to ~disk rate for the overflow part.
    t_disk_only = 200e6 / disk.params.write_bandwidth
    assert p.value > 0.5 * t_disk_only


def test_cache_flush_waits_for_writeback():
    sim = Simulator()
    disk = Disk(sim, "n0")
    cache = BufferCache(sim, disk, capacity_bytes=100e6)

    def writer(sim):
        yield from cache.write(63e6)
        t_cached = sim.now
        yield from cache.flush()
        return t_cached, sim.now

    p = sim.spawn(writer(sim))
    sim.run()
    t_cached, t_flushed = p.value
    assert t_flushed - t_cached > 0.3  # 63 MB at 126 MB/s ~= 0.5 s
    assert disk.bytes_written == pytest.approx(63e6)


# ------------------------------------------------------------------ LocalFS
def test_fs_create_write_read_roundtrip_bytes():
    sim, disk, fs = make_fs(record_data=True)
    payload = np.arange(4096, dtype=np.uint8) % 251

    def proc(sim):
        h = yield from fs.create("/tmp/ckpt.0")
        yield from fs.write(h, payload.nbytes, data=payload)
        yield from fs.close(h, sync=True)
        h2 = yield from fs.open("/tmp/ckpt.0")
        data = yield from fs.read(h2)
        return data

    p = sim.spawn(proc(sim))
    sim.run()
    np.testing.assert_array_equal(p.value, payload)


def test_fs_read_into_places_copies_in_place():
    sim, disk, fs = make_fs(record_data=True)
    payload = np.arange(4096, dtype=np.uint8) % 251
    dest = bytearray(1000)

    def proc(sim):
        h = yield from fs.create("/tmp/ckpt.0")
        yield from fs.write(h, payload.nbytes, data=payload)
        h2 = yield from fs.open("/tmp/ckpt.0")
        got = yield from fs.read(h2, nbytes=2048,
                                 into=[(1500, 1000, memoryview(dest))])
        return got, h2.pos

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == (None, 2048)
    # Only the part of the place inside the read window is filled.
    assert dest[:548] == payload[1500:2048].tobytes()
    assert dest[548:] == bytes(452)


def test_fs_sized_only_mode_returns_none():
    sim, disk, fs = make_fs(record_data=False)

    def proc(sim):
        h = yield from fs.create("/a")
        yield from fs.write(h, 1000)
        h2 = yield from fs.open("/a")
        return (yield from fs.read(h2))

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value is None
    assert fs.size("/a") == 1000


def test_fs_create_existing_raises():
    sim, disk, fs = make_fs()

    def proc(sim):
        yield from fs.create("/a")
        with pytest.raises(FileExists):
            yield from fs.create("/a")

    sim.spawn(proc(sim))
    sim.run()


def test_fs_open_missing_raises():
    sim, disk, fs = make_fs()

    def proc(sim):
        with pytest.raises(FileNotFoundInFS):
            yield from fs.open("/ghost")
        yield sim.timeout(0)

    sim.spawn(proc(sim))
    sim.run()


def test_fs_read_past_eof_raises():
    sim, disk, fs = make_fs()

    def proc(sim):
        h = yield from fs.create("/a")
        yield from fs.write(h, 100)
        h2 = yield from fs.open("/a")
        with pytest.raises(ValueError):
            yield from fs.read(h2, nbytes=200)

    sim.spawn(proc(sim))
    sim.run()


def test_fs_closed_handle_rejected():
    sim, disk, fs = make_fs()

    def proc(sim):
        h = yield from fs.create("/a")
        yield from fs.close(h)
        with pytest.raises(ValueError):
            yield from fs.write(h, 10)

    sim.spawn(proc(sim))
    sim.run()


def test_fs_unlink_and_listdir():
    sim, disk, fs = make_fs()

    def proc(sim):
        for name in ("/ckpt/a", "/ckpt/b", "/other/c"):
            yield from fs.create(name)

    sim.spawn(proc(sim))
    sim.run()
    assert fs.listdir("/ckpt/") == ["/ckpt/a", "/ckpt/b"]
    fs.unlink("/ckpt/a")
    assert not fs.exists("/ckpt/a")
    with pytest.raises(FileNotFoundInFS):
        fs.unlink("/ckpt/a")


def test_fs_fsync_costs_journal_commit():
    sim, disk, fs = make_fs()

    def proc(sim):
        h = yield from fs.create("/a")
        yield from fs.write(h, 1000)
        t0 = sim.now
        yield from fs.fsync(h)
        return sim.now - t0

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value >= disk.params.sync_cost


def test_fs_sequential_writes_advance_position():
    sim, disk, fs = make_fs(record_data=True)
    a = np.full(10, 1, dtype=np.uint8)
    b = np.full(10, 2, dtype=np.uint8)

    def proc(sim):
        h = yield from fs.create("/a")
        yield from fs.write(h, 10, data=a)
        yield from fs.write(h, 10, data=b)
        h2 = yield from fs.open("/a")
        return (yield from fs.read(h2))

    p = sim.spawn(proc(sim))
    sim.run()
    np.testing.assert_array_equal(p.value, np.concatenate([a, b]))
