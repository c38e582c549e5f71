"""Tests for the striped PVFS model."""

import numpy as np
import pytest

from repro.params import PVFSParams, MB
from repro.simulate import Simulator
from repro.network import IBFabric
from repro.storage import PVFS, FileExists, FileNotFoundInFS


def make(record_data=False, **kw):
    sim = Simulator()
    fab = IBFabric(sim)
    fab.attach("c0")
    pvfs = PVFS(sim, fab, params=PVFSParams(**kw) if kw else None,
                record_data=record_data)
    return sim, fab, pvfs


def test_servers_attached_to_fabric():
    sim, fab, pvfs = make()
    assert len(pvfs.servers) == 4
    for s in pvfs.servers:
        assert s.node in fab.hcas


def test_create_write_read_roundtrip_bytes():
    sim, fab, pvfs = make(record_data=True)
    payload = (np.arange(8 * 1024) % 256).astype(np.uint8)

    def proc(sim):
        h = yield from pvfs.create("/scratch/ckpt.0", client="c0")
        yield from pvfs.write(h, payload.nbytes, data=payload)
        yield from pvfs.close(h, sync=True)
        h2 = yield from pvfs.open("/scratch/ckpt.0", client="c0")
        return (yield from pvfs.read(h2))

    p = sim.spawn(proc(sim))
    sim.run()
    np.testing.assert_array_equal(p.value, payload)


def test_read_into_places_copies_in_place():
    sim, fab, pvfs = make(record_data=True)
    payload = (np.arange(8 * 1024) % 256).astype(np.uint8)
    dest = bytearray(payload.nbytes)

    def proc(sim):
        h = yield from pvfs.create("/scratch/ckpt.0", client="c0")
        yield from pvfs.write(h, payload.nbytes, data=payload)
        h2 = yield from pvfs.open("/scratch/ckpt.0", client="c0")
        return (yield from pvfs.read(
            h2, into=[(0, payload.nbytes, memoryview(dest))]))

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value is None
    assert dest == payload.tobytes()


def test_striping_spreads_bytes_evenly():
    sim, fab, pvfs = make()

    def proc(sim):
        h = yield from pvfs.create("/a", client="c0")
        yield from pvfs.write(h, 40 * MB)

    sim.spawn(proc(sim))
    sim.run()
    per_server = [s.bytes_written for s in pvfs.servers]
    assert sum(per_server) == 40 * MB
    assert max(per_server) - min(per_server) <= 1


def test_stripe_sizes_exact_partition():
    sim, fab, pvfs = make()
    parts = pvfs._stripe_sizes(10)
    assert sum(parts) == 10
    assert len(parts) == 4


def test_few_writers_faster_than_many():
    """Aggregate write time for the same total bytes grows when split
    across many concurrent streams (server-side contention).  Few-writer
    baseline is 4 (one per server) rather than 1, since a single stream is
    client-side capped, not server-bound."""
    total = 200 * MB

    def run(n_writers):
        sim, fab, pvfs = make()
        done = []

        def writer(sim, i):
            h = yield from pvfs.create(f"/f{i}", client="c0")
            yield from pvfs.write(h, total // n_writers)

        procs = [sim.spawn(writer(sim, i)) for i in range(n_writers)]
        sim.run(until=sim.all_of(procs))
        return sim.now

    t4, t32 = run(4), run(32)
    assert t32 > 1.5 * t4


def test_metadata_creates_serialize():
    sim, fab, pvfs = make()
    times = []

    def creator(sim, i):
        yield from pvfs.create(f"/f{i}", client="c0")
        times.append(sim.now)

    for i in range(5):
        sim.spawn(creator(sim, i))
    sim.run()
    gaps = np.diff(times)
    assert (gaps >= pvfs.params.create_cost * 0.99).all()


def test_create_existing_raises():
    sim, fab, pvfs = make()

    def proc(sim):
        yield from pvfs.create("/a", client="c0")
        with pytest.raises(FileExists):
            yield from pvfs.create("/a", client="c0")

    sim.spawn(proc(sim))
    sim.run()


def test_open_missing_raises():
    sim, fab, pvfs = make()

    def proc(sim):
        with pytest.raises(FileNotFoundInFS):
            yield from pvfs.open("/ghost", client="c0")
        yield sim.timeout(0)

    sim.spawn(proc(sim))
    sim.run()


def test_striped_write_and_read_refill_once_each():
    """A write's (or read's) four stripes start at one instant: the shared
    fluid component is refilled once per call, not once per stripe."""
    sim, fab, pvfs = make()
    net = fab.net
    seen = []

    def proc(sim):
        h = yield from pvfs.create("/a", client="c0")
        before = net.stats.recomputes
        yield from pvfs.write(h, 40 * MB)
        seen.append(net.stats.recomputes - before)
        h2 = yield from pvfs.open("/a", client="c0")
        before = net.stats.recomputes
        yield from pvfs.read(h2)
        seen.append(net.stats.recomputes - before)

    sim.spawn(proc(sim))
    sim.run()
    # One refill when the stripes start; the four equal stripes then drain
    # together and empty the component, which needs no refill.
    assert seen == [1, 1]


def test_read_accounting():
    sim, fab, pvfs = make()

    def proc(sim):
        h = yield from pvfs.create("/a", client="c0")
        yield from pvfs.write(h, 1000)
        h2 = yield from pvfs.open("/a", client="c0")
        yield from pvfs.read(h2, nbytes=1000, offset=0)

    sim.spawn(proc(sim))
    sim.run()
    assert pvfs.total_bytes_written == 1000
    assert pvfs.total_bytes_read == 1000


def test_heavy_contention_hits_efficiency_floor():
    """64 concurrent writers: aggregate rate approaches
    n_servers * server_bw * floor, the regime of the paper's CR(PVFS)."""
    sim = Simulator()
    fab = IBFabric(sim)
    for i in range(8):
        fab.attach(f"c{i}")
    pvfs = PVFS(sim, fab)
    per_file = 20 * MB

    def writer(sim, i):
        h = yield from pvfs.create(f"/f{i}", client=f"c{i % 8}")
        yield from pvfs.write(h, per_file)
        yield from pvfs.close(h, sync=True)

    procs = [sim.spawn(writer(sim, i)) for i in range(64)]
    sim.run(until=sim.all_of(procs))
    total = 64 * per_file
    p = pvfs.params
    floor_rate = p.n_servers * p.server_write_bandwidth * p.write_efficiency_floor
    t_min = total / (p.n_servers * p.server_write_bandwidth)
    t_floor = total / floor_rate
    assert sim.now > t_min * 1.5
    # Data time at the floor rate, plus at most the full (non-overlapped)
    # metadata serialization; in practice metadata overlaps the streams.
    # Lower bound below t_floor: during the create-serialization ramp only a
    # few streams are active, so efficiency is transiently above the floor.
    assert t_floor * 0.80 <= sim.now <= t_floor + 64 * (p.create_cost + p.sync_cost)
