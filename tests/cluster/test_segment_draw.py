"""Segment bytes drawn on first read.

A ``record_data`` process draws its segments' bytes the first time any of
them is read, all at once and in segment order from the process's stream.
So the bytes equal a draw made when the job was built, a migration builds
only the bytes of the ranks it reads, and a process killed unread never
draws.
"""

import mmap
import tracemalloc

import numpy as np
import pytest

from repro import Scenario
from repro.cluster import Cluster, OSProcess
from repro.cluster.osproc import anon_pages
from repro.mpi import MPIJob
from repro.params import MB
from repro.simulate import Simulator
from repro.simulate.rng import RandomStreams

SEED = 3


def eager_draw(gen, proc):
    """What a build-time draw puts in ``proc``'s segments, in order."""
    return [gen.integers(0, 256, size=seg.nbytes, dtype=np.uint8)
            if seg.nbytes else None for seg in proc.segments]


def heap_first(segments):
    return sorted(segments, key=lambda seg: seg.name != "heap")


@pytest.mark.parametrize("order", ["forward", "reverse-heap-first"])
def test_bytes_equal_an_eager_draw_in_any_read_order(order):
    sim = Simulator()
    cluster = Cluster(sim, n_compute=2, n_spare=1, seed=SEED)
    job = MPIJob(sim, cluster, 4, image_bytes_per_rank=200_000,
                 record_data=True, name="job")
    ranks = job.ranks if order == "forward" else job.ranks[::-1]
    got = {}
    for rk in ranks:
        segments = rk.osproc.segments
        if order != "forward":
            segments = heap_first(segments)
        for seg in segments:
            got[rk.rank, seg.name] = seg.data
    streams = RandomStreams(SEED)
    for rk in job.ranks:
        want = eager_draw(streams.stream(f"job.rank{rk.rank}.mem"), rk.osproc)
        for seg, expected in zip(rk.osproc.segments, want):
            np.testing.assert_array_equal(got[rk.rank, seg.name], expected)


def test_building_record_data_lu_c_64_allocates_under_50_mb():
    tracemalloc.start()
    try:
        sc = Scenario.build(app="LU.C", nprocs=64, record_data=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(rk.osproc.image_bytes for rk in sc.job.ranks) > 1300 * MB
    assert peak < 50 * MB, f"build peaked at {peak / MB:.1f} MB"


def pending_process():
    return OSProcess.synthetic("r0", "node0", image_bytes=8 * MB,
                               record_data=True,
                               rng=np.random.default_rng(SEED))


def on_mapping(array):
    """Whether ``array``'s bytes are an anonymous page mapping."""
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(array, memoryview) and isinstance(array.obj, mmap.mmap)


def test_anon_pages_are_zeroed_writable_mappings():
    pages = anon_pages(3 * MB)
    assert pages.dtype == np.uint8 and pages.nbytes == 3 * MB
    assert on_mapping(pages) and not pages.any()
    pages[-1] = 7
    assert pages[-1] == 7
    assert anon_pages(0).nbytes == 0


def test_drawn_bytes_live_on_page_mappings_not_the_heap():
    proc = pending_process()
    tracemalloc.start()
    try:
        datas = [seg.data for seg in proc.segments]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(on_mapping(data) for data in datas if data.nbytes)
    # Only one draw step at a time passes through the heap.
    assert max(data.nbytes for data in datas) > 4 * MB
    assert peak < 2 * MB and held < MB


def test_size_and_dirty_reads_do_not_draw():
    proc = pending_process()
    tracemalloc.start()
    try:
        for seg in proc.segments:
            seg.nbytes, seg.dirty, repr(seg)
        proc.image_bytes, proc.dirty_bytes, repr(proc)
        proc.mark_clean()
        proc.touch(["heap"])
        proc.touch()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MB and held < MB
    # The bytes are still there to be drawn.
    assert all(seg.data is not None for seg in proc.segments)


def test_kill_before_any_read_never_draws():
    proc = pending_process()
    tracemalloc.start()
    try:
        proc.kill()
        datas = [seg.data for seg in proc.segments]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert datas == [None] * len(proc.segments)
    assert peak < MB
    assert proc.image_bytes == 8 * MB


def test_assigned_segment_survives_a_sibling_draw():
    proc = pending_process()
    heap = next(seg for seg in proc.segments if seg.name == "heap")
    mine = np.zeros(heap.nbytes, dtype=np.uint8)
    heap.data = mine
    text = proc.segments[0]
    assert text.data is not None  # draws the whole process
    assert heap.data is mine
    # The assigned segment's share was still consumed, so the segments
    # after it hold the same bytes as an eager draw.
    want = eager_draw(np.random.default_rng(SEED), proc)
    for seg, expected in zip(proc.segments, want):
        if seg is not heap:
            np.testing.assert_array_equal(seg.data, expected)
