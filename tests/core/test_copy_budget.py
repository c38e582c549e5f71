"""Copy budget of the migration and checkpoint/restart data paths.

A record_data migration may allocate, beyond the job's own address
spaces, about one copy of the migrated bytes (the target's reassembled
checkpoint files, while the restarted processes take over the victims'
share) plus the two pinned buffer pools.  Extra full-image copies in the
checkpoint stream, the filesystem or the restart read push the peak past
the budget.

A record_data checkpoint/restart cycle may allocate the checkpoint files
beyond the address spaces (the restarted processes take over the killed
ones' share) and little else: the checkpoint streams views into the
files, and the restart copies file blocks straight into the restored
address spaces.
"""

import dataclasses
import hashlib
import tracemalloc

import pytest

from repro import Scenario
from repro.params import MB, NPB_TABLE


def _lu_t(monkeypatch):
    """LU.C's layout at a test-sized footprint: 4 ranks of ~23 MB."""
    monkeypatch.setitem(NPB_TABLE, "LU.T", dataclasses.replace(
        NPB_TABLE["LU.C"], app_memory=72 * MB))


def test_record_data_migration_stays_within_copy_budget(monkeypatch):
    # 2 of the 4 ranks migrate.
    _lu_t(monkeypatch)
    tracemalloc.start()
    try:
        sc = Scenario.build(app="LU.T", nprocs=4, n_compute=2, n_spare=1,
                            iterations=4, record_data=True)
        victims = [rank.osproc for rank in sc.job.ranks_on("node1")]
        # A process draws its bytes on the first read; draw the victims'
        # now, so the baseline holds the address spaces the budget excludes.
        for proc in victims:
            for seg in proc.segments:
                seg.data
        built =tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = sc.run_migration("node1", at=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # File blocks are page mappings, outside tracemalloc's view; the files
    # are complete before the restart peak, so add what they hold.
    files = sum(f.allocated for node in sc.cluster.nodes.values()
                for f in node.fs.files.values())
    moved = report.bytes_migrated
    assert moved >= 32 * MB
    assert files >= moved
    pools = 2 * sc.cluster.testbed.migration.buffer_pool_size
    extra = peak - built + files
    assert extra <= 1.5 * moved + pools, (
        f"peak {extra / moved:.2f}x the {moved / MB:.1f} MB moved")
    # The source processes terminated at PIIC and released their bytes.
    assert all(not proc.alive for proc in victims)
    assert all(seg.data is None for proc in victims for seg in proc.segments)


def _digest(proc) -> bytes:
    h = hashlib.blake2b()
    for seg in proc.segments:
        if seg.data is not None:
            h.update(memoryview(seg.data))
    return h.digest()


@pytest.mark.parametrize("dest", ["ext3", "pvfs"])
def test_record_data_cr_cycle_stays_within_copy_budget(monkeypatch, dest):
    _lu_t(monkeypatch)
    tracemalloc.start()
    try:
        sc = Scenario.build(app="LU.T", nprocs=4, n_compute=2, n_spare=1,
                            iterations=4, record_data=True, with_pvfs=True)
        procs = [rank.osproc for rank in sc.job.ranks]
        before = [_digest(proc) for proc in procs]  # draws every rank
        images = sum(proc.image_bytes for proc in procs)
        built = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ckpt, restart = sc.run_cr_cycle(dest, at=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ckpt.bytes_written == restart.bytes_read == images >= 90 * MB
    filesystems = [node.fs for node in sc.cluster.nodes.values()]
    filesystems.append(sc.cluster.pvfs)
    files = sum(f.allocated for fs in filesystems for f in fs.files.values())
    assert files >= images
    # The files are page mappings tracemalloc does not see; the cycle's
    # heap (write and read buffers, chunk concatenations) stays under a
    # tenth of the images: a staging buffer per restart read window alone
    # breaks it.
    heap = peak - built
    assert heap <= 0.1 * images, (
        f"heap peak {heap / MB:.1f} MB above the built level on "
        f"{images / MB:.1f} MB of images")
    # Every rank was restarted from its file, with its bytes.
    assert all(not proc.alive for proc in procs)
    assert [_digest(rank.osproc) for rank in sc.job.ranks] == before
