"""Copy budget of the migration data path.

A record_data migration may allocate, beyond the job's own address
spaces, about one copy of the migrated bytes (the target's reassembled
checkpoint files, while the restarted processes take over the victims'
share) plus the two pinned buffer pools.  Extra full-image copies in the
checkpoint stream, the filesystem or the restart read push the peak past
the budget.
"""

import dataclasses
import tracemalloc

from repro import Scenario
from repro.params import MB, NPB_TABLE


def test_record_data_migration_stays_within_copy_budget(monkeypatch):
    # LU.C's layout at a test-sized footprint: 2 ranks of ~23 MB migrate.
    monkeypatch.setitem(NPB_TABLE, "LU.T", dataclasses.replace(
        NPB_TABLE["LU.C"], app_memory=72 * MB))
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
