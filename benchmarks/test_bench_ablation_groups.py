"""Ablation — group-based coordinated checkpointing (paper ref. [13]).

Gao et al.'s technique, cited by the paper as part of MVAPICH2's CR
lineage: checkpoint ranks in staggered waves instead of all at once, so
fewer concurrent streams hammer the shared filesystem.  This bench sweeps
the group size for CR-to-PVFS — the regime where the paper's own Figure 7
shows contention collapsing throughput — and locates the trade-off between
contention relief and wave serialization.
"""

import pytest

from repro.analysis import render_table
from repro.experiments import FAILURE_AT, FIG7

GROUPS = [8, 16, 32, 64]


def one(group_size: int):
    sc = FIG7["BT.C"]["cr_pvfs"].scenario()
    strategy = sc.cr_strategy("pvfs")
    strategy.group_size = group_size

    def drive(sim):
        yield sim.timeout(FAILURE_AT)
        return (yield from strategy.checkpoint())

    return sc.sim.run(until=sc.sim.spawn(drive(sc.sim)))


@pytest.fixture(scope="module")
def reports():
    return {g: one(g) for g in GROUPS}


def test_bench_group_based_cr(benchmark, reports):
    benchmark.pedantic(one, args=(64,), rounds=1, iterations=1)

    rows = {
        f"group {g}" + (" (paper: all-at-once)" if g == 64 else ""): {
            "checkpoint (s)": r.checkpoint_seconds,
            "total (s)": r.total_seconds,
        }
        for g, r in reports.items()
    }
    print()
    print(render_table("Ablation — group-based CR to PVFS (BT.C.64)", rows))

    # Moderate groups relieve server contention enough to beat the
    # all-at-once dump despite wave serialization.
    best = min(r.checkpoint_seconds for r in reports.values())
    assert best < reports[64].checkpoint_seconds * 0.95
    # Bytes written are identical regardless of grouping.
    sizes = {r.bytes_written for r in reports.values()}
    assert len(sizes) == 1
