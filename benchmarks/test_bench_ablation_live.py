"""Ablation — stop-and-copy (this paper) vs live pre-copy (Wang et al. [9]).

The paper distinguishes itself from the LAM/MPI live-migration line mainly
by transport (RDMA vs TCP), but the deeper design difference is *when* the
job stops: this paper stalls everyone first, [9] pre-copies while running.
This bench sweeps the application's dirty rate to map where each wins:

* read-mostly apps: pre-copy converges, downtime collapses to ~the stall;
* NPB-class solvers (dirty rate >> wire rate): pre-copy never converges —
  it degenerates to stop-and-copy *plus* wasted rounds, vindicating the
  paper's frozen-copy choice for tightly-coupled MPI.

Dirty rates are per source node (8 LU.C.64 ranks re-dirty ~8 x 16.3 MB per
0.64 s iteration ~= 204 MB/s).
"""

import pytest

from repro.analysis import render_table
from repro.core import LiveMigrationStrategy
from repro.experiments import FAILURE_AT, FIG4, PIPELINE

DIRTY_RATES = {
    "read-mostly (10 MB/s)": 1e7,
    "moderate (100 MB/s)": 1e8,
    "NPB LU.C-like (204 MB/s)": 2.04e8,
    "write-heavy (1 GB/s)": 1e9,
}

#: Pre-copy stops once a round leaves at most this fraction of the image.
STOP_FRACTION = 0.05


def run_live(dirty_rate: float, pipe_bandwidth=None):
    run = FIG4["LU.C"]
    sc = run.scenario()
    strat = LiveMigrationStrategy(sc.framework, max_rounds=4,
                                  stop_fraction=STOP_FRACTION,
                                  pipe_bandwidth=pipe_bandwidth)

    def drive(sim):
        yield sim.timeout(FAILURE_AT)
        return (yield from strat.migrate(run.source, dirty_rate=dirty_rate))

    return sc.sim.run(until=sc.sim.spawn(drive(sc.sim)))


def run_stop_and_copy(restart_mode="file"):
    return PIPELINE[restart_mode].execute()


@pytest.fixture(scope="module")
def results():
    live = {label: run_live(rate) for label, rate in DIRTY_RATES.items()}
    # Wang et al.'s actual transport: TCP over GigE (~118 MB/s).
    live["NPB-like over TCP (Wang [9])"] = run_live(2.04e8,
                                                    pipe_bandwidth=1.18e8)
    return live, run_stop_and_copy("file"), run_stop_and_copy("memory")


def test_bench_live_vs_stop_and_copy(benchmark, results):
    benchmark.pedantic(run_live, args=(1e7,), rounds=1, iterations=1)

    live, frozen, frozen_mem = results
    rows = {
        "stop-and-copy (paper, file restart)": {
            "downtime (s)": frozen.total_seconds,
            "total (s)": frozen.total_seconds,
            "bytes moved (MB)": frozen.bytes_migrated / 1e6,
            "rounds": 1.0,
        },
        "stop-and-copy (mem restart ext.)": {
            "downtime (s)": frozen_mem.total_seconds,
            "total (s)": frozen_mem.total_seconds,
            "bytes moved (MB)": frozen_mem.bytes_migrated / 1e6,
            "rounds": 1.0,
        },
    }
    for label, r in live.items():
        rows[f"live, {label}"] = {
            "downtime (s)": r.downtime_seconds,
            "total (s)": r.total_seconds,
            "bytes moved (MB)": (r.precopy_bytes + r.residual_bytes) / 1e6,
            "rounds": float(r.rounds),
        }
    print()
    print(render_table("Ablation — live pre-copy vs frozen copy (LU.C.64)",
                       rows, unit="mixed", digits=2))

    # Read-mostly: live migration wins big against the paper's file-based
    # restart (it skips both the copy and the file I/O in the window)...
    assert live["read-mostly (10 MB/s)"].downtime_seconds \
        < frozen.total_seconds / 3
    # ...but against the memory-restart extension the gap shrinks to the
    # copy time alone: the stall+resume floor dominates both.
    assert live["read-mostly (10 MB/s)"].downtime_seconds \
        < frozen_mem.total_seconds
    assert live["read-mostly (10 MB/s)"].downtime_seconds \
        > 0.6 * frozen_mem.total_seconds
    # Over RDMA, pre-copy converges even at LU.C's dirty rate (204 < 450
    # MB/s) — an interesting consequence of the fast wire — but still moves
    # ~1.8x the bytes for a downtime no better than the mem-restart frozen
    # copy.  Over Wang et al.'s actual TCP transport it diverges outright.
    npb_rdma = live["NPB LU.C-like (204 MB/s)"]
    assert npb_rdma.precopy_bytes > 1.5 * frozen.bytes_migrated
    npb_tcp = live["NPB-like over TCP (Wang [9])"]
    assert not npb_tcp.converged
    assert npb_tcp.residual_bytes > 0.9 * frozen.bytes_migrated
    # Write-heavy apps diverge even over RDMA.
    assert not live["write-heavy (1 GB/s)"].converged


def test_bench_live_precopy_cost_and_downtime_track_the_residual(results):
    """What pre-copy guarantees as the dirty rate rises.

    Downtime is *not* monotone in the dirty rate: pre-copy stops as soon
    as a round leaves at most ``STOP_FRACTION`` of the image dirty, so a
    faster-dirtying app can stop after more rounds with a smaller
    residual (100 MB/s converges after 2 rounds leaving 8.43 MB, 204 MB/s
    after 4 rounds leaving 7.21 MB) and a shorter downtime.  The stop
    window copies the residual, so downtime follows the residual, and
    the pre-copy cost follows the dirty rate.
    """
    live, frozen, _ = results
    runs = [live[k] for k in DIRTY_RATES]
    precopy = [r.precopy_bytes for r in runs]
    assert precopy == sorted(precopy) and len(set(precopy)) == len(precopy)
    totals = [r.total_seconds for r in runs]
    assert totals == sorted(totals)
    image = frozen.bytes_migrated
    for r in live.values():
        if r.converged:
            assert r.residual_bytes <= STOP_FRACTION * image
    by_residual = sorted(runs, key=lambda r: r.residual_bytes)
    downtimes = [r.downtime_seconds for r in by_residual]
    assert downtimes == sorted(downtimes)
    heavy = live["write-heavy (1 GB/s)"]
    assert not heavy.converged
    assert heavy.downtime_seconds == max(r.downtime_seconds for r in runs)
