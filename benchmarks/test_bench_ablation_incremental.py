"""Ablation — incremental checkpointing vs workload dirty footprint.

A natural extension in the lineage of the authors' write-aggregation work:
capture only segments dirtied since the last epoch.  Whether it pays
depends entirely on the application's write footprint — NPB solvers rewrite
their solution arrays every sweep, so little stays clean.  This bench
measures both regimes:

* NPB LU.C.64 (heap+stack re-dirty every iteration): modest savings;
* a synthetic read-mostly service (only the stack re-dirties): dramatic
  savings — and the restart-side price of reading the delta chain.
"""

import pytest

from repro.analysis import render_table
from repro.experiments import FAILURE_AT, FIG7


def run_epochs(incremental: bool, touch_names, n_epochs=3):
    sc = FIG7["LU.C"]["cr_ext3"].scenario()
    strat = sc.cr_strategy("ext3")
    strat.incremental = incremental

    def drive(sim):
        yield sim.timeout(FAILURE_AT)
        reports = []
        for _ in range(n_epochs):
            reports.append((yield from strat.checkpoint()))
            # Between epochs the workload dirties its footprint.
            for rank in sc.job.ranks:
                rank.osproc.touch(touch_names)
            yield sim.timeout(0.2)
        restart = yield from strat.restart()
        return reports, restart

    return sc.sim.run(until=sc.sim.spawn(drive(sc.sim)))


@pytest.fixture(scope="module")
def results():
    out = {}
    # NPB-like: heap+stack (the bulk of the image) re-dirty.
    out["full / npb-like"] = run_epochs(False, ["heap", "stack"])
    out["incremental / npb-like"] = run_epochs(True, ["heap", "stack"])
    # Read-mostly: only the stack re-dirties between epochs.
    out["incremental / read-mostly"] = run_epochs(True, ["stack"])
    return out


def test_bench_incremental(benchmark, results):
    benchmark.pedantic(run_epochs, args=(True, ["stack"]), rounds=1,
                       iterations=1)

    rows = {}
    for label, (reports, restart) in results.items():
        rows[label] = {
            "epoch1 ckpt (s)": reports[0].checkpoint_seconds,
            "epoch3 ckpt (s)": reports[-1].checkpoint_seconds,
            "epoch3 written (MB)": reports[-1].bytes_written / 1e6,
            "restart (s)": restart.restart_seconds,
            "restart read (MB)": restart.bytes_read / 1e6,
        }
    print()
    print(render_table("Ablation — incremental checkpointing (LU.C.64, ext3)",
                       rows, unit="mixed", digits=1))

    full = results["full / npb-like"]
    inc_npb = results["incremental / npb-like"]
    inc_ro = results["incremental / read-mostly"]

    # Epoch 1 is a full dump in every mode.
    assert inc_npb[0][0].bytes_written == pytest.approx(
        full[0][0].bytes_written)
    # NPB-like: later epochs save only the text/data slice (~modest).
    assert inc_npb[0][-1].bytes_written < full[0][-1].bytes_written
    assert inc_npb[0][-1].bytes_written > 0.5 * full[0][-1].bytes_written
    # Read-mostly: later epochs shrink dramatically (stack is ~1 MB/rank).
    assert inc_ro[0][-1].bytes_written < 0.1 * full[0][-1].bytes_written
    assert inc_ro[0][-1].checkpoint_seconds < full[0][-1].checkpoint_seconds
    # The restart-side price: incremental chains read more than one epoch.
    assert inc_ro[1].bytes_read > full[1].bytes_read
