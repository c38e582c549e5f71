"""Figure 7 (a/b/c) — Comparing Job Migration with Checkpoint/Restart.

For each NPB application at 64 ranks: one migration cycle versus a full-job
checkpoint (+ restart) to local ext3 and to PVFS.  Also derives the paper's
headline speedups (4.49x over CR-to-PVFS, 2.03x over CR-to-ext3 for
LU.C.64).
"""

import pytest

from repro.analysis import render_stacked, render_table
from repro.experiments import (
    FIG7,
    PAPER_FIG7,
    PAPER_SPEEDUP_EXT3,
    PAPER_SPEEDUP_PVFS,
    fig7_row,
)


def run_app(app: str):
    """The app's Fig. 7 runs -> (their results, the Fig. 7 row)."""
    results = {kind: run.execute() for kind, run in FIG7[app].items()}
    return results, fig7_row(results)


@pytest.fixture(scope="module")
def results():
    return {app: run_app(app) for app in FIG7}


def test_bench_fig7(benchmark, results):
    benchmark.pedantic(run_app, args=("LU.C",), rounds=1, iterations=1)

    for app, (measured, row) in results.items():
        rows = {"Migration": row["migration"],
                "CR(ext3)": row["cr_ext3"], "CR(pvfs)": row["cr_pvfs"]}
        print()
        print(render_table(f"Figure 7 — {app}.64", rows))
        print(render_stacked(f"Figure 7 — {app}.64 stacks", {
            k: {kk: vv for kk, vv in v.items() if kk != "Total"}
            for k, v in rows.items()}))

        mig_total = measured["migration"].total_seconds
        total_ext3 = rows["CR(ext3)"]["Total"]
        total_pvfs = rows["CR(pvfs)"]["Total"]
        # Ordering: migration < CR(ext3) < CR(PVFS).
        assert mig_total < total_ext3 < total_pvfs, app
        # Checkpoint phases land near the paper's text-quoted values.
        ref = PAPER_FIG7.get(app, {})
        ckpt_ext3 = rows["CR(ext3)"]["Checkpoint(Migration)"]
        ckpt_pvfs = rows["CR(pvfs)"]["Checkpoint(Migration)"]
        if "ckpt_ext3" in ref:
            assert ref["ckpt_ext3"] / 1.6 <= ckpt_ext3 <= ref["ckpt_ext3"] * 1.6, app
        if "ckpt_pvfs" in ref:
            assert ref["ckpt_pvfs"] / 1.6 <= ckpt_pvfs <= ref["ckpt_pvfs"] * 1.6, app


def test_bench_fig7_headline_speedup(results):
    """LU.C.64: migration vs full CR cycles — the paper's 4.49x / 2.03x."""
    _, row = results["LU.C"]
    s_pvfs = row["speedup_pvfs"]
    s_ext3 = row["speedup_ext3"]
    print(f"\nHeadline: speedup over CR(PVFS) = {s_pvfs:.2f}x "
          f"(paper {PAPER_SPEEDUP_PVFS}x), over CR(ext3) = {s_ext3:.2f}x "
          f"(paper {PAPER_SPEEDUP_EXT3}x)")
    assert PAPER_SPEEDUP_PVFS / 1.5 <= s_pvfs <= PAPER_SPEEDUP_PVFS * 1.5
    assert PAPER_SPEEDUP_EXT3 / 1.5 <= s_ext3 <= PAPER_SPEEDUP_EXT3 * 1.5


def test_bench_fig7_ckpt_only_comparison(results):
    """Sec. IV-C: even ignoring restart, migration is comparable to
    CR(ext3) and clearly beats CR(PVFS) (paper: 2.58x for LU)."""
    measured, _ = results["LU.C"]
    migration = measured["migration"]
    ckpt_e, _ = measured["cr_ext3"]
    ckpt_p, _ = measured["cr_pvfs"]
    assert migration.total_seconds < ckpt_p.total_seconds
    ratio = ckpt_p.total_seconds / migration.total_seconds
    assert 1.5 < ratio < 4.5  # paper: 2.58x
    # "Comparable to CR with local ext3": same ballpark.
    assert migration.total_seconds < ckpt_e.total_seconds * 1.5
