"""Table I — Amount of Data Movement (MB).

Byte-accounted, not estimated: the migration column counts what the RDMA
session actually pulled; the CR column counts what the checkpoint sinks
actually wrote.  These must match the paper's table *exactly* because the
image-size model was fitted to it — this bench is the closing of that loop.
"""

import pytest

from repro.analysis import render_table
from repro.experiments import PAPER_TABLE1_MB, TABLE1


def measure(app: str):
    """MB migrated by the Fig. 4 migration and dumped by the Fig. 7
    checkpoint to ext3."""
    migration = TABLE1[app]["migration"].execute()
    ckpt, _ = TABLE1[app]["cr"].execute()
    return migration.bytes_migrated / 1e6, ckpt.bytes_written / 1e6


@pytest.fixture(scope="module")
def results():
    return {app: measure(app) for app in TABLE1}


def test_bench_table1(benchmark, results):
    benchmark.pedantic(measure, args=("LU.C",), rounds=1, iterations=1)

    rows = {}
    for app, (mig_mb, cr_mb) in results.items():
        rows[f"{app}.64"] = {
            "Job Migration (MB)": mig_mb,
            "paper": PAPER_TABLE1_MB[app]["migration"],
            "CR (MB)": cr_mb,
            "paper CR": PAPER_TABLE1_MB[app]["cr"],
        }
    print()
    print(render_table("Table I — amount of data movement", rows, unit="MB",
                       digits=1))

    for app, (mig_mb, cr_mb) in results.items():
        paper = PAPER_TABLE1_MB[app]
        assert mig_mb == pytest.approx(paper["migration"], rel=1e-3), app
        assert cr_mb == pytest.approx(paper["cr"], rel=1e-3), app
        # CR dumps 8x the data (64 ranks vs the 8 on the failing node).
        assert cr_mb / mig_mb == pytest.approx(8.0, rel=1e-3), app
