"""Figure 6 — Scalability of the Job Migration Framework.

LU class C on 8 compute nodes with 1/2/4/8 ranks per node (8/16/32/64
ranks total); one migration each, decomposed into the four phases.  The
paper's observations to reproduce: Phase 2 stays low (RDMA migration is
efficient), Phase 3 grows with the per-node image volume, and the total
rises with task scale.
"""

import pytest

from repro import MigrationPhase
from repro.analysis import render_table
from repro.experiments import FIG6, PAPER_FIG6_TOTAL_S, PPNS


@pytest.fixture(scope="module")
def reports():
    return {ppn: run.execute() for ppn, run in FIG6.items()}


def test_bench_fig6(benchmark, reports):
    benchmark.pedantic(FIG6[8].execute, rounds=1, iterations=1)

    rows = {}
    for ppn, report in reports.items():
        row = report.as_row()
        row["paper total"] = PAPER_FIG6_TOTAL_S[ppn]
        rows[f"{ppn} ranks/node"] = row
    print()
    print(render_table("Figure 6 — migration time vs ranks per node "
                       "(LU.C, 8 nodes)", rows))

    totals = [reports[p].total_seconds for p in PPNS]
    # Total migration time grows with the task scale.
    assert all(a < b for a, b in zip(totals, totals[1:]))
    for ppn in PPNS:
        phases = reports[ppn].phase_seconds
        # Phase 2 "remains at a low level" at every scale.
        assert phases[MigrationPhase.MIGRATION] < 1.0, ppn
        # Phase 3 dominates at every scale.
        assert phases[MigrationPhase.RESTART] == max(phases.values()), ppn
        # Within 2x of the plot.
        assert (PAPER_FIG6_TOTAL_S[ppn] / 2
                <= reports[ppn].total_seconds
                <= PAPER_FIG6_TOTAL_S[ppn] * 2), ppn


def test_bench_fig6_restart_proportional_to_scale(reports):
    """Sec. IV-B: Phase-3 cost is in proportion to the task scale."""
    r1 = reports[1].phase_seconds[MigrationPhase.RESTART]
    r8 = reports[8].phase_seconds[MigrationPhase.RESTART]
    assert r8 > r1
    # Resume grows with rank count too (PMI exchange at the root).
    assert (reports[8].phase_seconds[MigrationPhase.RESUME]
            > reports[1].phase_seconds[MigrationPhase.RESUME] * 3)
