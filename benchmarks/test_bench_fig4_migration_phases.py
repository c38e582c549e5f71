"""Figure 4 — Process Migration Overhead.

Regenerates the stacked-phase bars: one migration of 8 ranks (node3 →
spare0) for NPB LU/BT/SP class C at 64 ranks on 8 compute nodes, decomposed
into Job Stall / Job Migration / Restart / Resume.
"""

import pytest

from repro import MigrationPhase
from repro.analysis import render_stacked, render_table
from repro.experiments import (
    APPS,
    FIG4,
    PAPER_FIG4_PHASE2_RANGE_S,
    PAPER_FIG4_TOTAL_S,
)


@pytest.fixture(scope="module")
def reports():
    return {app: run.execute() for app, run in FIG4.items()}


def test_bench_fig4(benchmark, reports):
    benchmark.pedantic(FIG4["LU.C"].execute, rounds=1, iterations=1)

    rows = {f"{app}.64": r.as_row() for app, r in reports.items()}
    for app in APPS:
        rows[f"{app}.64"]["paper total"] = PAPER_FIG4_TOTAL_S[app]
    print()
    print(render_table("Figure 4 — migration cycle phases", rows))
    print(render_stacked("Figure 4 — stacked (ms-scale bars)", {
        label: {k: v for k, v in row.items() if k not in ("Total", "paper total")}
        for label, row in rows.items()}))

    for app, report in reports.items():
        phases = report.phase_seconds
        # Phase 1 completes in tens of milliseconds.
        assert phases[MigrationPhase.STALL] < 0.15, app
        # Phase 2 sits in the paper's 0.4-0.8 s band (±50 %).
        lo, hi = PAPER_FIG4_PHASE2_RANGE_S
        assert lo * 0.5 <= phases[MigrationPhase.MIGRATION] <= hi * 1.5, app
        # Phase 3 (file-based restart) dominates the cycle.
        assert phases[MigrationPhase.RESTART] == max(phases.values()), app
        # Totals land within 2x of the paper's bars.
        assert (PAPER_FIG4_TOTAL_S[app] / 2
                <= report.total_seconds
                <= PAPER_FIG4_TOTAL_S[app] * 2), app

    # Cross-app ordering: BT (largest images) costs the most, LU the least.
    assert reports["LU.C"].total_seconds < reports["SP.C"].total_seconds
    assert reports["LU.C"].total_seconds < reports["BT.C"].total_seconds


def test_bench_fig4_resume_constant_across_apps(reports):
    """Sec. IV-A: "for a given task scale, the cost in phase 4 is
    relatively constant" — same rank count, so resume should match."""
    resumes = [r.phase_seconds[MigrationPhase.RESUME]
               for r in reports.values()]
    assert max(resumes) - min(resumes) < 0.2 * max(resumes)
