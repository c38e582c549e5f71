"""Figure 5 — Application Execution Time with/without Migration.

Runs each NPB application to completion twice (no migration, one migration
triggered mid-run) and reports the runtime overhead percentage that the
paper quotes as 3.9 % (LU), 6.7 % (BT) and 4.6 % (SP).
"""

import pytest

from repro import Scenario
from repro.analysis import render_table
from repro.experiments import PAPER_FIG5_BASE_RUNTIME_S, PAPER_FIG5_OVERHEAD_PCT

APPS = ["LU.C", "BT.C", "SP.C"]


def run_pair(app: str):
    base = Scenario.build(app=app, nprocs=64, n_compute=8, n_spare=1)
    t_base = base.run_to_completion()

    mig = Scenario.build(app=app, nprocs=64, n_compute=8, n_spare=1)
    mig.run_migration("node3", at=t_base / 3)
    mig.sim.run(until=mig.job.completion())
    return t_base, mig.sim.now


@pytest.fixture(scope="module")
def results():
    return {app: run_pair(app) for app in APPS}


def test_bench_fig5(benchmark, results):
    benchmark.pedantic(run_pair, args=("LU.C",), rounds=1, iterations=1)

    rows = {}
    for app, (t_base, t_mig) in results.items():
        pct = 100.0 * (t_mig - t_base) / t_base
        rows[f"{app}.64"] = {
            "no migration (s)": t_base,
            "1 migration (s)": t_mig,
            "overhead %": pct,
            "paper overhead %": PAPER_FIG5_OVERHEAD_PCT[app],
        }
    print()
    print(render_table("Figure 5 — execution time with/without migration",
                       rows, digits=2))

    for app, (t_base, t_mig) in results.items():
        pct = 100.0 * (t_mig - t_base) / t_base
        # Marginal overhead: single digits, never more.
        assert 0.5 < pct < 12.0, app
        # Within a factor of ~1.8 of the paper's quoted percentage.
        paper_pct = PAPER_FIG5_OVERHEAD_PCT[app]
        assert paper_pct / 1.8 <= pct <= paper_pct * 1.8, app
        # Base runtimes land near the paper's bars.
        assert (PAPER_FIG5_BASE_RUNTIME_S[app] * 0.7
                <= t_base <= PAPER_FIG5_BASE_RUNTIME_S[app] * 1.3), app


def test_bench_fig5_overhead_tracks_migration_cost(results):
    """The added runtime is approximately one migration cycle — the job
    does not lose more than the stall window."""
    for app, (t_base, t_mig) in results.items():
        added = t_mig - t_base
        assert 3.0 < added < 16.0, app
