"""Ablation — file-based vs memory-based restart (the paper's future work).

Sec. VI: "we plan to improve the process-restart component on the spare
node by using a memory-based restart strategy, so as to further drive down
the cost of process migration."  We implemented that extension; this bench
quantifies what it buys for each application.
"""

import pytest

from repro import MigrationPhase
from repro.analysis import render_table
from repro.experiments import APPS, Run


def one(app: str, mode: str):
    return Run(app, restart_mode=mode).execute()


@pytest.fixture(scope="module")
def reports():
    return {(app, mode): one(app, mode)
            for app in APPS for mode in ("file", "memory")}


def test_bench_restart_ablation(benchmark, reports):
    benchmark.pedantic(one, args=("LU.C", "memory"), rounds=1, iterations=1)

    rows = {}
    for app in APPS:
        f, m = reports[(app, "file")], reports[(app, "memory")]
        rows[f"{app}.64"] = {
            "file restart (s)": f.phase_seconds[MigrationPhase.RESTART],
            "mem restart (s)": m.phase_seconds[MigrationPhase.RESTART],
            "total file (s)": f.total_seconds,
            "total mem (s)": m.total_seconds,
            "cycle speedup": f.total_seconds / m.total_seconds,
        }
    print()
    print(render_table("Ablation — restart strategy (future work, Sec. VI)",
                       rows))

    for app in APPS:
        f, m = reports[(app, "file")], reports[(app, "memory")]
        # Memory restart slashes Phase 3 by an order of magnitude.
        assert (m.phase_seconds[MigrationPhase.RESTART]
                < f.phase_seconds[MigrationPhase.RESTART] / 5), app
        # And the whole cycle roughly halves or better.
        assert m.total_seconds < 0.65 * f.total_seconds, app
        # With restart fixed, resume becomes the next bottleneck.
        assert (m.phase_seconds[MigrationPhase.RESUME]
                >= m.phase_seconds[MigrationPhase.MIGRATION]), app
