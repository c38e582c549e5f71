"""Ablation — prolonging job-wide checkpoint intervals (Sec. VI future work).

The paper's closing claim: proactive migration can "benefit the existing
Checkpoint/Restart strategy by prolonging the interval between full
job-wide checkpoints".  This bench quantifies it end to end:

1. measure the real per-operation costs *in the simulator* — one full
   CR(PVFS) checkpoint, one restart, one migration — for LU.C.64;
2. feed them to the Young/Daly renewal model and the Monte-Carlo policy
   simulator from :mod:`repro.analysis.availability`;
3. sweep prediction coverage and report the stretched optimal interval and
   the wall-clock efficiency gain over CR-only.
"""

import pytest

from repro.analysis import render_table
from repro.experiments import interval_study

COVERAGES = [0.0, 0.3, 0.6, 0.9]


@pytest.fixture(scope="module")
def study():
    """Costs from the Fig. 7 LU.C.64 runs, and the coverage sweep."""
    return interval_study(COVERAGES)


def test_bench_interval_extension(benchmark, study):
    benchmark.pedantic(lambda: study, rounds=1, iterations=1)

    costs, rows = study
    print("\nMeasured costs (LU.C.64, PVFS): checkpoint {:.1f} s, "
          "restart {:.1f} s, migration {:.1f} s".format(*costs))
    print(render_table(
        "Ablation — checkpoint-interval extension via proactive migration "
        "(week-long LU.C.64 job, MTBF 6 h)", rows, unit="mixed", digits=1))

    # The optimal interval stretches monotonically with coverage.
    taus = [row["Daly interval (min)"] for row in rows.values()]
    assert taus == sorted(taus)
    assert taus[-1] > 2.5 * taus[0]  # 90% coverage: >2.5x longer intervals

    # Efficiency improves and rollbacks collapse at high coverage.
    cr_only, best = rows["coverage 0%"], rows["coverage 90%"]
    assert best["efficiency %"] > cr_only["efficiency %"]
    assert best["rollbacks"] < cr_only["rollbacks"]
    assert best["checkpoints"] < cr_only["checkpoints"]
