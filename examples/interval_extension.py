#!/usr/bin/env python3
"""Prolonging checkpoint intervals with proactive migration (Sec. VI).

The paper's closing direction: use the migration framework "to benefit the
existing Checkpoint/Restart strategy by prolonging the interval between
full job-wide checkpoints."  This example quantifies it end to end:

1. measures, in the simulator, the real cost of a full CR(PVFS)
   checkpoint, a restart, and one migration for LU.C.64;
2. computes Young/Daly-optimal checkpoint intervals as failure-prediction
   coverage rises (every predicted failure becomes a cheap migration, so
   the rollback MTBF stretches);
3. Monte-Carlos a week-long job under each policy and reports efficiency.

Run:  python examples/interval_extension.py
"""

from repro.analysis import render_table
from repro.experiments import interval_study

MTBF_HOURS = 6.0
WORK_DAYS = 7.0


def main() -> None:
    print("Measuring per-operation costs on the simulated testbed "
          "(Fig. 7 LU.C.64 runs, CR to PVFS)...")
    costs, rows = interval_study((0.0, 0.3, 0.6, 0.9), MTBF_HOURS, WORK_DAYS)
    print("  checkpoint {:.1f} s | restart {:.1f} s | "
          "migration {:.1f} s\n".format(*costs))
    print(render_table(
        f"Week-long LU.C.64 job, node MTBF {MTBF_HOURS:g} h "
        f"(costs measured above)", rows, unit="mixed", digits=1))
    base, best = rows["coverage 0%"], rows["coverage 90%"]
    saved_hours = (best["efficiency %"] - base["efficiency %"]) / 100 \
        * WORK_DAYS * 24
    print(f"\nAt 90% coverage the job checkpoints "
          f"{base['checkpoints'] / best['checkpoints']:.1f}x "
          f"less often and recovers ~{saved_hours:.1f} machine-hours per week.")


if __name__ == "__main__":
    main()
