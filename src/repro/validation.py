"""Self-check: re-measure the headline quantities and diff against the paper.

``python -m repro validate`` runs the Fig. 7 LU.C.64 runs of
:mod:`repro.experiments` (one migration, one CR cycle to each storage
target, with the Table I byte accounting) and prints a PASS/FAIL row per
claim against the paper's value in the ``PAPER_*`` tables of
:mod:`repro.experiments`, with the tolerance it was checked at; it exits
1 when any check fails.  Useful after touching any
calibrated constant — it answers "did I break the reproduction?" in about
a minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .experiments import (
    FIG7,
    PAPER_FIG4_JOB_STALL_S,
    PAPER_FIG4_PHASE2_RANGE_S,
    PAPER_FIG4_TOTAL_S,
    PAPER_FIG7,
    PAPER_SPEEDUP_EXT3,
    PAPER_SPEEDUP_PVFS,
    PAPER_TABLE1_MB,
    fig7_row,
)

__all__ = ["Check", "run_validation", "render_validation"]


@dataclass(frozen=True)
class Check:
    """One validated claim."""

    name: str
    measured: float
    expected: float
    rel_tol: float
    unit: str = "s"

    @property
    def passed(self) -> bool:
        lo = self.expected / (1 + self.rel_tol)
        hi = self.expected * (1 + self.rel_tol)
        return lo <= self.measured <= hi

    @property
    def deviation_pct(self) -> float:
        return 100.0 * (self.measured - self.expected) / self.expected


def run_validation() -> List[Check]:
    """Run the condensed evaluation; returns the checks in report order."""
    results = {kind: run.execute() for kind, run in FIG7["LU.C"].items()}
    row = fig7_row(results)
    migration = results["migration"]
    ckpt_e, _ = results["cr_ext3"]

    paper = PAPER_FIG7["LU.C"]
    table1 = PAPER_TABLE1_MB["LU.C"]

    return [
        Check("migration total (Fig.4 LU)", row["migration"]["Total"],
              PAPER_FIG4_TOTAL_S["LU.C"], rel_tol=0.25),
        Check("phase 2 / RDMA migration",
              row["migration"]["Checkpoint(Migration)"],
              PAPER_FIG4_PHASE2_RANGE_S[0], rel_tol=0.5),
        Check("phase 1 / job stall (<=0.1s band)",
              row["migration"]["Job Stall"], PAPER_FIG4_JOB_STALL_S,
              rel_tol=1.5),
        Check("data migrated (Table I LU)", migration.bytes_migrated / 1e6,
              table1["migration"], rel_tol=0.001, unit="MB"),
        Check("CR data dumped (Table I LU)", ckpt_e.bytes_written / 1e6,
              table1["cr"], rel_tol=0.001, unit="MB"),
        Check("CR(ext3) checkpoint", row["cr_ext3"]["Checkpoint(Migration)"],
              paper["ckpt_ext3"], rel_tol=0.30),
        Check("CR(pvfs) checkpoint", row["cr_pvfs"]["Checkpoint(Migration)"],
              paper["ckpt_pvfs"], rel_tol=0.35),
        Check("CR(ext3) full cycle", row["cr_ext3"]["Total"],
              paper["cycle_ext3"], rel_tol=0.30),
        Check("CR(pvfs) full cycle", row["cr_pvfs"]["Total"],
              paper["cycle_pvfs"], rel_tol=0.30),
        Check("speedup vs CR(pvfs)", row["speedup_pvfs"],
              PAPER_SPEEDUP_PVFS, rel_tol=0.30, unit="x"),
        Check("speedup vs CR(ext3)", row["speedup_ext3"],
              PAPER_SPEEDUP_EXT3, rel_tol=0.30, unit="x"),
    ]


def render_validation(checks: List[Check]) -> str:
    name_w = max(len(c.name) for c in checks)
    out = ["== calibration self-check vs paper (CLUSTER 2010) =="]
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        out.append(
            f"[{mark}] {c.name.ljust(name_w)}  measured {c.measured:9.2f} "
            f"{c.unit:<2} | paper {c.expected:9.2f} {c.unit:<2} | "
            f"dev {c.deviation_pct:+6.1f}% (tol ±{c.rel_tol * 100:.0f}%)")
    n_fail = sum(not c.passed for c in checks)
    out.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(out)
