"""Self-check: re-measure the headline quantities and diff against the paper.

``python -m repro validate`` runs the Fig. 7 LU.C.64 runs of
:mod:`repro.experiments` (one migration, one CR cycle to each storage
target, with the Table I byte accounting) and prints a PASS/FAIL row per
claim with the tolerance it was checked at.  Useful after touching any
calibrated constant — it answers "did I break the reproduction?" in about
a minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .experiments import FIG7, fig7_row

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

    return [
        Check("migration total (Fig.4 LU)", row["migration"]["Total"],
              6.3, rel_tol=0.25),
        Check("phase 2 / RDMA migration",
              row["migration"]["Checkpoint(Migration)"], 0.4, rel_tol=0.5),
        Check("phase 1 / job stall (<=0.1s band)",
              row["migration"]["Job Stall"], 0.04, rel_tol=1.5),
        Check("data migrated (Table I LU)", migration.bytes_migrated / 1e6,
              170.4, rel_tol=0.001, unit="MB"),
        Check("CR data dumped (Table I LU)", ckpt_e.bytes_written / 1e6,
              1363.2, rel_tol=0.001, unit="MB"),
        Check("CR(ext3) checkpoint", row["cr_ext3"]["Checkpoint(Migration)"],
              6.4, rel_tol=0.30),
        Check("CR(pvfs) checkpoint", row["cr_pvfs"]["Checkpoint(Migration)"],
              16.3, rel_tol=0.35),
        Check("CR(ext3) full cycle", row["cr_ext3"]["Total"], 12.9,
              rel_tol=0.30),
        Check("CR(pvfs) full cycle", row["cr_pvfs"]["Total"], 28.3,
              rel_tol=0.30),
        Check("speedup vs CR(pvfs)", row["speedup_pvfs"],
              4.49, rel_tol=0.30, unit="x"),
        Check("speedup vs CR(ext3)", row["speedup_ext3"],
              2.03, rel_tol=0.30, unit="x"),
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
