"""Metric extraction helpers shared by benchmarks and examples."""

from __future__ import annotations

from typing import Dict, Optional

from ..core.protocol import (
    CheckpointReport, MigrationPhase, MigrationReport, RestartReport,
)

__all__ = ["cr_cycle_breakdown", "migration_cycle_breakdown", "speedup"]


def cr_cycle_breakdown(ckpt: CheckpointReport,
                       restart: Optional[RestartReport]) -> Dict[str, float]:
    """The CR stack of Figure 7: Job Stall / Checkpoint / Resume / Restart."""
    row = {
        "Job Stall": ckpt.stall_seconds,
        "Checkpoint(Migration)": ckpt.checkpoint_seconds,
        "Resume": ckpt.resume_seconds,
        "Restart": restart.restart_seconds if restart is not None else 0.0,
    }
    row["Total"] = sum(row.values())
    return row


def migration_cycle_breakdown(report: MigrationReport) -> Dict[str, float]:
    """The migration stack of Figure 7, with the paper's shared labels."""
    row = {
        "Job Stall": report.phase(MigrationPhase.STALL),
        "Checkpoint(Migration)": report.phase(MigrationPhase.MIGRATION),
        "Resume": report.phase(MigrationPhase.RESUME),
        "Restart": report.phase(MigrationPhase.RESTART),
    }
    row["Total"] = sum(row.values())
    return row


def speedup(baseline_seconds: float, improved_seconds: float) -> float:
    """The paper's headline metric (e.g. 28.3 s / 6.3 s = 4.49x)."""
    if improved_seconds <= 0:
        raise ValueError("improved_seconds must be positive")
    return baseline_seconds / improved_seconds

