"""Migration protocol definitions: phases, reports, accounting records.

The four phases are the paper's (Fig. 2): Job Stall, Job Migration, Restart
on Spare Node, Resume.  Reports carry the per-phase decomposition that
Figures 4, 6 and 7 plot, plus the byte accounting behind Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List

__all__ = ["MigrationPhase", "MigrationReport", "CheckpointReport",
           "RestartReport", "PHASE_ORDER"]


class MigrationPhase(Enum):
    """The four phases of one migration cycle (paper Fig. 2)."""

    STALL = "Job Stall"
    MIGRATION = "Job Migration"
    RESTART = "Restart"
    RESUME = "Resume"


PHASE_ORDER = [MigrationPhase.STALL, MigrationPhase.MIGRATION,
               MigrationPhase.RESTART, MigrationPhase.RESUME]


@dataclass
class MigrationReport:
    """Outcome of one complete migration cycle."""

    source: str
    target: str
    reason: str
    transport: str
    restart_mode: str
    started_at: float
    phase_seconds: Dict[MigrationPhase, float] = field(default_factory=dict)
    ranks_migrated: List[int] = field(default_factory=list)
    bytes_migrated: float = 0.0
    chunks_transferred: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def phase(self, phase: MigrationPhase) -> float:
        return self.phase_seconds.get(phase, 0.0)

    def as_row(self) -> Dict[str, float]:
        """Ordered {phase name: seconds} plus the total (Fig. 4/6 rows)."""
        row = {p.value: self.phase_seconds.get(p, 0.0) for p in PHASE_ORDER}
        row["Total"] = self.total_seconds
        return row

    def __repr__(self) -> str:
        return (f"<MigrationReport {self.source}->{self.target} "
                f"{self.total_seconds:.3f}s over {self.transport}>")


@dataclass
class CheckpointReport:
    """Outcome of one full-job checkpoint (the CR strategy)."""

    destination: str  # "ext3" | "pvfs"
    started_at: float
    stall_seconds: float = 0.0
    checkpoint_seconds: float = 0.0
    resume_seconds: float = 0.0
    bytes_written: float = 0.0
    n_ranks: int = 0

    @property
    def total_seconds(self) -> float:
        return self.stall_seconds + self.checkpoint_seconds + self.resume_seconds


@dataclass
class RestartReport:
    """Outcome of restarting a full job from checkpoint files."""

    destination: str
    restart_seconds: float = 0.0
    bytes_read: float = 0.0
    n_ranks: int = 0
