"""The paper's contribution: the RDMA-based Job Migration Framework.

* :class:`JobMigrationFramework` — the four-phase migration cycle over FTB;
* :class:`RDMAMigrationSession` — buffer-pool aggregation + RDMA-Read pulls;
* :class:`CheckpointRestartStrategy` — the full-job CR baseline (ext3/PVFS);
* baselines — TCP / IPoIB socket streaming and naive file staging;
* :class:`MigrationTrigger` — user- and health-driven trigger policy.
"""

from .buffer_manager import AggregatingSink, ChunkDescriptor, RDMAMigrationSession
from .baselines import (
    IPoIBMigrationSession,
    StagingMigrationSession,
    TCPMigrationSession,
)
from .checkpoint_restart import CheckpointRestartStrategy
from .framework import JobMigrationFramework, MigrationError
from .live_migration import LiveMigrationReport, LiveMigrationStrategy
from .protocol import (
    PHASE_ORDER,
    CheckpointReport,
    MigrationPhase,
    MigrationReport,
    RestartReport,
)
from .trigger import MigrationTrigger

__all__ = [
    "JobMigrationFramework",
    "MigrationError",
    "RDMAMigrationSession",
    "AggregatingSink",
    "ChunkDescriptor",
    "TCPMigrationSession",
    "IPoIBMigrationSession",
    "StagingMigrationSession",
    "CheckpointRestartStrategy",
    "LiveMigrationStrategy",
    "LiveMigrationReport",
    "MigrationTrigger",
    "MigrationPhase",
    "MigrationReport",
    "CheckpointReport",
    "RestartReport",
    "PHASE_ORDER",
]
