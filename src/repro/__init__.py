"""repro — RDMA-Based Job Migration Framework for MPI over InfiniBand.

A full-stack discrete-event reproduction of Ouyang, Marcarelli,
Rajachandrasekar & Panda (IEEE CLUSTER 2010): proactive job migration for
MVAPICH2 that checkpoints only the failing node's processes and streams
their images to a hot spare with RDMA Read through an aggregating buffer
pool, versus the traditional full-job Checkpoint/Restart.

Quick start::

    from repro import Scenario

    sc = Scenario.build(app="LU.C", nprocs=64)
    report = sc.run_migration("node3")
    print(report.as_row())   # per-phase breakdown, ~6 s total

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.simulate` — discrete-event kernel;
* :mod:`repro.network`  — InfiniBand verbs/RDMA, GigE, IPoIB, fluid links;
* :mod:`repro.cluster`  — nodes, OS processes, health monitoring;
* :mod:`repro.storage`  — ext3 disks, page cache, PVFS;
* :mod:`repro.mpi`      — MVAPICH2-style MPI with the C/R channel protocol;
* :mod:`repro.blcr`     — checkpoint images, engines, restart;
* :mod:`repro.ftb`      — the CIFTS Fault Tolerance Backplane;
* :mod:`repro.launch`   — Job Manager, NLAs, spawn tree;
* :mod:`repro.pipeline` — staged Phase-2/3 data path: the one table of
  transport and sink names;
* :mod:`repro.core`     — the migration framework, the RDMA session and
  the baseline transports;
* :mod:`repro.workloads`— NPB LU/BT/SP skeletons;
* :mod:`repro.sched`    — batch scheduler (cluster-throughput study);
* :mod:`repro.analysis` — metrics, paper-shaped reports, interval models.
"""

from .params import DEFAULT_TESTBED, MB, MigrationParams, NPB_TABLE, Testbed
from .scenario import Scenario
from .core import (
    CheckpointReport,
    CheckpointRestartStrategy,
    JobMigrationFramework,
    LiveMigrationReport,
    LiveMigrationStrategy,
    MigrationError,
    MigrationPhase,
    MigrationReport,
    MigrationTrigger,
    RDMAMigrationSession,
    RestartReport,
)
from .workloads import NPBApplication

__version__ = "1.0.0"

__all__ = [
    "Scenario",
    "JobMigrationFramework",
    "MigrationTrigger",
    "MigrationError",
    "RDMAMigrationSession",
    "CheckpointRestartStrategy",
    "LiveMigrationStrategy",
    "LiveMigrationReport",
    "MigrationPhase",
    "MigrationReport",
    "CheckpointReport",
    "RestartReport",
    "NPBApplication",
    "Testbed",
    "DEFAULT_TESTBED",
    "MigrationParams",
    "NPB_TABLE",
    "MB",
    "__version__",
]
