"""One-stop scenario builder: the paper's testbed, wired end to end.

Everything the examples, integration tests and benchmarks need repeatedly:

>>> from repro import Scenario
>>> sc = Scenario.build(app="LU.C", nprocs=64)
>>> report = sc.run_migration("node3")     # one full cycle
>>> report.total_seconds                    # ~6 s for LU.C.64
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .params import DEFAULT_TESTBED, MigrationParams, Testbed
from .simulate.core import Simulator
from .simulate.shard import ShardedSimulator
from .cluster.node import Cluster
from .ftb.agent import FTBBackplane
from .launch.job_manager import JobManager
from .mpi.job import MPIJob
from .workloads.npb import NPBApplication
from .core.framework import JobMigrationFramework
from .core.checkpoint_restart import CheckpointRestartStrategy
from .core.protocol import MigrationReport
from .core.trigger import MigrationTrigger

__all__ = ["Scenario"]


@dataclass
class Scenario:
    """A fully wired simulated testbed running one NPB job."""

    sim: Simulator
    cluster: Cluster
    backplane: FTBBackplane
    jm: JobManager
    app: NPBApplication
    job: MPIJob
    framework: JobMigrationFramework
    trigger: MigrationTrigger
    #: The owning sharded kernel; ``sim`` is its shard 0.  Always a
    #: one-shard kernel for the paper testbed (see :meth:`build`).
    kernel: Optional[ShardedSimulator] = None

    @classmethod
    def build(cls, app: str = "LU.C", nprocs: int = 64, n_compute: int = 8,
              n_spare: int = 1, with_pvfs: bool = False,
              record_data: bool = False, seed: int = 0,
              transport: str = "rdma", restart_mode: str = "file",
              migration_params: Optional[MigrationParams] = None,
              iterations: Optional[int] = None,
              testbed: Testbed = DEFAULT_TESTBED,
              start_app: bool = True, trace=None,
              metrics=None, shards: int = 1) -> "Scenario":
        """Assemble the paper's testbed (8 compute + 1 spare by default).

        Pass a :class:`repro.simulate.Tracer` as ``trace`` to record phase
        boundaries and protocol events for timeline analysis, and a
        :class:`repro.simulate.MetricsRegistry` as ``metrics`` to collect
        counters/gauges/histograms from every instrumented layer.

        ``shards`` must be 1 here: the paper testbed is one tightly
        coupled partition (every rank shares the fluid fabric, the FTB
        tree, and the migration barrier, so there is no cross-partition
        link to derive a lookahead from).  The scenario still runs *on*
        the sharded kernel — its simulator is shard 0 of a one-shard
        :class:`repro.simulate.ShardedSimulator`, byte-identical to the
        plain loop — so the surface matches the cluster-scale scenario
        (:class:`repro.cluster.scale.ClusterScale`), which is where
        ``shards > 1`` belongs.
        """
        if shards != 1:
            raise ValueError(
                f"shards={shards}: the paper testbed is a single tightly "
                f"coupled partition and cannot be sharded — use "
                f"repro.cluster.scale.ClusterScale (the cluster_scale "
                f"bench family) for multi-shard runs")
        kernel = ShardedSimulator(shards=1, metrics=metrics)
        sim = kernel.shard(0)
        cluster = Cluster(sim, n_compute=n_compute, n_spare=n_spare,
                          testbed=testbed, with_pvfs=with_pvfs,
                          record_data=record_data, seed=seed, trace=trace)
        backplane = FTBBackplane(sim, cluster.eth, list(cluster.nodes),
                                 root_node=cluster.login.name)
        jm = JobManager(sim, cluster, backplane)
        application = NPBApplication.named(app, nprocs, iterations=iterations)
        job = application.make_job(sim, cluster, record_data=record_data)
        framework = JobMigrationFramework(
            sim, cluster, job, backplane, job_manager=jm,
            transport=transport, restart_mode=restart_mode,
            migration_params=migration_params)
        trigger = MigrationTrigger(framework)
        if start_app:
            job.start(application.rank_main)
        return cls(sim, cluster, backplane, jm, application, job,
                   framework, trigger, kernel)

    # -- convenience drivers --------------------------------------------------
    def run_migration(self, source: str, target: Optional[str] = None,
                      at: float = 1.0, reason: str = "user") -> MigrationReport:
        """Trigger a migration at ``at`` and run the sim until it completes."""

        def fire(sim):
            yield sim.timeout(at)
            report = yield from self.framework.migrate(source, target,
                                                       reason=reason)
            return report

        proc = self.sim.spawn(fire(self.sim), name="scenario-migration")
        return self.sim.run(until=proc)

    def run_to_completion(self) -> float:
        """Run the application to the end; returns the finish time."""
        self.sim.run(until=self.job.completion())
        return self.sim.now

    def cr_strategy(self, destination: str) -> CheckpointRestartStrategy:
        return CheckpointRestartStrategy(self.framework,
                                         destination=destination)
