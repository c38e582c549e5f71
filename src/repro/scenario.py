"""One-stop scenario builder: the paper's testbed, wired end to end.

Everything the examples, integration tests and benchmarks need repeatedly:

>>> from repro import Scenario
>>> sc = Scenario.build(app="LU.C", nprocs=64)
>>> report = sc.run_migration("node3")     # one full cycle
>>> report.total_seconds                    # ~6 s for LU.C.64
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .params import DEFAULT_TESTBED, MigrationParams, Testbed
from .simulate.core import Simulator
from .cluster.node import Cluster
from .ftb.agent import FTBBackplane
from .launch.job_manager import JobManager
from .mpi.job import MPIJob
from .workloads.npb import NPBApplication
from .core.framework import JobMigrationFramework
from .core.checkpoint_restart import CheckpointRestartStrategy
from .core.protocol import CheckpointReport, MigrationReport, RestartReport
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

    @property
    def kernel(self) -> Simulator:
        """The scenario's event loop (``sim``), under the name shared with
        :class:`repro.cluster.scale.ClusterScale`."""
        return self.sim

    @classmethod
    def build(cls, app: str = "LU.C", nprocs: int = 64, n_compute: int = 8,
              n_spare: int = 1, with_pvfs: bool = False,
              record_data: bool = False, seed: int = 0,
              transport: str = "rdma", restart_mode: str = "file",
              migration_params: Optional[MigrationParams] = None,
              iterations: Optional[int] = None,
              testbed: Testbed = DEFAULT_TESTBED,
              start_app: bool = True, trace=None,
              metrics=None) -> "Scenario":
        """Assemble the paper's testbed (8 compute + 1 spare by default).

        Pass a :class:`repro.simulate.Tracer` as ``trace`` to record phase
        boundaries and protocol events for timeline analysis, and a
        :class:`repro.simulate.MetricsRegistry` as ``metrics`` to collect
        counters/gauges/histograms from every instrumented layer.
        """
        sim = Simulator(metrics=metrics)
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
                   framework, trigger)

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

    def run_cr_cycle(self, dest: str, at: float = 5.0
                     ) -> Tuple[CheckpointReport, RestartReport]:
        """Checkpoint the whole job to ``dest`` at ``at``, restart it from
        that checkpoint, and run the sim until the restart completes."""
        strategy = self.cr_strategy(dest)

        # The process takes its name from this generator, and that name is
        # in the pinned Fig. 7 CR(PVFS) trace digest.
        def drive(sim):
            yield sim.timeout(at)
            ckpt = yield from strategy.checkpoint()
            restart = yield from strategy.restart()
            return ckpt, restart

        return self.sim.run(until=self.sim.spawn(drive(self.sim)))

    def run_to_completion(self) -> float:
        """Run the application to the end; returns the finish time."""
        self.sim.run(until=self.job.completion())
        return self.sim.now

    def cr_strategy(self, destination: str) -> CheckpointRestartStrategy:
        return CheckpointRestartStrategy(self.framework,
                                         destination=destination)
