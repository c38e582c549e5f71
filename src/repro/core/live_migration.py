"""Live (pre-copy) process migration — the Wang et al. [9] alternative.

The paper's design *stops* the job (Phase 1) before moving any bytes.  The
proactive live-migration line of work instead **pre-copies** state while
the application keeps running: round 1 ships the full image, each further
round ships only what was dirtied during the previous round, and once the
residual is small (or a round budget is exhausted) the job briefly stops
for the final copy.

For HPC solvers this rarely converges: an NPB rank rewrites its solution
arrays every iteration, so the dirty rate (heap bytes per iteration time)
exceeds any realistic transfer rate and each round re-ships nearly the
whole image.  The ablation bench sweeps the dirty rate to show both
regimes — the low-rate one where live migration slashes downtime, and the
NPB-like one where it degenerates into the paper's stop-and-copy plus
wasted pre-copy traffic (which is precisely why the paper's frozen-copy
design is the right call for MPI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from ..simulate.core import Simulator
from ..network.fluid import Link
from ..blcr.image import CheckpointImage
from ..blcr.restart import RestartEngine
from ..ftb.events import FTB_MIGRATE
from ..cluster.node import NodeState
from .framework import JobMigrationFramework

__all__ = ["LiveMigrationReport", "LiveMigrationStrategy"]


@dataclass
class LiveMigrationReport:
    """Outcome of one live migration."""

    source: str
    target: str
    rounds: int = 0
    converged: bool = False
    precopy_bytes: float = 0.0
    precopy_seconds: float = 0.0
    residual_bytes: float = 0.0
    #: The stop-the-world window (stall + final copy + restart + resume).
    downtime_seconds: float = 0.0
    total_seconds: float = 0.0
    round_bytes: List[float] = field(default_factory=list)


class LiveMigrationStrategy:
    """Iterative pre-copy on top of the framework's stall/resume machinery.

    Parameters
    ----------
    max_rounds:
        Pre-copy round budget before forcing the stop-and-copy.
    stop_fraction:
        Stop early once a round's residual drops below this fraction of
        the full image (the classic convergence threshold).
    """

    def __init__(self, framework: JobMigrationFramework, max_rounds: int = 4,
                 stop_fraction: float = 0.05,
                 pipe_bandwidth: Optional[float] = None):
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if not 0 < stop_fraction < 1:
            raise ValueError("stop_fraction must be in (0, 1)")
        self.framework = framework
        self.sim: Simulator = framework.sim
        self.cluster = framework.cluster
        self.job = framework.job
        self.max_rounds = max_rounds
        self.stop_fraction = stop_fraction
        #: Transfer-pipeline ceiling.  Default: the RDMA aggregation rate;
        #: pass ~1.18e8 to model Wang et al.'s TCP/GigE transport — whether
        #: pre-copy converges is exactly dirty_rate vs this number.
        self.pipe_bandwidth = (pipe_bandwidth if pipe_bandwidth is not None
                               else framework.cluster.testbed.ib
                               .migration_pipeline_bandwidth)

    def _transfer(self, source, target, nbytes: float, pipe: Link):
        """One pre-copy stream: aggregation pipeline + the IB wire."""
        return self.cluster.net.transfer(
            [pipe, source.hca.tx, target.hca.rx], nbytes,
            latency=self.cluster.testbed.ib.latency, label="live-precopy")

    def migrate(self, source: str, target: Optional[str] = None,
                dirty_rate: float = 0.0) -> Generator:
        """Generator: run one live migration; returns the report.

        ``dirty_rate`` is the aggregate bytes/second the source node's
        ranks re-dirty while running (e.g. NPB: roughly per-node heap bytes
        per iteration time).
        """
        fw = self.framework
        with fw._op_lock.request() as op:
            yield op
            source_node, victims, target, target_node = \
                fw.resolve_endpoints(source, target)
            report = LiveMigrationReport(source=source, target=target)
            image_total = float(sum(r.osproc.image_bytes for r in victims))
            pipe = Link(f"live.{source}.pipe", self.pipe_bandwidth)
            t_start = self.sim.now

            # ---- pre-copy rounds (application keeps running) -----------
            to_send = image_total
            while True:
                report.rounds += 1
                t0 = self.sim.now
                yield self._transfer(source_node, target_node, to_send, pipe)
                dt = self.sim.now - t0
                report.precopy_bytes += to_send
                report.round_bytes.append(to_send)
                dirtied = min(dirty_rate * dt, image_total)
                if dirtied <= self.stop_fraction * image_total:
                    report.converged = True
                    to_send = dirtied
                    break
                if report.rounds >= self.max_rounds:
                    to_send = dirtied
                    break
                to_send = dirtied
            report.precopy_seconds = self.sim.now - t_start
            report.residual_bytes = to_send

            # ---- stop-and-copy window -----------------------------------
            t_stop = self.sim.now
            yield from fw.stall_all(FTB_MIGRATE,
                                    {"source": source, "target": target,
                                     "mode": "live"})
            if to_send > 0:
                yield self._transfer(source_node, target_node, to_send, pipe)
            # State is resident at the target: memory-based restore.
            engine = RestartEngine(self.sim, target,
                                   params=self.cluster.testbed.blcr)
            workers = []
            for rank in victims:
                image = CheckpointImage.snapshot(rank.osproc)
                workers.append(self.sim.spawn(
                    engine.restart_from_memory(image),
                    name=f"live-restore.r{rank.rank}"))
            restored = yield self.sim.all_of(workers)
            for rank, proc in zip(victims, restored.values()):
                rank.relocate(target_node)
                rank.osproc = proc
            yield from fw.jm.repair_tree(source, target)
            fw.jm.nla(source).to_inactive()
            fw.jm.nla(target).to_ready()
            if target_node in self.cluster.spares:
                self.cluster.promote_spare(target_node)
            source_node.mark(NodeState.HEALTHY)
            if source_node in self.cluster.compute:
                self.cluster.compute.remove(source_node)
                self.cluster.spares.append(source_node)
            yield from fw.resume_all()
            report.downtime_seconds = self.sim.now - t_stop
            report.total_seconds = self.sim.now - t_start
            return report
