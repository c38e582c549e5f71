"""The Job Migration Framework: four-phase orchestration (paper Sec. III-A).

Wires together everything below it: the FTB backplane carries the protocol
messages (``FTB_MIGRATE`` → ``FTB_MIGRATE_PIIC`` → ``FTB_RESTART``), the
per-rank C/R threads drain and tear down MPI channels, the extended BLCR
checkpoints the source node's processes into the RDMA buffer-pool session,
which lands each image on the spare through BLCR's own ``FileSink`` (temp
checkpoint files) or ``MemorySink`` (resident images), the spare's NLA
restarts them, and the Job Manager repairs the spawn tree and re-runs the
PMI exchange.

The framework also exposes the *stall/resume* primitives that the
Checkpoint/Restart strategy (the baseline being compared against) reuses —
in MVAPICH2 both designs share this infrastructure [14].
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generator, List, Optional, Tuple

from ..params import MigrationParams
from ..pipeline.pipeline import SINKS, TRANSPORTS, check_stage_names
from ..simulate.core import Process, Simulator
from ..simulate.resources import Resource, Store
from ..cluster.node import Cluster, Node, NodeState
from ..ftb.agent import FTBBackplane
from ..ftb.client import FTBClient
from ..ftb.events import (
    FTB_CKPT_BEGIN,
    FTB_MIGRATE,
    FTB_MIGRATE_PIIC,
    FTB_RESTART,
)
from ..blcr.checkpoint import CheckpointEngine
from ..launch.job_manager import JobManager
from ..launch.nla import NLAState, RestartSetMismatch
from ..mpi.job import MPIJob
from ..mpi.rank import MPIRank
from .protocol import MigrationPhase, MigrationReport

__all__ = ["JobMigrationFramework", "MigrationError"]

_STALL_REPORT_BYTES = 128
#: Per-rank FTB dedup window.  Replays only occur for events still in
#: flight around a re-subscription, so a bounded window is safe — without
#: it the per-rank `seen` set grows by every event id for the job's whole
#: lifetime (weeks-long scheduler ablations leak unboundedly).
_FTB_DEDUP_WINDOW = 256


class MigrationError(Exception):
    """No usable spare, bad source, or a protocol-level failure."""


class JobMigrationFramework:
    """Per-job migration runtime.

    Parameters
    ----------
    transport:
        Phase-2 image transport, a key of
        :data:`repro.pipeline.pipeline.TRANSPORTS`: the paper's RDMA
        buffer pool or one of the baselines in :mod:`repro.core.baselines`.
    restart_mode:
        Target sink, a key of :data:`repro.pipeline.pipeline.SINKS`: the
        paper's temp-file barrier (a BLCR ``FileSink`` on the spare) or
        the Sec. VI memory restart (a ``MemorySink``).

    Both names are checked here, so a bad name fails at build time
    rather than when a migration starts.
    """

    def __init__(self, sim: Simulator, cluster: Cluster, job: MPIJob,
                 backplane: FTBBackplane,
                 job_manager: Optional[JobManager] = None,
                 transport: str = "rdma", restart_mode: str = "file",
                 migration_params: Optional[MigrationParams] = None):
        check_stage_names(transport, restart_mode)
        self.sim = sim
        self.cluster = cluster
        self.job = job
        self.backplane = backplane
        self.jm = job_manager or JobManager(sim, cluster, backplane)
        self.transport = transport
        self.restart_mode = restart_mode
        self.params = migration_params or cluster.testbed.migration
        self.reports: List[MigrationReport] = []
        self._stall_reports: Store = Store(sim)
        #: One migration/checkpoint operation at a time (the paper's cycle).
        self._op_lock = Resource(sim, capacity=1)
        self._cr_threads = [
            sim.spawn(self._cr_thread(rank), name=f"cr-thread.r{rank.rank}")
            for rank in job.ranks
        ]

    # ------------------------------------------------------------------
    # C/R thread: one per MPI process, subscribed to the FTB backplane.
    # ------------------------------------------------------------------
    def _cr_thread(self, rank: MPIRank) -> Generator:
        client = FTBClient(self.backplane, rank.node.name,
                           f"cr.{self.job.name}.r{rank.rank}")
        sub = client.subscribe("FTB.MPI.MVAPICH2.*")
        seen: set = set()
        seen_order: deque = deque()
        while True:
            event = yield sub.queue.get()
            if event.event_id in seen:
                # Re-subscribing after a migration (or an agent failover)
                # during an in-flight flood can replay an event; FTB clients
                # dedup on the event id.
                continue
            seen.add(event.event_id)
            seen_order.append(event.event_id)
            if len(seen_order) > _FTB_DEDUP_WINDOW:
                seen.discard(seen_order.popleft())
            if event.name in (FTB_MIGRATE, FTB_CKPT_BEGIN):
                yield from rank.controller.suspend_and_drain()
                # Report stall-complete to the Job Manager (control message
                # over the maintenance network).
                yield self.cluster.eth.transfer(rank.node.name,
                                                self.cluster.login.name,
                                                _STALL_REPORT_BYTES)
                self._stall_reports.put(rank.rank)
            elif event.name == FTB_RESTART:
                # Ranks idle in the migration barrier; the framework drives
                # re-establishment and release directly in Phase 4.
                pass
            # A migrated rank's agent changed: rebind the FTB client.
            if client.node != rank.node.name:
                client.unsubscribe(sub)
                client = FTBClient(self.backplane, rank.node.name,
                                   f"cr.{self.job.name}.r{rank.rank}")
                sub = client.subscribe("FTB.MPI.MVAPICH2.*")

    # ------------------------------------------------------------------
    # Shared stall/resume primitives (used by migration AND the CR baseline)
    # ------------------------------------------------------------------
    def stall_all(self, ftb_event: str, payload: dict) -> Generator:
        """Generator: publish the trigger event and wait until every rank
        reports a drained, torn-down state (Phase 1)."""
        yield from self.jm.ftb.publish(ftb_event, payload)
        for _ in range(self.job.nprocs):
            yield self._stall_reports.get()
            yield self.sim.timeout(self.jm.params.report_handling_cost)

    def resume_all(self) -> Generator:
        """Generator: PMI re-exchange, endpoint re-establishment, and the
        collective exit from the migration barrier (Phase 4)."""
        yield from self.jm.pmi_exchange(self.job.nprocs)
        workers = [
            self.sim.spawn(rank.controller.reestablish(),
                           name=f"reconn.r{rank.rank}")
            for rank in self.job.ranks
        ]
        if workers:
            yield self.sim.all_of(workers)
        for rank in self.job.ranks:
            rank.controller.release()

    # ------------------------------------------------------------------
    # The migration cycle
    # ------------------------------------------------------------------
    def migrate(self, source: str, target: Optional[str] = None,
                reason: str = "user") -> Generator:
        """Generator: run one full migration cycle; returns the report."""
        with self._op_lock.request() as op:
            yield op
            report = yield from self._migrate_locked(source, target, reason)
            return report

    def resolve_endpoints(self, source: str, target: Optional[str],
                          ) -> Tuple[Node, List[MPIRank], str, Node]:
        """``(source node, its ranks, target name, target node)`` for one
        move; ``target=None`` picks a healthy spare.

        Raises :class:`MigrationError` when ``source`` hosts none of the
        job's ranks, when no healthy spare is left, or when ``target``
        already hosts ranks.  Every migration strategy resolves its
        endpoints here.
        """
        source_node = self.cluster.node(source)
        victims = self.job.ranks_on(source)
        if not victims:
            raise MigrationError(f"no ranks of {self.job.name} on {source}")
        if target is None:
            spare = self.cluster.healthy_spare()
            if spare is None:
                raise MigrationError("no healthy spare node available")
            target = spare.name
        target_node = self.cluster.node(target)
        if self.job.ranks_on(target):
            raise MigrationError(f"target {target} already hosts ranks")
        return source_node, victims, target, target_node

    def _migrate_locked(self, source: str, target: Optional[str],
                        reason: str) -> Generator:
        source_node, victims, target, target_node = \
            self.resolve_endpoints(source, target)

        report = MigrationReport(
            source=source, target=target, reason=reason,
            transport=self.transport, restart_mode=self.restart_mode,
            started_at=self.sim.now,
            ranks_migrated=[r.rank for r in victims])
        # Span-based phase accounting: each bracket below emits paired
        # ``*.start``/``*.end`` records with span ids, so two overlapping
        # migrations (or nested sub-operations) stay distinguishable in
        # the trace; NullTracer makes the whole thing a no-op.
        trace = self.sim.tracer
        t0 = self.sim.now
        with trace.span("migration", source=source, target=target,
                        reason=reason) as mig_span:
            # ---- Phase 1: Job Stall ---------------------------------------
            with trace.span("phase", phase=MigrationPhase.STALL.value):
                yield from self.stall_all(FTB_MIGRATE,
                                          {"source": source, "target": target})
            t1 = self.sim.now
            report.phase_seconds[MigrationPhase.STALL] = t1 - t0

            # ---- Phase 2+3: checkpoint -> transport -> sink -> restart ----
            # The ``pipeline.run`` span parents both phase spans; with the
            # memory sink, restarts begin inside Phase 2 as images complete.
            target_nla = self.jm.nla(target)
            n = len(victims)
            self.sim.metrics.gauge("pipeline.procs.pending",
                                   unit="processes").set(float(n))
            with trace.span("pipeline.run", source=source, target=target,
                            transport=self.transport,
                            sink=self.restart_mode):
                sink = SINKS[self.restart_mode](self.sim, target_node)
                session = TRANSPORTS[self.transport](
                    self.sim, self.cluster, source_node, target_node, sink,
                    params=self.params)
                with trace.span("phase",
                                phase=MigrationPhase.MIGRATION.value) as p2:
                    yield from session.setup(expected_procs=n)
                    watcher = self.sim.spawn(
                        self._watch_completions(session, sink, target_nla, n),
                        name="pipeline-watch")
                    engine = CheckpointEngine(self.sim, source,
                                              params=self.cluster.testbed.blcr,
                                              net=self.cluster.net)
                    ckpt_sink = session.sink()
                    yield self.sim.all_of([
                        self.sim.spawn(engine.checkpoint(
                            r.osproc, ckpt_sink,
                            chunk_bytes=self.params.chunk_size),
                            name=f"ckpt.{r.osproc.name}")
                        for r in victims])
                    yield session.done
                    # Source NLA announces process-images-in-place, goes
                    # inactive.
                    source_nla = self.jm.nla(source)
                    yield from source_nla.ftb.publish(
                        FTB_MIGRATE_PIIC, {"source": source, "target": target})
                    # The images are in place at the target: the source
                    # processes terminate and release their address spaces.
                    for rank in victims:
                        rank.osproc.kill()
                    source_nla.to_inactive()
                    p2.annotate(bytes=session.bytes_pulled)
                t2 = self.sim.now
                report.phase_seconds[MigrationPhase.MIGRATION] = t2 - t1
                report.bytes_migrated = session.bytes_pulled
                report.chunks_transferred = session.chunks_pulled

                # ---- Phase 3: Restart on the spare -------------------------
                with trace.span("phase", phase=MigrationPhase.RESTART.value):
                    yield from self.jm.repair_tree(source, target)
                    yield from self.jm.ftb.publish(
                        FTB_RESTART, {"target": target,
                                      "ranks": [r.rank for r in victims]})
                    if self.restart_mode == "memory":
                        # Join the pipelined restarts that began as images
                        # completed.
                        workers = yield watcher
                        yield self.sim.all_of(workers.values())
                        if len(workers) != n:
                            raise RestartSetMismatch(
                                f"pipelined restart finished {len(workers)} "
                                f"of {n} expected processes")
                        target_nla.to_ready()
                        restarted = {proc: w.value
                                     for proc, w in workers.items()}
                    else:
                        # The file barrier: the NLA reads every image back.
                        restarted = yield from target_nla.restart_processes(
                            sink.metadata, expected_procs=n,
                            flow_from=session.reassembly_spans.values())
                    for rank in victims:
                        rank.relocate(target_node)
                        rank.osproc = restarted[rank.osproc.name]
                    if target_node in self.cluster.spares:
                        self.cluster.promote_spare(target_node)
                    if reason != "user":
                        self.cluster.retire(source_node)
                    else:
                        # Maintenance drain: the node is healthy, so it
                        # re-arms as a hot spare (its NLA goes back to
                        # MIGRATION_SPARE) once serviced.
                        source_node.mark(NodeState.HEALTHY)
                        if source_node in self.cluster.compute:
                            self.cluster.compute.remove(source_node)
                            self.cluster.spares.append(source_node)
                        source_nla.state = NLAState.MIGRATION_SPARE
                session.teardown()
            t3 = self.sim.now
            report.phase_seconds[MigrationPhase.RESTART] = t3 - t2

            # ---- Phase 4: Resume -------------------------------------------
            with trace.span("phase", phase=MigrationPhase.RESUME.value):
                yield from self.resume_all()
            t4 = self.sim.now
            report.phase_seconds[MigrationPhase.RESUME] = t4 - t3
            mig_span.annotate(total=t4 - t0)

        self.reports.append(report)
        return report

    def _watch_completions(self, session, sink, target_nla,
                           n: int) -> Generator:
        """Generator: declare each process ready as the transport seals
        its image; with the memory sink, start its restart at once.
        Returns the ``pipeline-restart`` workers by process name."""
        pending = self.sim.metrics.gauge("pipeline.procs.pending",
                                         unit="processes")
        workers: Dict[str, Process] = {}
        for _ in range(n):
            proc = yield session.completions.get()
            pending.dec()
            trace = self.sim.trace
            if trace is not None:
                trace.record(self.sim.now, "pipeline.proc.ready", proc=proc,
                             node=target_nla.node.name,
                             sink=self.restart_mode)
            if self.restart_mode == "memory":
                workers[proc] = self.sim.spawn(
                    self._restart_one(session, sink, target_nla, proc),
                    name=f"pipeline-restart.{proc}")
        return workers

    def _restart_one(self, session, sink, target_nla,
                     proc: str) -> Generator:
        """Generator: restart one process from its resident image."""
        with self.sim.tracer.span("pipeline.restart", proc=proc,
                                  node=target_nla.node.name,
                                  mode=self.restart_mode) as sp:
            trace = self.sim.trace
            if trace is not None:
                trace.link(session.reassembly_spans.get(proc), sp,
                           "image.ready")
            osproc = yield from target_nla.restart_one(
                sink.images[proc], mode="memory")
        return osproc
