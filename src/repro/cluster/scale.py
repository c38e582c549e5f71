"""Cluster-scale failure-driven migration study on one event loop.

The paper's testbed is 8+1 nodes running one job; its *argument* is about
clusters — proactive migration beats reactive checkpoint/restart when
failures are frequent and spares are scarce.  This module scales the
failure/migration dynamics to that regime: hundreds of nodes in racks,
dozens of concurrent jobs, rack-local checkpoint traffic, spare pools
that actually run dry, and spare borrowing around a ring of racks when
they do.

Everything runs on one :class:`~repro.simulate.core.Simulator` with one
:class:`~repro.network.fluid.FluidNetwork` (component scoping keeps each
rack's rate fill local to its store link) and one FTB backplane spanning
every rack head, so the Job Manager hears every alarm directly.

Model summary
-------------
* **Placement** is static space-sharing: every job gets its node set from
  one rack at build time (first fit, deterministic order) and keeps it.
* **Jobs** run work spans punctuated by periodic checkpoints — per-node
  fluid transfers into the rack store link, so co-located jobs contend.
* **Failures** arrive per job from :func:`repro.sched.scheduler.failure_gap`
  (same model as the batch-scheduler study), compressed MTBF so a run of
  an hour of simulated time sees real spare-pool pressure.  A driver
  process interrupts the job mid-span; with probability ``coverage`` the
  failure was *predicted* (the paper's proactive path).
* **Spares** come from the job's own rack pool first: a local migration
  with no latency.  Otherwise a request walks the rack ring ``r+1, r+2,
  ...``, one ``inter_rack_latency`` per hop, checking each pool as it
  arrives; a grant costs one hop back to the requester, and a ring that
  closes with no spare is a denial, which also costs one hop back.  A
  borrowed spare is a *remote* migration and pays
  ``remote_migration_penalty``.
* **Predicted** failures migrate to a spare; with none anywhere the job
  checkpoints proactively and waits out the victim's repair.
* **Unpredicted** failures roll back to the last checkpoint (losing
  ``since_checkpoint`` work) and restart on a spare, or wait out the
  victim's repair when none exists anywhere.
* Repaired victims rejoin their rack's spare pool; borrowed spares do
  not come back — scarcity compounds, which is the point.

Everything is deterministic: named RNG streams per job and static
placement make ``results()`` and the trace byte-stable run to run — the
determinism suite and the ``cluster_scale`` bench family both pin it.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..ftb.agent import FTBBackplane
from ..ftb.client import FTBClient
from ..ftb.events import FTB_HEALTH_ALARM
from ..network.ethernet import EthernetFabric
from ..network.fluid import FluidNetwork, Link
from ..sched.jobs import BatchJobSpec, JobRecord, JobState
from ..sched.scheduler import failure_gap
from ..simulate.core import Interrupt, Simulator
from ..simulate.rng import RandomStreams
from .node import NodeState

__all__ = ["ClusterScale", "Rack", "ScaleNode", "default_job_specs"]


class ScaleNode:
    """A lightweight host: name, rack, health state.

    Duck-type compatible with :class:`repro.cluster.health.FailureInjector`
    (``name`` / ``state`` / ``mark``) without the per-node disk, cache and
    HCA machinery the 9-node testbed models — at 1000 nodes that detail
    costs more than it informs.
    """

    __slots__ = ("name", "rack", "state")

    def __init__(self, name: str, rack: "Rack"):
        self.name = name
        self.rack = rack
        self.state = NodeState.HEALTHY

    @property
    def healthy(self) -> bool:
        return self.state is NodeState.HEALTHY

    def mark(self, state: NodeState) -> None:
        self.state = state

    def __repr__(self) -> str:
        return f"<ScaleNode {self.name} {self.state.name}>"


class Rack:
    """One rack: compute nodes, a spare pool, and a checkpoint store link.

    Checkpoint flows cross ``[node uplink, rack store]`` so jobs
    checkpointing together contend for the store head.  ``index`` is the
    rack's position on the spare-borrowing ring.
    """

    def __init__(self, name: str, index: int, n_nodes: int, n_spares: int,
                 uplink_bw: float, store_bw: float):
        self.name = name
        self.index = index
        self.uplink_bw = uplink_bw
        self.nodes: List[ScaleNode] = [
            ScaleNode(f"{name}.n{i:02d}", self) for i in range(n_nodes)]
        self.spares: List[ScaleNode] = [
            ScaleNode(f"{name}.s{i}", self) for i in range(n_spares)]
        self.free: List[ScaleNode] = list(self.nodes)
        self.store = Link(f"{name}.store", store_bw)
        self._uplinks: Dict[str, Link] = {}
        #: Rack-head host name: runs the FTB agent for this rack.
        self.head = f"{name}.head"
        #: The rack's FTB client (node-level agent proxy), set at build.
        self.ftb: Optional[FTBClient] = None

    def uplink(self, node_name: str) -> Link:
        """The node's link into the rack store; created lazily so borrowed
        spares (named for a remote rack) get one in *this* rack too."""
        link = self._uplinks.get(node_name)
        if link is None:
            link = Link(f"{node_name}.up", self.uplink_bw)
            self._uplinks[node_name] = link
        return link

    def allocate(self, n: int) -> Optional[List[ScaleNode]]:
        if len(self.free) < n:
            return None
        taken, self.free = self.free[:n], self.free[n:]
        return taken

    def __repr__(self) -> str:
        return (f"<Rack {self.name} nodes={len(self.nodes)} "
                f"spares={len(self.spares)}>")


class _ScaleJob:
    """Runtime state of one placed job."""

    __slots__ = ("record", "rack", "nodes", "proc", "driver", "busy")

    def __init__(self, record: JobRecord, rack: Rack):
        self.record = record
        self.rack = rack
        self.nodes: List[ScaleNode] = []
        self.proc = None
        self.driver = None
        #: True while checkpointing / migrating / already handling a
        #: failure — the driver skips failures landing in those states.
        self.busy = False


def default_job_specs(n_jobs: int) -> List[BatchJobSpec]:
    """A deterministic mixed workload: 4/8/16-node jobs, 10–30 min of
    work, staggered submits, tight checkpoint cadence (compressed-time
    study — see :class:`ClusterScale`)."""
    specs = []
    for i in range(n_jobs):
        specs.append(BatchJobSpec(
            name=f"J{i:03d}",
            n_nodes=(4, 8, 8, 16)[i % 4],
            work_seconds=600.0 + 300.0 * (i % 5),
            submit_time=5.0 * i,
            checkpoint_interval=120.0,
            checkpoint_cost=2.0,
            restart_cost=12.0,
            migration_cost=6.3,
        ))
    return specs


class ClusterScale:
    """Build and run one cluster-scale scenario on one event loop.

    Parameters
    ----------
    n_nodes, n_jobs:
        Cluster size (compute nodes, racked 32 at a time by default) and
        workload size (see :func:`default_job_specs`).
    node_mtbf:
        Per-node MTBF in seconds.  The default (2 h) is deliberately
        compressed relative to production hardware so a sub-hour run
        exercises spare exhaustion and cross-rack borrowing.
    coverage:
        Probability a failure is predicted (the paper's proactive path).
    inter_rack_latency:
        Time of one hop between neighbouring racks on the spare-borrowing
        ring.
    """

    def __init__(self, n_nodes: int = 1000, n_jobs: int = 50,
                 seed: int = 0,
                 nodes_per_rack: int = 32, spares_per_rack: int = 1,
                 node_mtbf: float = 7200.0, coverage: float = 0.7,
                 failure_shape: Optional[float] = None,
                 repair_time: float = 900.0,
                 inter_rack_latency: float = 5e-6,
                 ckpt_bytes_per_node: float = 256e6,
                 uplink_bw: float = 1e9, store_bw: float = 2e9,
                 remote_migration_penalty: float = 4.0,
                 job_specs: Optional[List[BatchJobSpec]] = None,
                 trace: Any = None, metrics: Any = None):
        if n_nodes < nodes_per_rack:
            raise ValueError("need at least one full rack of nodes")
        self.seed = seed
        self.node_mtbf = node_mtbf
        self.coverage = coverage
        self.failure_shape = failure_shape
        self.repair_time = repair_time
        self.inter_rack_latency = inter_rack_latency
        self.ckpt_bytes_per_node = ckpt_bytes_per_node
        self.remote_migration_penalty = remote_migration_penalty
        self.streams = RandomStreams(seed)
        self.sim = Simulator(trace=trace, metrics=metrics)

        # -- substrate: fluid net, eth fabric, racks, one FTB tree --------
        self.net = FluidNetwork(self.sim)
        self.racks: List[Rack] = [
            Rack(f"rack{r:02d}", r, nodes_per_rack, spares_per_rack,
                 uplink_bw, store_bw)
            for r in range(n_nodes // nodes_per_rack)]
        heads = [r.head for r in self.racks]
        self.backplane = FTBBackplane(
            self.sim, EthernetFabric(self.sim, net=self.net), heads,
            root_node=heads[0])
        for rack in self.racks:
            rack.ftb = FTBClient(self.backplane, rack.head,
                                 f"nla.{rack.name}")
        self._jm = FTBClient(self.backplane, heads[0], "jm")
        self.ftb_alarms_at_jm = 0

        def _count_alarm(_event) -> None:
            self.ftb_alarms_at_jm += 1

        self._jm.subscribe("FTB.HW.*", callback=_count_alarm)

        # -- counters -------------------------------------------------------
        self.failures = 0
        self.migrations_local = 0
        self.migrations_remote = 0
        self.rollbacks = 0
        self.checkpoints = 0
        self.spare_requests = 0
        self.remote_grants = 0
        self.spare_denials = 0
        self.remote_restarts = 0
        self.jobs_completed = 0

        # -- place and start the workload -----------------------------------
        self.jobs: List[_ScaleJob] = []
        for spec in (job_specs if job_specs is not None
                     else default_job_specs(n_jobs)):
            if spec.n_nodes > nodes_per_rack:
                raise ValueError(
                    f"{spec.name}: n_nodes={spec.n_nodes} exceeds the rack "
                    f"size {nodes_per_rack}; jobs are rack-local")
            for rack in self.racks:  # first fit, deterministic order
                nodes = rack.allocate(spec.n_nodes)
                if nodes is not None:
                    job = _ScaleJob(JobRecord(spec=spec), rack)
                    job.nodes = nodes
                    self.jobs.append(job)
                    break
            else:
                raise ValueError(
                    f"{spec.name}: no rack has {spec.n_nodes} free nodes — "
                    f"shrink the workload or grow the cluster")
        for job in self.jobs:
            job.proc = self.sim.spawn(self._job_body(job),
                                      name=f"job.{job.record.spec.name}")
        self._ran = False

    @property
    def kernel(self) -> Simulator:
        """The event loop (``sim``), under the name shared with
        :class:`repro.scenario.Scenario`."""
        return self.sim

    @property
    def nets(self) -> List[FluidNetwork]:
        """Every fluid network in the scenario: the one ``net``."""
        return [self.net]

    # -- job lifecycle ------------------------------------------------------
    def _job_body(self, job: _ScaleJob) -> Generator:
        sim = self.sim
        rec = job.record
        spec = rec.spec
        trace = sim.trace
        if spec.submit_time > sim.now:
            yield sim.timeout(spec.submit_time - sim.now)
        rec.state = JobState.RUNNING
        rec.started_at = sim.now
        rec.first_start_at = sim.now
        if trace is not None:
            trace.record(sim.now, "cluster.job.launch", job=spec.name,
                         rack=job.rack.name, nodes=len(job.nodes))
        job.driver = sim.spawn(self._failure_driver(job),
                               name=f"fail.{spec.name}")
        while rec.remaining > 0:
            span = min(spec.checkpoint_interval - rec.since_checkpoint,
                       rec.remaining)
            start = sim.now
            try:
                yield sim.timeout(span)
            except Interrupt as intr:
                done = sim.now - start
                rec.useful_done += done
                rec.since_checkpoint += done
                yield from self._handle_failure(job, intr.cause)
                continue
            rec.useful_done += span
            rec.since_checkpoint += span
            if rec.remaining <= 0:
                break
            job.busy = True
            yield from self._checkpoint(job)
            job.busy = False
        rec.state = JobState.COMPLETED
        rec.completed_at = sim.now
        self.jobs_completed += 1
        if trace is not None:
            trace.record(sim.now, "cluster.job.complete", job=spec.name,
                         rack=job.rack.name, migrations=rec.n_migrations,
                         rollbacks=rec.n_rollbacks)
        if job.driver.is_alive:
            job.driver.interrupt("done")

    def _failure_driver(self, job: _ScaleJob) -> Generator:
        """Interrupt the job at drawn failure times until it completes."""
        sim = self.sim
        rng = self.streams.stream(f"fail.{job.record.spec.name}")
        while True:
            gap = failure_gap(rng, self.node_mtbf, len(job.nodes),
                              self.failure_shape)
            try:
                yield sim.timeout(gap)
            except Interrupt:
                return  # job finished
            if job.record.remaining <= 0:
                return
            victim = job.nodes[int(rng.integers(len(job.nodes)))]
            predicted = bool(rng.random() < self.coverage)
            if job.busy:
                # Mid-checkpoint / mid-migration: the span timeout we would
                # interrupt is not pending.  Skip this failure (draws stay
                # aligned) and re-arm.
                continue
            job.proc.interrupt((predicted, victim))

    def _handle_failure(self, job: _ScaleJob,
                        cause: Tuple[bool, ScaleNode]) -> Generator:
        predicted, victim = cause
        sim = self.sim
        rec = job.record
        spec = rec.spec
        trace = sim.trace
        job.busy = True
        victim.mark(NodeState.FAILED)
        self.failures += 1
        if trace is not None:
            trace.record(sim.now, "cluster.node.fail", node=victim.name,
                         rack=job.rack.name, predicted=predicted)
        job.rack.ftb.publish_nowait(
            FTB_HEALTH_ALARM, {"node": victim.name, "job": spec.name},
            severity="WARN" if predicted else "ERROR")
        if victim in job.nodes:
            job.nodes.remove(victim)
        sim.spawn(self._repair(job.rack, victim),
                  name=f"repair.{victim.name}")
        if predicted:
            spare, owner = yield from self._acquire_spare(job)
            if spare is not None:
                # Proactive path: live migration to the spare, no lost work.
                rec.n_migrations += 1
                remote = owner is not job.rack
                cost = spec.migration_cost
                if remote:
                    cost += self.remote_migration_penalty
                if trace is not None:
                    trace.record(sim.now, "cluster.job.migrate",
                                 job=spec.name, node=victim.name,
                                 spare=spare.name,
                                 mode="remote" if remote else "local")
                yield sim.timeout(cost)
                self._place_spare(job, spare, owner)
                job.busy = False
                return
            # Predicted but no spare anywhere: checkpoint proactively
            # (saving the in-flight work), wait out the repair, restart.
            yield from self._checkpoint(job)
            yield sim.timeout(self.repair_time)
            victim.mark(NodeState.HEALTHY)
            job.nodes.append(victim)
            yield sim.timeout(spec.restart_cost)
            job.busy = False
            return
        # Reactive path: the work since the last checkpoint is gone.
        rec.n_rollbacks += 1
        self.rollbacks += 1
        rec.useful_done -= rec.since_checkpoint
        rec.since_checkpoint = 0.0
        spare, owner = yield from self._acquire_spare(job)
        if spare is not None:
            self._place_spare(job, spare, owner)
        else:
            yield sim.timeout(self.repair_time)
            victim.mark(NodeState.HEALTHY)
            job.nodes.append(victim)
        yield sim.timeout(spec.restart_cost)
        job.busy = False

    def _place_spare(self, job: _ScaleJob, spare: ScaleNode,
                     owner: Rack) -> None:
        """The job's processes restart on ``spare``, granted by ``owner``."""
        job.nodes.append(spare)
        if owner is job.rack:
            self.migrations_local += 1
            return
        self.migrations_remote += 1
        self.remote_restarts += 1
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "cluster.spare.restart",
                         job=job.record.spec.name, node=spare.name,
                         src=job.rack.name, dst=owner.name)

    def _acquire_spare(self, job: _ScaleJob) -> Generator:
        """Find a spare: the job's own rack, then around the rack ring.

        Returns ``(node, granting rack)``, or ``(None, None)`` on a
        denial.  The own-rack pool answers at once.  Otherwise the request
        walks ``r+1, r+2, ...``, one ``inter_rack_latency`` per hop,
        checking each pool on arrival; a grant or a denial (the ring
        closed with no spare) costs one more hop back.  A borrowed spare
        is modelled as relocated hardware: a fresh :class:`ScaleNode`
        joins the job's rack.
        """
        sim = self.sim
        rack = job.rack
        if rack.spares:
            return rack.spares.pop(0), rack
        racks = self.racks
        hop = self.inter_rack_latency
        self.spare_requests += 1
        if sim.trace is not None:
            sim.trace.record(sim.now, "cluster.spare.request",
                             job=job.record.spec.name, src=rack.name,
                             dst=racks[(rack.index + 1) % len(racks)].name)
        for k in range(1, len(racks)):
            yield sim.timeout(hop)
            owner = racks[(rack.index + k) % len(racks)]
            if owner.spares:
                spare = owner.spares.pop(0)
                yield sim.timeout(hop)
                self.remote_grants += 1
                return ScaleNode(spare.name, rack), owner
        yield sim.timeout(hop)
        self.spare_denials += 1
        return None, None

    def _checkpoint(self, job: _ScaleJob) -> Generator:
        """Per-node image writes into the rack store, then the barrier.

        Callers own ``job.busy`` — this runs both from the periodic path
        and from inside failure handling, where busy must stay raised
        until the whole recovery finishes.
        """
        sim = self.sim
        rec = job.record
        spec = rec.spec
        trace = sim.trace
        flows = [self.net.transfer(
                     [job.rack.uplink(node.name), job.rack.store],
                     self.ckpt_bytes_per_node, label=f"ckpt:{spec.name}")
                 for node in job.nodes]
        yield sim.all_of(flows)
        yield sim.timeout(spec.checkpoint_cost)
        rec.since_checkpoint = 0.0
        self.checkpoints += 1
        if trace is not None:
            trace.record(sim.now, "cluster.ckpt", job=spec.name,
                         rack=job.rack.name,
                         nbytes=self.ckpt_bytes_per_node * len(job.nodes))

    def _repair(self, rack: Rack, node: ScaleNode) -> Generator:
        """A failed node is repaired and rejoins its rack's spare pool."""
        yield self.sim.timeout(self.repair_time)
        node.mark(NodeState.HEALTHY)
        if node not in rack.spares:
            rack.spares.append(node)

    # -- driving ------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Drain the whole workload and return the results dict."""
        if self._ran:
            raise RuntimeError("this scenario has already run")
        self.sim.run()
        self._ran = True
        return self.results()

    def results(self) -> Dict[str, Any]:
        """Deterministic scenario counters (the bench-gated surface)."""
        done = [j.record for j in self.jobs
                if j.record.state is JobState.COMPLETED]
        makespan = max((r.completed_at for r in done), default=0.0)
        return {
            "jobs_completed": self.jobs_completed,
            "failures": self.failures,
            "migrations_local": self.migrations_local,
            "migrations_remote": self.migrations_remote,
            "rollbacks": self.rollbacks,
            "checkpoints": self.checkpoints,
            "spare_requests": self.spare_requests,
            "remote_grants": self.remote_grants,
            "spare_denials": self.spare_denials,
            "remote_restarts": self.remote_restarts,
            "ftb_alarms_at_jm": self.ftb_alarms_at_jm,
            "events_processed": self.sim.events_processed,
            "makespan": round(makespan, 6),
        }
