"""Cluster-scale failure-driven migration study on the sharded kernel.

The paper's testbed is 8+1 nodes running one job; its *argument* is about
clusters — proactive migration beats reactive checkpoint/restart when
failures are frequent and spares are scarce.  This module scales the
failure/migration dynamics to that regime: hundreds of nodes in racks,
dozens of concurrent jobs, rack-local checkpoint traffic, spare pools
that actually run dry, and cross-rack spare borrowing when they do.

It is also the reason the sharded kernel exists.  Racks are the
partitions: each rack's checkpoint flows ride its own store link on its
shard's own :class:`~repro.network.fluid.FluidNetwork`, each shard runs
its own FTB backplane over the rack-head nodes, and the *only*
cross-shard interactions — spare borrowing and FTB fan-out — travel
through the kernel's timestamped mailboxes
(:meth:`~repro.simulate.shard.EventShard.post`), never by touching
another shard's state directly (the SIM103 lint enforces that).

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
* **Predicted** failures migrate to a spare: rack pool first, then any
  pool on the same shard, then a token-tracked request that hops shard to
  shard through the mailbox until a pool grants or everyone denies.  A
  remote grant restarts the migrated processes on hardware owned by
  another shard — the ``cluster.spare.restart`` record lands over there.
* **Unpredicted** failures roll back to the last checkpoint (losing
  ``since_checkpoint`` work) and restart on a spare, or wait out the
  victim's repair when none exists anywhere.
* Repaired victims rejoin their rack's spare pool; borrowed spares do
  not come back — scarcity compounds, which is the point.

Everything is deterministic: named RNG streams per job, static
placement, and the conservative window loop make ``results()``
byte-stable run to run — the shards=4 determinism suite and the
``cluster_scale`` bench family both pin it.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..ftb.agent import FTBBackplane
from ..ftb.bridge import FTBShardBridge
from ..ftb.client import FTBClient
from ..ftb.events import FTB_HEALTH_ALARM
from ..network.ethernet import EthernetFabric
from ..network.fluid import FluidNetwork, Link
from ..sched.jobs import BatchJobSpec, JobRecord, JobState
from ..sched.scheduler import failure_gap
from ..simulate.core import Interrupt
from ..simulate.rng import RandomStreams
from ..simulate.shard import (
    PartitionMap,
    ShardMessage,
    ShardedSimulator,
    derive_lookahead,
)
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

    The rack is the sharding partition.  All its fluid links live on its
    shard's network; checkpoint flows cross ``[node uplink, rack store]``
    so jobs checkpointing together contend for the store head.
    """

    def __init__(self, name: str, shard_id: int, net: FluidNetwork,
                 n_nodes: int, n_spares: int, uplink_bw: float,
                 store_bw: float):
        self.name = name
        self.shard_id = shard_id
        self.net = net
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
        return (f"<Rack {self.name} shard={self.shard_id} "
                f"nodes={len(self.nodes)} spares={len(self.spares)}>")


class _ScaleJob:
    """Runtime state of one placed job."""

    __slots__ = ("record", "rack", "shard", "nodes", "proc", "driver", "busy")

    def __init__(self, record: JobRecord, rack: Rack, shard):
        self.record = record
        self.rack = rack
        self.shard = shard
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
    """Build and run one cluster-scale scenario on the sharded kernel.

    Parameters
    ----------
    n_nodes, n_jobs:
        Cluster size (compute nodes, racked 32 at a time by default) and
        workload size (see :func:`default_job_specs`).
    shards:
        Kernel partitions.  Racks map to shards round-robin; ``shards``
        must not exceed the rack count.  ``shards=1`` runs the identical
        model on one loop (the determinism suite compares both).
    node_mtbf:
        Per-node MTBF in seconds.  The default (2 h) is deliberately
        compressed relative to production hardware so a sub-hour run
        exercises spare exhaustion and cross-shard borrowing.
    coverage:
        Probability a failure is predicted (the paper's proactive path).
    inter_rack_latency:
        Latency of every rack-to-rack link; the minimum over links that
        cross shards is the kernel's lookahead (:func:`derive_lookahead`).
    """

    def __init__(self, n_nodes: int = 1000, n_jobs: int = 50,
                 shards: int = 8, seed: int = 0,
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
        n_racks = n_nodes // nodes_per_rack
        if shards > n_racks:
            raise ValueError(
                f"shards={shards} exceeds the rack count {n_racks}; racks "
                f"are the partition unit, so at most one shard per rack")
        self.seed = seed
        self.node_mtbf = node_mtbf
        self.coverage = coverage
        self.failure_shape = failure_shape
        self.repair_time = repair_time
        self.ckpt_bytes_per_node = ckpt_bytes_per_node
        self.remote_migration_penalty = remote_migration_penalty
        self.streams = RandomStreams(seed)

        rack_names = [f"rack{r:02d}" for r in range(n_racks)]
        self.partition_map = PartitionMap.round_robin(rack_names, shards)
        if shards > 1:
            lookahead = derive_lookahead(
                inter_rack_latency
                for i, a in enumerate(rack_names)
                for b in rack_names[i + 1:]
                if self.partition_map.shard_of(a)
                != self.partition_map.shard_of(b))
        else:
            lookahead = None
        self.kernel = ShardedSimulator(shards=shards, lookahead=lookahead,
                                       trace=trace, metrics=metrics)

        # -- per-shard substrate: fluid net, eth fabric, racks, FTB tree --
        self.nets: List[FluidNetwork] = [
            FluidNetwork(self.kernel.shard(s)) for s in range(shards)]
        self.racks: List[Rack] = []
        self.racks_on_shard: List[List[Rack]] = [[] for _ in range(shards)]
        for name in rack_names:
            sid = self.partition_map.shard_of(name)
            rack = Rack(name, sid, self.nets[sid], nodes_per_rack,
                        spares_per_rack, uplink_bw, store_bw)
            self.racks.append(rack)
            self.racks_on_shard[sid].append(rack)
        self.backplanes: Dict[int, FTBBackplane] = {}
        for sid in range(shards):
            shard = self.kernel.shard(sid)
            fabric = EthernetFabric(shard, net=self.nets[sid])
            heads = [r.head for r in self.racks_on_shard[sid]]
            bp = FTBBackplane(shard, fabric, heads, root_node=heads[0])
            self.backplanes[sid] = bp
            for rack in self.racks_on_shard[sid]:
                rack.ftb = FTBClient(bp, rack.head, f"nla.{rack.name}")
            shard.subscribe(self._mail_handler(sid))
        self.bridge: Optional[FTBShardBridge] = (
            FTBShardBridge(self.kernel, self.backplanes)
            if shards > 1 else None)
        # The Job Manager listens on shard 0; with the bridge in place it
        # hears alarms raised in every shard's tree.
        self._jm = FTBClient(self.backplanes[0],
                             self.racks_on_shard[0][0].head, "jm")
        self.ftb_alarms_at_jm = 0

        def _count_alarm(_event) -> None:
            self.ftb_alarms_at_jm += 1

        self._jm.subscribe("FTB.HW.*", callback=_count_alarm)

        # -- spare-borrow bookkeeping -------------------------------------
        self._tokens = count()
        self._pending: Dict[int, Any] = {}

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
            placed = False
            for rack in self.racks:  # first fit, deterministic order
                nodes = rack.allocate(spec.n_nodes)
                if nodes is not None:
                    job = _ScaleJob(JobRecord(spec=spec), rack,
                                    self.kernel.shard(rack.shard_id))
                    job.nodes = nodes
                    self.jobs.append(job)
                    placed = True
                    break
            if not placed:
                raise ValueError(
                    f"{spec.name}: no rack has {spec.n_nodes} free nodes — "
                    f"shrink the workload or grow the cluster")
        for job in self.jobs:
            job.proc = job.shard.spawn(self._job_body(job),
                                       name=f"job.{job.record.spec.name}")
        self._ran = False

    # -- cross-shard mail ---------------------------------------------------
    def _mail_handler(self, sid: int):
        """Handler for this scenario's mailbox topics on shard ``sid``.

        ``spare.request`` hops shard to shard until a pool grants or the
        ring closes; ``spare.grant`` resolves the origin's wait event;
        ``spare.restart`` emits the restart record in the shard that owns
        the granted hardware.
        """
        def handle(msg: ShardMessage) -> None:
            shard = self.kernel.shard(sid)
            if msg.topic == "spare.request":
                job_name, origin, token = msg.data
                for rack in self.racks_on_shard[sid]:
                    if rack.spares:
                        spare = rack.spares.pop(0)
                        shard.post(origin, "spare.grant",
                                   (token, spare.name, sid))
                        return
                nxt = (sid + 1) % self.kernel.n_shards
                if nxt == origin:  # ring closed: nobody had one
                    shard.post(origin, "spare.grant", (token, None, sid))
                else:
                    shard.post(nxt, "spare.request", msg.data)
            elif msg.topic == "spare.grant":
                token, spare_name, src = msg.data
                ev = self._pending.pop(token)
                ev.succeed(None if spare_name is None
                           else (spare_name, src))
            elif msg.topic == "spare.restart":
                job_name, node_name, src, dst = msg.data
                self.remote_restarts += 1
                trace = shard.trace
                if trace is not None:
                    trace.record(shard.now, "cluster.spare.restart",
                                 job=job_name, node=node_name, src=src,
                                 dst=dst)
        return handle

    # -- job lifecycle ------------------------------------------------------
    def _job_body(self, job: _ScaleJob) -> Generator:
        sim = job.shard
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
        sim = job.shard
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
        sim = job.shard
        rec = job.record
        spec = rec.spec
        trace = sim.trace
        job.busy = True
        victim.mark(NodeState.FAILED)
        self.failures += 1
        if trace is not None:
            trace.record(sim.now, "cluster.node.fail", node=victim.name,
                         rack=job.rack.name, predicted=predicted)
        if job.rack.ftb is not None:
            job.rack.ftb.publish_nowait(
                FTB_HEALTH_ALARM,
                {"node": victim.name, "job": spec.name},
                severity="WARN" if predicted else "ERROR")
        if victim in job.nodes:
            job.nodes.remove(victim)
        sim.spawn(self._repair(job.rack, victim),
                  name=f"repair.{victim.name}")
        if predicted:
            spare, src_shard = yield from self._acquire_spare(job)
            if spare is not None:
                # Proactive path: live migration to the spare, no lost work.
                rec.n_migrations += 1
                mode = "local" if src_shard == sim.shard_id else "remote"
                if mode == "local":
                    self.migrations_local += 1
                    cost = spec.migration_cost
                else:
                    self.migrations_remote += 1
                    cost = spec.migration_cost + self.remote_migration_penalty
                if trace is not None:
                    trace.record(sim.now, "cluster.job.migrate",
                                 job=spec.name, node=victim.name,
                                 spare=spare.name, mode=mode)
                yield sim.timeout(cost)
                job.nodes.append(spare)
                if mode == "remote":
                    sim.post(src_shard, "spare.restart",
                             (spec.name, spare.name, sim.shard_id,
                              src_shard))
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
        spare, src_shard = yield from self._acquire_spare(job)
        if spare is not None:
            mode = "local" if src_shard == sim.shard_id else "remote"
            job.nodes.append(spare)
            if mode == "remote":
                self.migrations_remote += 1
                sim.post(src_shard, "spare.restart",
                         (spec.name, spare.name, sim.shard_id, src_shard))
            else:
                self.migrations_local += 1
        else:
            yield sim.timeout(self.repair_time)
            victim.mark(NodeState.HEALTHY)
            job.nodes.append(victim)
        yield sim.timeout(spec.restart_cost)
        job.busy = False

    def _acquire_spare(self, job: _ScaleJob) -> Generator:
        """Find a spare: own rack, own shard, then ring the other shards.

        Returns ``(node, owning_shard)`` or ``(None, own_shard)``.  A
        remotely granted spare is modelled as relocated hardware — a fresh
        :class:`ScaleNode` joins the job's rack; the restart record stays
        with the granting shard (see ``spare.restart`` in the handler).
        """
        sim = job.shard
        trace = sim.trace
        if job.rack.spares:
            return job.rack.spares.pop(0), sim.shard_id
        for rack in self.racks_on_shard[sim.shard_id]:
            if rack.spares:
                return rack.spares.pop(0), sim.shard_id
        if self.kernel.n_shards == 1:
            return None, sim.shard_id
        token = next(self._tokens)
        ev = sim.event(name=f"spare.{token}")
        self._pending[token] = ev
        dst = (sim.shard_id + 1) % self.kernel.n_shards
        self.spare_requests += 1
        if trace is not None:
            trace.record(sim.now, "cluster.spare.request",
                         job=job.record.spec.name, src=sim.shard_id,
                         dst=dst)
        sim.post(dst, "spare.request",
                 (job.record.spec.name, sim.shard_id, token))
        granted = yield ev
        if granted is None:
            self.spare_denials += 1
            return None, sim.shard_id
        spare_name, src_shard = granted
        self.remote_grants += 1
        return ScaleNode(spare_name, job.rack), src_shard

    def _checkpoint(self, job: _ScaleJob) -> Generator:
        """Per-node image writes into the rack store, then the barrier.

        Callers own ``job.busy`` — this runs both from the periodic path
        and from inside failure handling, where busy must stay raised
        until the whole recovery finishes.
        """
        sim = job.shard
        rec = job.record
        spec = rec.spec
        trace = sim.trace
        flows = [job.rack.net.transfer(
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
        sim = self.kernel.shard(rack.shard_id)
        yield sim.timeout(self.repair_time)
        node.mark(NodeState.HEALTHY)
        if node not in rack.spares:
            rack.spares.append(node)

    # -- driving ------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Drain the whole workload and return the results dict."""
        if self._ran:
            raise RuntimeError("this scenario has already run")
        self.kernel.run()
        self._ran = True
        return self.results()

    def results(self) -> Dict[str, Any]:
        """Deterministic scenario counters (the bench-gated surface)."""
        done = [j.record for j in self.jobs
                if j.record.state is JobState.COMPLETED]
        makespan = max((r.completed_at for r in done), default=0.0)
        out = {
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
            "windows": self.kernel.windows,
            "mail_delivered": self.kernel.mail_delivered,
            "events_processed": self.kernel.events_processed,
            "makespan": round(makespan, 6),
        }
        if self.bridge is not None:
            out["ftb_relayed"] = self.bridge.relayed_out
            out["ftb_crossings"] = self.bridge.total_crossings()
        return out
