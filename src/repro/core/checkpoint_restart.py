"""The Checkpoint/Restart baseline strategy (paper Sec. IV-C).

MVAPICH2's existing coordinated C/R [14]: *every* rank checkpoints to
stable storage (local ext3 or shared PVFS), versus the migration framework
that only moves the failing node's processes.  Shares the stall/resume
infrastructure with the migration framework, exactly as in MVAPICH2.

The four phases (with the paper's naming):

* **Job Stall** — identical to migration Phase 1;
* **Checkpoint** — all ranks dump durable images (fsync'd);
* **Resume** — identical to migration Phase 4;
* **Restart** — optional (only after an actual failure): relaunch the job
  and reload every image from the checkpoint files.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..simulate.core import Simulator
from ..ftb.events import FTB_CKPT_BEGIN, FTB_CKPT_DONE
from ..blcr.checkpoint import CheckpointEngine, FileSink
from ..blcr.restart import RestartEngine
from .protocol import CheckpointReport, RestartReport

__all__ = ["CheckpointRestartStrategy"]


class CheckpointRestartStrategy:
    """Full-job coordinated checkpoint (and optional restart) driver.

    ``destination`` selects the storage regime of Figure 7:
    ``"ext3"`` — each node's ranks write to the node-local disk;
    ``"pvfs"`` — every rank writes to the shared PVFS volume.
    """

    def __init__(self, framework, destination: str = "ext3",
                 ckpt_prefix: str = "/ckpt",
                 group_size: Optional[int] = None,
                 incremental: bool = False):
        if destination not in ("ext3", "pvfs"):
            raise ValueError(f"unknown destination {destination!r}")
        self.framework = framework
        self.sim: Simulator = framework.sim
        self.cluster = framework.cluster
        self.job = framework.job
        self.destination = destination
        self.ckpt_prefix = ckpt_prefix
        if destination == "pvfs" and self.cluster.pvfs is None:
            raise ValueError("cluster was built without a PVFS volume")
        #: Group-based coordinated checkpointing (Gao et al. [13]): ranks
        #: dump in staggered waves of ``group_size`` to curb storage
        #: contention.  ``None`` = all at once (the paper's configuration).
        if group_size is not None and group_size < 1:
            raise ValueError("group_size must be >= 1")
        self.group_size = group_size
        #: Incremental mode: epoch 1 is a full dump, later epochs capture
        #: only dirty segments; restart folds the delta chain.
        self.incremental = incremental
        self._epoch = 0
        #: Per-epoch sink bookkeeping for the restart pass.
        self._sinks: Dict[str, FileSink] = {}
        #: proc name -> ordered [(sink, path)] chain since the last full.
        self._chains: Dict[str, List[tuple]] = {}

    # ------------------------------------------------------------------
    def checkpoint(self) -> Generator:
        """Generator: one coordinated checkpoint; returns the report."""
        with self.framework._op_lock.request() as op:
            yield op
            report = yield from self._checkpoint_locked()
            return report

    def _checkpoint_locked(self) -> Generator:
        self._epoch += 1
        epoch = self._epoch
        report = CheckpointReport(destination=self.destination,
                                  started_at=self.sim.now,
                                  n_ranks=self.job.nprocs)
        t0 = self.sim.now
        # -- Job Stall -------------------------------------------------------
        yield from self.framework.stall_all(FTB_CKPT_BEGIN, {"epoch": epoch})
        t1 = self.sim.now
        report.stall_seconds = t1 - t0

        # -- Checkpoint ---------------------------------------------------------
        engines = {name: CheckpointEngine(self.sim, name,
                                          params=self.cluster.testbed.blcr,
                                          net=self.cluster.net)
                   for name in self.job.nodes_used}
        self._sinks = {}
        inc = self.incremental and epoch > 1
        bytes_written = 0.0
        group = self.group_size or self.job.nprocs
        for wave_start in range(0, self.job.nprocs, group):
            wave = self.job.ranks[wave_start:wave_start + group]
            workers = []
            for rank in wave:
                sink = self._sink_for(rank, epoch)
                self._sinks[rank.osproc.name] = sink
                bytes_written += (rank.osproc.dirty_bytes if inc
                                  else rank.osproc.image_bytes)
                workers.append(self.sim.spawn(
                    engines[rank.node.name].checkpoint(
                        rank.osproc, sink, incremental=inc),
                    name=f"cr-ckpt.r{rank.rank}"))
            yield self.sim.all_of(workers)
        # Record the restart chain: a full dump resets it.
        for rank in self.job.ranks:
            name = rank.osproc.name
            sink = self._sinks[name]
            path = f"{sink.path_prefix}/{name}.ckpt"
            if not inc:
                self._chains[name] = []
            self._chains[name].append((sink, path))
        yield from self.framework.jm.ftb.publish(FTB_CKPT_DONE,
                                                 {"epoch": epoch})
        t2 = self.sim.now
        report.checkpoint_seconds = t2 - t1
        report.bytes_written = bytes_written

        # -- Resume ------------------------------------------------------------
        yield from self.framework.resume_all()
        report.resume_seconds = self.sim.now - t2
        return report

    def _sink_for(self, rank, epoch: int) -> FileSink:
        prefix = f"{self.ckpt_prefix}/e{epoch}"
        if self.destination == "ext3":
            return FileSink(self.sim, rank.node.fs, prefix, fsync=True,
                            through_cache=True)
        return FileSink(self.sim, self.cluster.pvfs, prefix,
                        client=rank.node.name, fsync=True)

    # ------------------------------------------------------------------
    def restart(self) -> Generator:
        """Generator: reload the whole job from the last checkpoint.

        Models the reactive-recovery path: relaunch the ranks on their
        nodes, then every rank reads its image back.  (The queueing delay of
        resubmitting through the batch scheduler — which the paper calls out
        as a further CR penalty — is *excluded*, as in the paper's
        measurements.)  Returns the report.
        """
        if not self._chains:
            raise RuntimeError("restart() before any checkpoint()")
        report = RestartReport(destination=self.destination,
                               n_ranks=self.job.nprocs)
        t0 = self.sim.now
        # The relaunched processes replace the job's current ones, which
        # terminate first: their address spaces are released before the
        # images are read back.
        for rank in self.job.ranks:
            rank.osproc.kill()
        # Relaunch processes via the NLAs (parallel across nodes).
        per_node: Dict[str, int] = {}
        for rank in self.job.ranks:
            per_node[rank.node.name] = per_node.get(rank.node.name, 0) + 1
        launchers = [
            self.sim.spawn(self.framework.jm.nla(name).launch_processes(n),
                           name=f"cr-launch.{name}")
            for name, n in per_node.items()
        ]
        yield self.sim.all_of(launchers)

        engines = {name: RestartEngine(self.sim, name,
                                       params=self.cluster.testbed.blcr)
                   for name in per_node}

        def reload(rank) -> Generator:
            name = rank.osproc.name
            chain = [(path, sink.metadata[path])
                     for sink, path in self._chains[name]]
            engine = engines[rank.node.name]
            if self.destination == "ext3":
                proc = yield from engine.restart_from_chain(
                    rank.node.fs, chain)
            else:
                proc = yield from engine.restart_from_chain(
                    self.cluster.pvfs, chain, client=rank.node.name)
            rank.osproc = proc
            rank.osproc.node = rank.node.name

        workers = [self.sim.spawn(reload(rank), name=f"cr-restart.r{rank.rank}")
                   for rank in self.job.ranks]
        yield self.sim.all_of(workers)
        # Endpoint bring-up for the restarted job.
        yield from self.framework.jm.pmi_exchange(self.job.nprocs)
        report.restart_seconds = self.sim.now - t0
        report.bytes_read = float(sum(
            sink.metadata[path].nbytes
            for chain in self._chains.values() for sink, path in chain))
        return report
