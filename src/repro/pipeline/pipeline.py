"""The staged migration pipeline: checkpoint -> transport -> sink -> restart.

One :class:`MigrationPipeline` owns the whole Phase-2/3 data path of a
migration.  This module is the only place the stage names are spelled
out: :data:`TRANSPORTS` and :data:`SINKS` map each name to its class, and
the CLI's ``choices`` read the same tables.  The stages:

* **source** — the extended BLCR :class:`CheckpointEngine` scanning every
  victim process into the transport's aggregating sink;
* **transport** — ``rdma`` (the paper's buffer-pool session) or one of the
  socket/staging baselines, all feeding chunks to the target;
* **sink** — ``file`` (temp checkpoint files, the paper's Phase-2/3
  barrier) or ``memory`` (resident images, Sec. VI future work);
* **restart** — the NLA/BLCR rebuild.  With the memory sink the pipeline
  restarts each process *the instant its last chunk lands*, while other
  processes are still checkpointing — pipelined restart.

Backpressure is inherited from the transport (the 10 MB / 1 MB-chunk
pinned pool), and per-process completion events flow through the
session's ``completions`` store so the restart stage never polls.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..params import MigrationParams
from ..simulate.core import Process, Simulator
from ..blcr.checkpoint import CheckpointEngine
from ..core.baselines import (IPoIBMigrationSession, StagingMigrationSession,
                              TCPMigrationSession)
from ..core.buffer_manager import RDMAMigrationSession
from ..launch.nla import RestartSetMismatch
from .stages import FileReassemblySink, MemoryReassemblySink, ReassemblySink

__all__ = ["MigrationPipeline", "TRANSPORTS", "SINKS", "check_stage_names"]

#: Phase-2 transport sessions by name: the paper's buffer-pool session
#: and the Sec. III-B baselines.
TRANSPORTS = {
    "rdma": RDMAMigrationSession,
    "tcp": TCPMigrationSession,
    "ipoib": IPoIBMigrationSession,
    "staging": StagingMigrationSession,
}

#: Target-side reassembly sinks by restart mode.
SINKS = {
    "file": FileReassemblySink,
    "memory": MemoryReassemblySink,
}


def check_stage_names(transport: str, restart_mode: str) -> None:
    """Raise :class:`ValueError` unless both names are in the tables."""
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; choose "
                         f"{'|'.join(TRANSPORTS)}")
    if restart_mode not in SINKS:
        raise ValueError(f"unknown restart mode {restart_mode!r}; "
                         f"choose {'|'.join(SINKS)}")


class MigrationPipeline:
    """Composes one migration's Phase-2/3 stages around a transport session.

    Lifecycle (all driven by the framework, inside its ``migration`` span)::

        pipeline.open(source, target, n, target_nla=nla)  # before Phase 2
        yield from pipeline.start()                       # inside Phase 2
        yield from pipeline.transfer(victim_osprocs)      # Phase 2
        restarted = yield from pipeline.restart(nla)      # Phase 3
        pipeline.close()                                  # after Phase 3

    ``open``/``close`` bracket a ``pipeline.run`` span that parents the
    MIGRATION and RESTART phase spans, so the trace shows exactly which
    stages a given pipeline execution drove.
    """

    def __init__(self, sim: Simulator, cluster, transport: str = "rdma",
                 restart_mode: str = "file",
                 params: Optional[MigrationParams] = None):
        check_stage_names(transport, restart_mode)
        self.sim = sim
        self.cluster = cluster
        self.transport = transport
        self.restart_mode = restart_mode
        self.params = params or cluster.testbed.migration
        self.tracer = cluster.trace
        self.session = None
        self.sink: Optional[ReassemblySink] = None
        self.expected_procs = 0
        self.target_nla = None
        self.source = None
        self.target = None
        self._run_span = None
        self._watcher: Optional[Process] = None
        self._restart_workers: List[Process] = []
        self._restarted: Dict[str, object] = {}

    # -- stage 0: compose --------------------------------------------------
    def open(self, source, target, expected_procs: int,
             target_nla=None) -> None:
        """Build the sink + transport and enter the ``pipeline.run`` span.

        Takes no simulated time — the timed session setup happens in
        :meth:`start`, which the framework runs *inside* the Phase-2 span
        so the phase timeline stays contiguous.
        """
        self.source = source
        self.target = target
        self.expected_procs = expected_procs
        self._m_pending = self.sim.metrics.gauge("pipeline.procs.pending",
                                                 unit="processes")
        self._m_pending.set(float(expected_procs))
        self.target_nla = target_nla
        self._run_span = self.tracer.span(
            "pipeline.run", source=source.name, target=target.name,
            transport=self.transport, sink=self.restart_mode)
        self._run_span.__enter__()
        self.sink = SINKS[self.restart_mode](self.sim, target)
        self.session = TRANSPORTS[self.transport](
            self.sim, self.cluster, source, target, self.sink,
            params=self.params)

    def start(self) -> Generator:
        """Generator: establish the transport session (MRs, QPs, pumps)
        and arm the completion watcher."""
        yield from self.session.setup(expected_procs=self.expected_procs)
        self._watcher = self.sim.spawn(self._watch_completions(),
                                       name="pipeline-watch")

    # -- stage 1+2: checkpoint into the transport --------------------------
    def transfer(self, procs) -> Generator:
        """Generator: checkpoint every process through the transport and
        wait until the last byte is reassembled at the target."""
        engine = CheckpointEngine(self.sim, self.source.name,
                                  params=self.cluster.testbed.blcr,
                                  net=self.cluster.net)
        sink = self.session.sink()
        workers = [
            self.sim.spawn(
                engine.checkpoint(p, sink, chunk_bytes=self.params.chunk_size),
                name=f"ckpt.{p.name}")
            for p in procs
        ]
        yield self.sim.all_of(workers)
        yield self.session.done

    # -- stage 3: per-process completion -> (pipelined) restart ------------
    def _watch_completions(self) -> Generator:
        for _ in range(self.expected_procs):
            proc = yield self.session.completions.get()
            self._m_pending.dec()
            trace = self.sim.trace
            if trace is not None:
                trace.record(self.sim.now, "pipeline.proc.ready", proc=proc,
                             node=self.target.name, sink=self.restart_mode)
            if self.restart_mode == "memory" and self.target_nla is not None:
                self._restart_workers.append(
                    self.sim.spawn(self._restart_one(proc),
                                   name=f"pipeline-restart.{proc}"))

    def _restart_one(self, proc: str) -> Generator:
        with self.tracer.span("pipeline.restart", proc=proc,
                              node=self.target.name,
                              mode=self.restart_mode) as sp:
            trace = self.sim.trace
            if trace is not None:
                src = getattr(self.session, "reassembly_spans", {}).get(proc)
                trace.link(src, sp, "image.ready")
            osproc = yield from self.target_nla.restart_one(
                proc, self.sink.images[proc], mode="memory")
        self._restarted[proc] = osproc

    def restart(self, nla) -> Generator:
        """Generator: Phase 3.  File mode delegates to the NLA's batch
        restart (the file-read barrier); memory mode just joins the
        pipelined restarts that began as images completed."""
        if self.restart_mode == "memory":
            yield self._watcher
            if self._restart_workers:
                yield self.sim.all_of(self._restart_workers)
            if len(self._restarted) != self.expected_procs:
                raise RestartSetMismatch(
                    f"pipelined restart finished {len(self._restarted)} of "
                    f"{self.expected_procs} expected processes")
            nla.to_ready()
            return dict(self._restarted)
        restarted = yield from nla.restart_processes(
            self.sink.images, self.sink.paths,
            expected_procs=self.expected_procs,
            flow_from=getattr(self.session, "reassembly_spans", {}).values())
        return restarted

    def close(self) -> None:
        """Tear the transport down and close the ``pipeline.run`` span.

        Must be called *after* the Phase-3 span has exited: the run span
        sits below the phase spans on the task's span stack.
        """
        if self.session is not None:
            self.session.teardown()
        if self._run_span is not None:
            self._run_span.__exit__(None, None, None)
            self._run_span = None

    # -- accounting passthrough --------------------------------------------
    @property
    def bytes_pulled(self) -> float:
        return self.session.bytes_pulled

    @property
    def chunks_pulled(self) -> int:
        return self.session.chunks_pulled
