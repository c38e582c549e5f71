"""The stage tables of the migration's Phase-2/3 data path.

This module is the only place the stage names are spelled out:
:data:`TRANSPORTS` maps each transport name to its session class and
:data:`SINKS` each restart mode to its sink factory, and the CLI's
``choices`` read the same tables.
:meth:`~repro.core.framework.JobMigrationFramework.migrate` drives the
stages in order inside its ``pipeline.run`` span:

* **source** — the extended BLCR :class:`CheckpointEngine` scanning every
  victim process into the transport's aggregating sink;
* **transport** — ``rdma`` (the paper's buffer-pool session) or one of the
  socket/staging baselines, all feeding chunks to the target;
* **sink** — ``file`` (temp checkpoint files, the paper's Phase-2/3
  barrier) or ``memory`` (resident images, Sec. VI future work): BLCR's
  own :class:`~repro.blcr.checkpoint.FileSink` or
  :class:`~repro.blcr.checkpoint.MemorySink` at the target, fed the same
  image stream the source's engine wrote;
* **restart** — the NLA/BLCR rebuild.  With the memory sink the framework
  restarts each process *the instant its last chunk lands*, while other
  processes are still checkpointing — pipelined restart.

Backpressure is inherited from the transport (the 10 MB / 1 MB-chunk
pinned pool), and per-process completion events flow through the
session's ``completions`` store so the restart stage never polls.
"""

from __future__ import annotations

from ..blcr.checkpoint import FileSink, MemorySink
from ..core.baselines import (IPoIBMigrationSession, StagingMigrationSession,
                              TCPMigrationSession)
from ..core.buffer_manager import RDMAMigrationSession
from ..simulate.core import Simulator

__all__ = ["TRANSPORTS", "SINKS", "check_stage_names"]

#: Phase-2 transport sessions by name: the paper's buffer-pool session
#: and the Sec. III-B baselines.
TRANSPORTS = {
    "rdma": RDMAMigrationSession,
    "tcp": TCPMigrationSession,
    "ipoib": IPoIBMigrationSession,
    "staging": StagingMigrationSession,
}


def _file_sink(sim: Simulator, target) -> FileSink:
    """The paper's temp checkpoint files, through the target's page cache
    (no fsync): Phase 3 reads them back."""
    return FileSink(sim, target.fs, "/tmp/migrate", fsync=False,
                    through_cache=True)


def _memory_sink(sim: Simulator, target) -> MemorySink:
    """Resident images on the target, restarted as each completes."""
    return MemorySink(sim)


#: Target-side sink factories by restart mode, each called as
#: ``factory(sim, target_node)``.
SINKS = {
    "file": _file_sink,
    "memory": _memory_sink,
}


def check_stage_names(transport: str, restart_mode: str) -> None:
    """Raise :class:`ValueError` unless both names are in the tables."""
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; choose "
                         f"{'|'.join(TRANSPORTS)}")
    if restart_mode not in SINKS:
        raise ValueError(f"unknown restart mode {restart_mode!r}; "
                         f"choose {'|'.join(SINKS)}")
