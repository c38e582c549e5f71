"""Baseline Phase-2 transports the paper argues against (Sec. III-B).

Each implements the same session interface as
:class:`~repro.core.buffer_manager.RDMAMigrationSession` so the framework
can swap them in for the transport ablation:

* ``tcp`` — Wang et al.'s socket-based live migration [9]: BLCR treats a
  TCP socket as the checkpoint fd; every byte pays the GigE wire *and* the
  kernel memory copies at both hosts;
* ``ipoib`` — the same socket protocol over the InfiniBand wire: faster
  wire, same copy overhead ("suboptimal performance because it still
  follows the memory-copy based socket protocol");
* ``staging`` — the naive strategy: checkpoint to a local file, copy the
  file to the target, restart from it.  Pays the source disk twice.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

import numpy as np

from ..params import MigrationParams
from ..simulate.core import Event, Simulator
from ..simulate.resources import Resource, Store
from ..network.ipoib import IPoIBFabric
from ..blcr.checkpoint import CheckpointSink, FileSink
from ..blcr.image import CheckpointImage
from ..cluster.node import Cluster, Node

__all__ = ["TCPMigrationSession", "IPoIBMigrationSession",
           "StagingMigrationSession"]


class _BaselineSession:
    """Shared bookkeeping: target writes, completion tracking, accounting."""

    def __init__(self, sim: Simulator, cluster: Cluster, source: Node,
                 target: Node, target_sink: CheckpointSink,
                 params: Optional[MigrationParams] = None):
        self.sim = sim
        self.cluster = cluster
        self.source = source
        self.target = target
        self.params = params or cluster.testbed.migration
        self.expected_procs = 0
        self._finals_seen = 0
        self.done: Event = Event(sim, name="baseline-transfer-done")
        self.target_sink = target_sink
        #: Per-process completion stream (see buffer_manager).
        self.completions: Store = Store(sim)
        #: No reassembly spans: restarts have no image -> restart flow.
        self.reassembly_spans: Dict[str, int] = {}
        self.bytes_pulled = 0.0
        self.chunks_pulled = 0

    def setup(self, expected_procs: int) -> Generator:
        if expected_procs < 1:
            raise ValueError("expected_procs must be >= 1")
        self.expected_procs = expected_procs
        yield self.sim.timeout(0)

    def sink(self):
        return self

    def teardown(self) -> None:
        pass

    def _write_target(self, image: CheckpointImage, offset: int, nbytes: int,
                      data: Optional[np.ndarray]) -> Generator:
        yield from self.target_sink.write(image, offset, nbytes, data)
        self.bytes_pulled += nbytes
        self.chunks_pulled += 1

    def _finish(self, image: CheckpointImage) -> Generator:
        yield from self.target_sink.finalize(image)
        self._finals_seen += 1
        self.completions.put(image.proc_name)
        if self._finals_seen == self.expected_procs:
            self.done.succeed()


class TCPMigrationSession(_BaselineSession):
    """Socket-streamed images over the GigE maintenance network."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        #: One socket per migration: sends serialize like a TCP stream.
        self._stream_lock = Resource(self.sim, capacity=1)
        self.fabric = self._make_fabric()

    def _make_fabric(self):
        return self.cluster.eth

    def write(self, image: CheckpointImage, offset: int, nbytes: int,
              data: Optional[np.ndarray]) -> Generator:
        with self._stream_lock.request() as req:
            yield req
            yield self.fabric.transfer(self.source.name, self.target.name,
                                       nbytes, label="mig-tcp")
        yield from self._write_target(image, offset, nbytes, data)

    def finalize(self, image: CheckpointImage) -> Generator:
        yield from self._finish(image)


class IPoIBMigrationSession(TCPMigrationSession):
    """The same socket protocol riding IPoIB instead of GigE."""

    def _make_fabric(self):
        return IPoIBFabric(self.sim, self.cluster.ib)


class StagingMigrationSession(_BaselineSession):
    """Checkpoint to a local file, then copy the file to the target."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        #: Stage 1: BLCR's normal behaviour, a durable checkpoint file on
        #: the *source* disk.
        self._stage = FileSink(self.sim, self.source.fs, "/tmp/stage",
                               fsync=True, through_cache=True)

    def write(self, image: CheckpointImage, offset: int, nbytes: int,
              data: Optional[np.ndarray]) -> Generator:
        yield from self._stage.write(image, offset, nbytes, data)

    def finalize(self, image: CheckpointImage) -> Generator:
        yield from self._stage.finalize(image)
        self.sim.spawn(self._copy_over(image, self._stage.path_for(image)),
                       name=f"stage-copy.{image.proc_name}")
        yield self.sim.timeout(0)

    def _copy_over(self, image: CheckpointImage, src_path: str) -> Generator:
        """Read the staged file back and ship it to the target over IB."""
        read_handle = yield from self.source.fs.open(src_path)
        chunk = 4 << 20
        offset = 0
        while offset < image.nbytes:
            n = min(chunk, image.nbytes - offset)
            data = yield from self.source.fs.read(read_handle, nbytes=n)
            yield self.cluster.ib.move(self.source.name, self.target.name,
                                       n, kind="stage-copy")
            yield from self._write_target(image, offset, n, data)
            offset += n
        yield from self.source.fs.close(read_handle)
        yield from self._finish(image)
