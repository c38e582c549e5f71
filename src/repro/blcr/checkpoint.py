"""BLCR checkpoint engine with pluggable output sinks.

Real BLCR writes the process image through the VFS to whatever file
descriptor it was given; the paper's extension interposes on exactly that
boundary to aggregate writes into a buffer pool.  We model the boundary as
the :class:`CheckpointSink` protocol:

* :class:`FileSink` — per-process checkpoint files on a local or parallel
  filesystem: the CR strategy's fsync'd files, the staging transport's
  source file, and the migration target's temp files (the paper's
  Phase-2/3 barrier), which chunks reach in any order;
* :class:`MemorySink` — reassemble the image in memory: the migration
  target's resident images for the memory-based restart extension
  (Sec. VI);
* the migration buffer-pool sink lives in :mod:`repro.core.buffer_manager`
  (it *is* the paper's contribution).  Each transport session feeds a
  :class:`FileSink` or :class:`MemorySink` at the target with the same
  image object the engine streamed, so both ends speak one protocol.

The engine charges the per-process quiesce overhead, then streams the image
in chunks: each chunk's generation crosses the per-process scan limit and
the node's shared memory bus, then is handed to the sink (which applies its
own costs: disk, network, pool backpressure).

The stream is copy-light, as in BLCR writing a frozen process's pages
straight to its file descriptor: a chunk is a read-only view of the frozen
process's segments (only a chunk spanning a segment boundary is
concatenated), and the engine keeps no payload.  A sink that retains bytes
copies what it receives; the process stays frozen until the stream ends,
so the views are stable while a sink holds them.
"""

from __future__ import annotations

import copy
from typing import Dict, Generator, Iterator, List, Optional, Protocol

import numpy as np

from ..params import BLCRParams
from ..simulate.core import Event, Simulator
from ..network.fluid import FluidNetwork, Link
from ..cluster.osproc import MemorySegment, OSProcess
from .image import CheckpointImage

__all__ = ["CheckpointSink", "FileSink", "MemorySink", "CheckpointEngine"]


class CheckpointSink(Protocol):
    """Destination for one process's checkpoint stream."""

    def write(self, image: CheckpointImage, offset: int, nbytes: int,
              data: Optional[np.ndarray]) -> Generator:
        """Generator: absorb one chunk of the image stream."""
        ...

    def finalize(self, image: CheckpointImage) -> Generator:
        """Generator: the stream is complete (close/fsync/flush)."""
        ...


class MemorySink:
    """Reassembles the stream in memory and exposes the received images.

    Each image's bytes are copied into one buffer preallocated at its
    first chunk; ``finalize`` publishes a payload-bearing image (a
    header-only one when the stream carried no bytes).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: By image object: ``write`` and ``finalize`` get the same one.
        self._buffers: Dict[CheckpointImage, bytearray] = {}
        self._received: Dict[CheckpointImage, int] = {}
        self.images: Dict[str, CheckpointImage] = {}
        self.bytes_received = 0

    def write(self, image: CheckpointImage, offset: int, nbytes: int,
              data: Optional[np.ndarray]) -> Generator:
        if data is not None:
            buf = self._buffers.get(image)
            if buf is None:
                buf = self._buffers[image] = bytearray(image.nbytes)
            buf[offset:offset + nbytes] = memoryview(data)
        self._received[image] = self._received.get(image, 0) + nbytes
        self.bytes_received += nbytes
        yield self.sim.timeout(0)

    def finalize(self, image: CheckpointImage) -> Generator:
        got = self._received.pop(image, 0)
        buf = self._buffers.pop(image, None)
        if got != image.nbytes:
            raise RuntimeError(
                f"incomplete stream for {image!r}: {got}/{image.nbytes}")
        if buf is not None:
            image = CheckpointImage(image.proc_name, image.origin_node,
                                    image.layout, image.app_state, buf)
        self.images[image.proc_name] = image
        yield self.sim.timeout(0)


class FileSink:
    """One checkpoint file per process on a filesystem.

    ``fs`` may be a :class:`~repro.storage.filesystem.LocalFS` or a
    :class:`~repro.storage.pvfs.PVFS`; PVFS needs the writing ``client``
    node name.  ``fsync=True`` gives CR durability (pays the journal /
    metadata sync); the migration target's temp files use ``fsync=False``.
    ``through_cache`` is honoured by LocalFS only.

    LocalFS chunks land at their stream offset, so a transport may deliver
    them in any order and from concurrent writers: the first writer of an
    image creates its file while later ones wait on its gate.
    """

    def __init__(self, sim: Simulator, fs, path_prefix: str,
                 client: Optional[str] = None, fsync: bool = True,
                 through_cache: bool = False):
        self.sim = sim
        self.fs = fs
        self.path_prefix = path_prefix
        self.client = client
        self.fsync = fsync
        self.through_cache = through_cache
        #: Open handle per image, or the creation gate while it is opening.
        self._handles: Dict[CheckpointImage, object] = {}
        #: image header parked alongside each closed file, by path (BLCR
        #: header stand-in): what a restart reads the file back with.
        self.metadata: Dict[str, CheckpointImage] = {}

    def path_for(self, image: CheckpointImage) -> str:
        return f"{self.path_prefix}/{image.proc_name}.ckpt"

    def _handle(self, image: CheckpointImage) -> Generator:
        """Generator: the image's file handle, created by its first caller."""
        entry = self._handles.get(image)
        if isinstance(entry, Event):
            yield entry
            entry = self._handles[image]
        if entry is not None:
            return entry
        gate = Event(self.sim, name=f"create.{image.proc_name}")
        self._handles[image] = gate
        if self.client is not None:
            handle = yield from self.fs.create(self.path_for(image), self.client)
        else:
            handle = yield from self.fs.create(self.path_for(image))
        self._handles[image] = handle
        gate.succeed()
        return handle

    def write(self, image: CheckpointImage, offset: int, nbytes: int,
              data: Optional[np.ndarray]) -> Generator:
        handle = yield from self._handle(image)
        if self.client is not None:  # PVFS signature
            yield from self.fs.write(handle, nbytes, data=data)
        else:
            yield from self.fs.write(handle, nbytes, data=data,
                                     through_cache=self.through_cache,
                                     offset=offset)

    def finalize(self, image: CheckpointImage) -> Generator:
        handle = yield from self._handle(image)  # zero-length: creates it
        yield from self.fs.close(handle, sync=self.fsync)
        self.metadata[self.path_for(image)] = image
        del self._handles[image]


def _frozen_pages(segments: List[MemorySegment],
                  chunk_bytes: int) -> Iterator[np.ndarray]:
    """Successive ``chunk_bytes`` windows of the segments' bytes, in order.

    Each window is a read-only view of one segment; only a window that
    spans a segment boundary is concatenated (a chunk-sized copy).  A
    segment without bytes reads as zero pages.
    """
    parts: List[np.ndarray] = []
    have = 0
    for seg in segments:
        if seg.data is None:
            pages = np.zeros(seg.nbytes, dtype=np.uint8)
        else:
            pages = seg.data.view()
        pages.flags.writeable = False
        pos = 0
        while pos < seg.nbytes:
            take = min(chunk_bytes - have, seg.nbytes - pos)
            parts.append(pages[pos:pos + take])
            have += take
            pos += take
            if have == chunk_bytes:
                yield parts[0] if len(parts) == 1 else np.concatenate(parts)
                parts = []
                have = 0
    if parts:
        yield parts[0] if len(parts) == 1 else np.concatenate(parts)


class CheckpointEngine:
    """Drives BLCR checkpoints for the processes of one node."""

    def __init__(self, sim: Simulator, node_name: str,
                 params: Optional[BLCRParams] = None,
                 net: Optional[FluidNetwork] = None):
        self.sim = sim
        self.node_name = node_name
        self.params = params or BLCRParams()
        self.net = net or FluidNetwork(sim)
        #: Shared memory bus: concurrent per-process scans contend here.
        self.membus = Link(f"blcr.{node_name}.membus",
                           self.params.node_memory_bandwidth)

    def checkpoint(self, proc: OSProcess, sink: CheckpointSink,
                   chunk_bytes: int = 1 << 20,
                   incremental: bool = False) -> Generator:
        """Generator: checkpoint ``proc`` into ``sink``; returns the image
        header (layout and app state, no payload: the bytes went to the
        sink).

        The stream is emitted in ``chunk_bytes`` windows; each window pays
        scan time (per-process rate, node bus shared) before the sink's own
        cost.  Sinks with backpressure (the migration buffer pool) therefore
        pipeline naturally against the scan.

        ``incremental=True`` captures only dirty segments (a delta relative
        to the previous capture) and clears the process's dirty bits; fold
        deltas over a base with :meth:`CheckpointImage.merge`.
        """
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if not proc.alive:
            raise RuntimeError(f"cannot checkpoint dead process {proc!r}")
        metrics = self.sim.metrics
        m_scanned = metrics.counter("blcr.bytes_scanned", unit="bytes")
        h_ckpt = metrics.histogram("blcr.checkpoint_seconds", unit="s")
        t_begin = self.sim.now
        with self.sim.tracer.span("blcr.checkpoint", proc=proc.name,
                                  node=self.node_name,
                                  incremental=incremental) as sp:
            yield self.sim.timeout(self.params.checkpoint_proc_overhead)
            segments = [seg for seg in proc.segments
                        if not incremental or seg.dirty]
            image = CheckpointImage(
                proc.name, proc.node,
                [(seg.name, seg.nbytes) for seg in segments],
                copy.deepcopy(proc.app_state), payload=None)
            pages = None
            if any(seg.data is not None for seg in proc.segments):
                pages = _frozen_pages(segments, chunk_bytes)
            proc.mark_clean()
            scan_limit = Link(f"blcr.{self.node_name}.{proc.name}.scan",
                              self.params.image_scan_bandwidth)
            offset = 0
            while offset < image.nbytes:
                n = min(chunk_bytes, image.nbytes - offset)
                yield self.net.transfer([scan_limit, self.membus], n,
                                        label=f"blcr-scan:{proc.name}")
                m_scanned.inc(n)
                data = None if pages is None else next(pages)
                yield from sink.write(image, offset, n, data)
                offset += n
            yield from sink.finalize(image)
            sp.annotate(nbytes=image.nbytes)
        h_ckpt.observe(self.sim.now - t_begin)
        return image
