"""Pluggable reassembly sinks: where pulled checkpoint bytes land.

A transport session (RDMA buffer pool or a socket/staging baseline) moves
chunks from the source to the target; the *reassembly sink* decides what
the target does with them.  Two implementations:

* :class:`FileReassemblySink` — the paper's Phase 2/3 barrier: chunks are
  concatenated into a per-process temporary checkpoint file that Phase 3
  cold-reads back (``RestartEngine.restart_from_file``);
* :class:`MemoryReassemblySink` — the Sec. VI future-work extension: the
  chunks stay resident and are sealed into a :class:`CheckpointImage`
  the instant the last one lands, so the restart stage can begin for one
  process while others are still checkpointing (pipelined restart).

Both expose the same generator protocol (``write`` / ``finish``) so a
session never knows which one it is feeding.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Protocol

from ..simulate.core import Event, Simulator
from ..blcr.image import CheckpointImage

__all__ = ["ReassemblySink", "FileReassemblySink", "MemoryReassemblySink",
           "ReassemblyError"]


class ReassemblyError(RuntimeError):
    """A process finished reassembly with bytes missing or inconsistent."""


class ReassemblySink(Protocol):
    """Target-side stage interface every sink implements.

    A sink is built as ``cls(sim, target)``, ``target`` being the node the
    images are reassembled on.
    """

    #: Restart mode (``"file"`` or ``"memory"``): this sink's key in
    #: :data:`repro.pipeline.pipeline.SINKS`.
    kind: str
    #: Reassembled image (header-only in sized mode) per finished process.
    images: Dict[str, Optional[CheckpointImage]]
    #: Temp-file path per finished process (file sink only; empty for
    #: memory, where there is no file to point at).
    paths: Dict[str, str]

    def write(self, proc_name: str, offset: int, nbytes: int,
              data) -> Generator:
        """Generator: land one chunk of ``proc_name`` at ``offset``."""
        ...

    def finish(self, proc_name: str, meta: Optional[CheckpointImage],
               total: int) -> Generator:
        """Generator: all ``total`` bytes have been written; seal the
        process's image."""
        ...


class FileReassemblySink:
    """Chunks concatenate into ``/tmp/migrate/{proc}.ckpt`` on the target
    filesystem (through the page cache — no fsync), exactly the paper's
    implementation."""

    kind = "file"
    #: Directory of the temporary checkpoint files on the target.
    tmp_dir = "/tmp/migrate"

    def __init__(self, sim: Simulator, target):
        self.sim = sim
        self.fs = target.fs
        self.images: Dict[str, Optional[CheckpointImage]] = {}
        self.paths: Dict[str, str] = {}
        self._handles: Dict[str, object] = {}

    def path_for(self, proc_name: str) -> str:
        return f"{self.tmp_dir}/{proc_name}.ckpt"

    def _get_or_create(self, proc_name: str) -> Generator:
        """Race-free get-or-create of the proc's file handle.

        Concurrent chunk writes for one process race to create its file;
        the first caller parks an Event in the table so the others wait
        for the same handle instead of double-creating.
        """
        entry = self._handles.get(proc_name)
        if isinstance(entry, Event):
            yield entry
            entry = self._handles[proc_name]
        if entry is not None:
            return entry
        gate = Event(self.sim, name=f"create.{proc_name}")
        self._handles[proc_name] = gate
        handle = yield from self.fs.create(self.path_for(proc_name))
        self._handles[proc_name] = handle
        gate.succeed()
        return handle

    def write(self, proc_name: str, offset: int, nbytes: int,
              data) -> Generator:
        handle = yield from self._get_or_create(proc_name)
        yield from self.fs.write(handle, nbytes, data=data,
                                 through_cache=True, offset=offset)

    def finish(self, proc_name: str, meta: Optional[CheckpointImage],
               total: int) -> Generator:
        handle = yield from self._get_or_create(proc_name)
        yield from self.fs.close(handle)
        self.paths[proc_name] = self.path_for(proc_name)
        self.images[proc_name] = meta


class MemoryReassemblySink:
    """Chunks stay resident; ``finish`` seals them into a payload-bearing
    :class:`CheckpointImage` (or just validates byte counts in sized-only
    mode).  No file ever exists, so the restart stage pays memcpy
    bandwidth instead of a cold disk read.

    Each chunk is copied once, at its stream offset, into one per-process
    buffer, which becomes the image's payload as is."""

    kind = "memory"

    def __init__(self, sim: Simulator, target):
        self.sim = sim
        self.node = target.name
        self.images: Dict[str, Optional[CheckpointImage]] = {}
        #: Present for interface parity; a memory sink never has paths.
        self.paths: Dict[str, str] = {}
        self._buffers: Dict[str, bytearray] = {}
        self._received: Dict[str, int] = {}

    def write(self, proc_name: str, offset: int, nbytes: int,
              data) -> Generator:
        if data is not None:
            buf = self._buffers.setdefault(proc_name, bytearray())
            if len(buf) < offset:  # out-of-order arrival: pad the gap
                buf.extend(bytes(offset - len(buf)))
            buf[offset:offset + nbytes] = memoryview(data)
        self._received[proc_name] = self._received.get(proc_name, 0) + nbytes
        yield self.sim.timeout(0)

    def finish(self, proc_name: str, meta: Optional[CheckpointImage],
               total: int) -> Generator:
        got = self._received.pop(proc_name, 0)
        buf = self._buffers.pop(proc_name, None)
        if got != total:
            raise ReassemblyError(
                f"memory reassembly of {proc_name!r} on {self.node} "
                f"incomplete: received {got} of {total} bytes")
        image = meta
        if meta is not None and buf is not None:
            image = CheckpointImage(meta.proc_name, meta.origin_node,
                                    meta.layout, meta.app_state, buf)
        self.images[proc_name] = image
        yield self.sim.timeout(0)
