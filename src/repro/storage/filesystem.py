"""Local (ext3-style) filesystem on top of :class:`~repro.storage.disk.Disk`.

Two write paths mirror the two strategies in the paper:

* ``write(..., through_cache=True)`` — buffered write absorbed by the page
  cache (used by the migration target for temporary chunk files; no fsync,
  so Phase 2 runs at RDMA rate, not disk rate);
* ``fsync`` — flush dirty data and commit the journal (used by the
  Checkpoint/Restart strategy, whose images must be durable).

Files optionally record real bytes (``record_data=True``) so the test suite
can assert byte-exact checkpoint reassembly; benchmark configurations leave
it off and only track sizes.
"""

from __future__ import annotations

import mmap
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..params import DiskParams
from ..simulate.core import Simulator
from .buffer_cache import BufferCache
from .disk import Disk

__all__ = ["LocalFS", "SimFile", "FileHandle", "FileNotFoundInFS", "FileExists",
           "Places"]


class FileNotFoundInFS(Exception):
    """open()/read() on a path that does not exist."""


class FileExists(Exception):
    """create() on a path that already exists."""


#: Allocation unit of recorded file contents.  A file holds whole blocks,
#: so it over-allocates by under one block, where one growing buffer
#: over-allocates by up to an eighth of its size.  Blocks are private
#: anonymous page mappings: they never fragment the heap, a block's pages
#: fault in as they are first touched, and a deleted file's blocks go
#: straight back to the OS.
_BLOCK = 1 << 20

#: Where a read copies to: ``(start, length, dest)`` says that file bytes
#: ``[start, start + length)`` belong in the writable buffer ``dest``.
Places = Sequence[Tuple[int, int, memoryview]]

#: What a hole copies out: a read sees zeros where no write landed.
_ZEROS = memoryview(bytes(_BLOCK))


class SimFile:
    """Metadata (and optionally contents) of one simulated file.

    Recorded contents live in fixed-size blocks, allocated on first write
    (a hole reads as zeros).  A write copies the caller's buffer into the
    blocks once; a read copies the blocks once, into buffers the caller
    names (:meth:`read_into`) or into one fresh array (:meth:`read_at`).
    """

    __slots__ = ("path", "size", "_blocks")

    def __init__(self, path: str, record_data: bool):
        self.path = path
        self.size = 0
        self._blocks: Optional[List[Optional[mmap.mmap]]] = \
            [] if record_data else None

    @property
    def allocated(self) -> int:
        """Bytes of storage the recorded contents hold (0 when sized-only)."""
        if self._blocks is None:
            return 0
        return _BLOCK * sum(block is not None for block in self._blocks)

    @property
    def data(self) -> Optional[bytes]:
        """A copy of the whole recorded contents (None in sized-only mode)."""
        if self._blocks is None:
            return None
        return self.read_at(0, self.size).tobytes()

    def write_at(self, offset: int, nbytes: int,
                 payload: Optional[np.ndarray]) -> None:
        end = offset + nbytes
        self.size = max(self.size, end)
        blocks = self._blocks
        if blocks is None or payload is None:
            return
        src = memoryview(payload)
        pos = offset
        while pos < end:
            index, at = divmod(pos, _BLOCK)
            n = min(_BLOCK - at, end - pos)
            if index >= len(blocks):
                blocks.extend([None] * (index + 1 - len(blocks)))
            block = blocks[index]
            if block is None:
                block = blocks[index] = mmap.mmap(-1, _BLOCK, mmap.MAP_PRIVATE)
            block[at:at + n] = src[pos - offset:pos - offset + n]
            pos += n

    def read_into(self, offset: int, nbytes: int, places: Places) -> None:
        """Copy the window ``[offset, offset + nbytes)`` straight from the
        blocks into ``places``: the part of each place inside the window
        is copied to its ``dest``.  A hole copies zeros.  Sized-only
        files copy nothing."""
        blocks = self._blocks
        if blocks is None:
            return
        for start, length, dest in places:
            pos = max(offset, start)
            end = min(offset + nbytes, start + length)
            while pos < end:
                index, at = divmod(pos, _BLOCK)
                n = min(_BLOCK - at, end - pos)
                block = blocks[index] if index < len(blocks) else None
                dest[pos - start:pos - start + n] = \
                    _ZEROS[:n] if block is None else \
                    memoryview(block)[at:at + n]
                pos += n

    def read_at(self, offset: int, nbytes: int) -> Optional[np.ndarray]:
        """The window ``[offset, offset + nbytes)`` as one fresh array
        (None in sized-only mode)."""
        if self._blocks is None:
            return None
        out = np.empty(nbytes, dtype=np.uint8)
        self.read_into(offset, nbytes, [(offset, nbytes, memoryview(out))])
        return out


class FileHandle:
    """An open file; tracks a position for sequential I/O."""

    __slots__ = ("fs", "file", "pos", "closed")

    def __init__(self, fs: object, file: SimFile):
        self.fs = fs
        self.file = file
        self.pos = 0
        self.closed = False

    def _check(self) -> None:
        if self.closed:
            raise ValueError(f"I/O on closed handle for {self.file.path!r}")

    def __repr__(self) -> str:
        return f"<FileHandle {self.file.path} pos={self.pos}>"


class LocalFS:
    """One node's local filesystem."""

    def __init__(self, sim: Simulator, disk: Disk,
                 cache: Optional[BufferCache] = None,
                 params: Optional[DiskParams] = None,
                 record_data: bool = False):
        self.sim = sim
        self.disk = disk
        self.cache = cache if cache is not None else BufferCache(sim, disk)
        self.params = params or disk.params
        self.record_data = record_data
        self.files: Dict[str, SimFile] = {}

    # -- namespace ----------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self.files

    def size(self, path: str) -> int:
        return self._lookup(path).size

    def unlink(self, path: str) -> None:
        self._lookup(path)
        del self.files[path]

    def listdir(self, prefix: str = "") -> list:
        return sorted(p for p in self.files if p.startswith(prefix))

    def _lookup(self, path: str) -> SimFile:
        try:
            return self.files[path]
        except KeyError:
            raise FileNotFoundInFS(f"{path!r} on {self.disk.node}") from None

    # -- open/create -------------------------------------------------------
    def create(self, path: str) -> Generator:
        """Generator: create a new file; returns a FileHandle.

        Creation is atomic: the name is reserved *before* the metadata cost
        is charged, so two concurrent creators cannot both succeed (the
        second raises FileExists immediately, as a real VFS would).
        """
        if path in self.files:
            raise FileExists(path)
        f = SimFile(path, self.record_data)
        self.files[path] = f
        yield self.sim.timeout(self.params.open_cost)
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "fs.create", node=self.disk.node,
                         path=path)
        return FileHandle(self, f)

    def open(self, path: str) -> Generator:
        """Generator: open an existing file; returns a FileHandle."""
        f = self._lookup(path)
        yield self.sim.timeout(self.params.open_cost)
        return FileHandle(self, f)

    # -- data ----------------------------------------------------------------
    def write(self, handle: FileHandle, nbytes: int,
              data: Optional[np.ndarray] = None,
              through_cache: bool = True,
              offset: Optional[int] = None) -> Generator:
        """Generator: write at the handle position (or an explicit
        ``offset``, which leaves the position untouched — used for
        out-of-order chunk reassembly at the migration target)."""
        handle._check()
        if data is not None and data.nbytes != nbytes:
            raise ValueError(f"data has {data.nbytes} bytes, expected {nbytes}")
        if through_cache:
            yield from self.cache.write(nbytes, label=f"fs:{handle.file.path}")
        else:
            yield self.disk.write_stream(nbytes, label=f"fs:{handle.file.path}")
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "fs.write", node=self.disk.node,
                         path=handle.file.path, nbytes=nbytes,
                         cached=through_cache)
        if offset is None:
            handle.file.write_at(handle.pos, nbytes, data)
            handle.pos += nbytes
        else:
            handle.file.write_at(offset, nbytes, data)

    def read(self, handle: FileHandle, nbytes: Optional[int] = None,
             offset: Optional[int] = None,
             into: Optional[Places] = None) -> Generator:
        """Generator: cold read of ``nbytes`` at the handle position (or
        an explicit ``offset``, which leaves the position untouched).

        With ``into``, a list of ``(start, length, dest)`` places (see
        :meth:`SimFile.read_into`), the bytes are copied straight into
        them and the read returns None; otherwise it returns the window
        as a fresh ``uint8`` array, or None when the FS records no data.
        """
        handle._check()
        pos = handle.pos if offset is None else offset
        n = handle.file.size - pos if nbytes is None else nbytes
        if pos + n > handle.file.size:
            raise ValueError(
                f"read past EOF: [{pos}, {pos + n}) of {handle.file.size}")
        yield self.disk.read_stream(n, label=f"fs:{handle.file.path}")
        if offset is None:
            handle.pos += n
        if into is None:
            return handle.file.read_at(pos, n)
        handle.file.read_into(pos, n, into)
        return None

    def fsync(self, handle: FileHandle) -> Generator:
        """Generator: flush dirty pages and commit the journal."""
        handle._check()
        yield from self.cache.flush()
        yield from self.disk.sync()

    def close(self, handle: FileHandle, sync: bool = False) -> Generator:
        if sync:
            yield from self.fsync(handle)
        else:
            yield self.sim.timeout(0)
        handle.closed = True
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "fs.close", node=self.disk.node,
                         path=handle.file.path, nbytes=handle.file.size,
                         synced=sync)
