"""Checkpoint image representation.

A :class:`CheckpointImage` is the snapshot BLCR produces for one process:
the segment layout, a deep-copied bag of application state (BLCR's register
file / header stand-in — its real size is folded into ``resident_base``),
and — when the simulation records bytes and the image holds them — the
concatenated segment contents as one contiguous payload buffer.  The
*logical* stream length always equals the sum of segment sizes, so byte
accounting (Table I) is exact whether or not real bytes are carried.

The checkpoint engine never builds a payload: it streams views of the
frozen process's pages, and each sink that keeps bytes holds the only
copy.  A payload-bearing image comes from :meth:`snapshot` (one copy, for
callers that want a detached capture), from a reassembling sink, or from
a restart read.
"""

from __future__ import annotations

import copy
import zlib
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..cluster.osproc import MemorySegment, OSProcess, anon_pages

__all__ = ["CheckpointImage"]

#: A contiguous byte buffer: ``bytes`` from a snapshot, or the
#: ``bytearray`` a reassembly or restart filled.
Payload = Union[bytes, bytearray]


class CheckpointImage:
    """One process snapshot, self-contained enough to restart from."""

    __slots__ = ("proc_name", "origin_node", "layout", "app_state",
                 "nbytes", "payload")

    def __init__(self, proc_name: str, origin_node: str,
                 layout: List[Tuple[str, int]], app_state: Dict[str, Any],
                 payload: Optional[Payload]):
        self.proc_name = proc_name
        self.origin_node = origin_node
        self.layout = list(layout)
        self.app_state = app_state
        self.nbytes = sum(n for _, n in layout)
        if payload is not None and len(payload) != self.nbytes:
            raise ValueError(
                f"payload has {len(payload)} bytes, layout says {self.nbytes}")
        self.payload = payload

    @classmethod
    def snapshot(cls, proc: OSProcess,
                 dirty_only: bool = False) -> "CheckpointImage":
        """Freeze ``proc`` at this instant (copy semantics: later mutation
        of the live process must not leak into the image).

        The payload is built with a single copy of the captured segments.
        With ``dirty_only=True`` this captures a *delta*: only segments
        whose dirty bit is set (incremental checkpointing).  Restoring a
        delta requires folding it over a base image with :meth:`merge`.
        """
        segments = [seg for seg in proc.segments
                    if not dirty_only or seg.dirty]
        layout = [(seg.name, seg.nbytes) for seg in segments]
        payload: Optional[bytes] = None
        if any(seg.data is not None for seg in proc.segments):
            payload = b"".join(
                memoryview(seg.data) if seg.data is not None
                else bytes(seg.nbytes)
                for seg in segments)
        return cls(proc.name, proc.node, layout,
                   copy.deepcopy(proc.app_state), payload)

    @classmethod
    def merge(cls, base: "CheckpointImage",
              delta: "CheckpointImage") -> "CheckpointImage":
        """Fold an incremental delta over a base image.

        Segments present in the delta replace the base's (by name, which is
        unique per process in this model); the delta's app_state — captured
        later — wins.  The merged payload is assembled in one preallocated
        buffer.
        """
        if base.proc_name != delta.proc_name:
            raise ValueError(
                f"merge across processes: {base.proc_name} vs {delta.proc_name}")
        delta_segs = {}
        offset = 0
        for name, nbytes in delta.layout:
            delta_segs[name] = (offset, nbytes)
            offset += nbytes
        layout: List[Tuple[str, int]] = []
        #: (source image, stream offset, length) of each merged segment.
        sources: List[Tuple["CheckpointImage", int, int]] = []
        offset = 0
        for name, nbytes in base.layout:
            if name in delta_segs:
                d_offset, d_nbytes = delta_segs.pop(name)
                layout.append((name, d_nbytes))
                sources.append((delta, d_offset, d_nbytes))
            else:
                layout.append((name, nbytes))
                sources.append((base, offset, nbytes))
            offset += nbytes
        if delta_segs:
            raise ValueError(
                f"delta has segments unknown to the base: {sorted(delta_segs)}")
        payload: Optional[bytearray] = None
        if base.payload is not None:
            # A delta without bytes contributes zero pages.
            payload = bytearray(sum(n for _, n in layout))
            pos = 0
            for src, src_offset, nbytes in sources:
                if src.payload is not None:
                    payload[pos:pos + nbytes] = \
                        memoryview(src.payload)[src_offset:src_offset + nbytes]
                pos += nbytes
        return cls(base.proc_name, delta.origin_node, layout,
                   copy.deepcopy(delta.app_state), payload)

    def materialize(self, node: str) -> OSProcess:
        """Rebuild a live process on ``node`` from this image.

        Copy semantics: the process gets its own address space — one
        :func:`~repro.cluster.osproc.anon_pages` buffer copied from the
        payload — so the image stays intact.
        """
        if self.payload is None:
            return self.rebuild(node, None)
        buffer = anon_pages(self.nbytes)
        buffer[:] = np.frombuffer(self.payload, dtype=np.uint8)
        return self.rebuild(node, buffer)

    def rebuild(self, node: str,
                buffer: Optional[Union[bytearray, np.ndarray]]) -> OSProcess:
        """Rebuild a live process on ``node`` around ``buffer``, a fresh
        writable buffer (a ``bytearray`` or a ``uint8`` array) holding
        this image's stream (``None`` in sized-only mode).

        The process takes the buffer over: its segments are views of it,
        so nothing is copied.  The caller must not keep using ``buffer``.
        """
        if buffer is not None and len(buffer) != self.nbytes:
            raise ValueError(
                f"buffer has {len(buffer)} bytes, layout says {self.nbytes}")
        pages = None if buffer is None else np.frombuffer(buffer,
                                                          dtype=np.uint8)
        segments: List[MemorySegment] = []
        offset = 0
        for name, nbytes in self.layout:
            data = None if pages is None else pages[offset:offset + nbytes]
            segments.append(MemorySegment(name, nbytes, data))
            offset += nbytes
        return OSProcess(self.proc_name, node, segments,
                         copy.deepcopy(self.app_state))

    def slice(self, offset: int, nbytes: int) -> Optional[np.ndarray]:
        """Zero-copy view of a window of the logical stream (None in
        sized-only mode)."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise ValueError(
                f"slice [{offset}, {offset + nbytes}) outside image of "
                f"{self.nbytes} bytes")
        if self.payload is None:
            return None
        return np.frombuffer(self.payload,
                             dtype=np.uint8)[offset:offset + nbytes]

    def checksum(self) -> Optional[int]:
        """CRC-32 of the payload (None in sized-only mode).

        Order-sensitive and constant-memory: it reads the payload in place.
        """
        if self.payload is None:
            return None
        return zlib.crc32(memoryview(self.payload))

    def __repr__(self) -> str:
        mode = "bytes" if self.payload is not None else "sized"
        return f"<CheckpointImage {self.proc_name} {self.nbytes}B {mode}>"
