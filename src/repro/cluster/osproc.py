"""Operating-system process model.

An :class:`OSProcess` is the unit BLCR checkpoints: an address space made of
:class:`MemorySegment`\\ s plus a small bag of application-visible state
(registers/heap contents stand-in) that must survive a migrate/restart cycle
byte-for-byte.  Segments can carry real bytes (fidelity tests) or be
size-only (large benchmark runs).
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = ["MemorySegment", "OSProcess"]

_pids = count(start=1000)


class MemorySegment:
    """One mapped region: [text | data | heap | stack | anon].

    ``dirty`` models page-level write tracking at segment granularity: a
    fresh segment is dirty (never captured); incremental checkpoints stream
    only dirty segments and clear the flag.
    """

    __slots__ = ("name", "nbytes", "data", "dirty")

    def __init__(self, name: str, nbytes: int, data: Optional[np.ndarray] = None,
                 dirty: bool = True):
        if nbytes < 0:
            raise ValueError("segment size must be non-negative")
        if data is not None:
            if data.dtype != np.uint8:
                raise TypeError("segment data must be uint8")
            if data.nbytes != nbytes:
                raise ValueError(f"data has {data.nbytes} bytes, expected {nbytes}")
        self.name = name
        self.nbytes = int(nbytes)
        self.data = data
        self.dirty = dirty

    def clone(self) -> "MemorySegment":
        return MemorySegment(self.name, self.nbytes,
                             None if self.data is None else self.data.copy(),
                             dirty=self.dirty)

    def __repr__(self) -> str:
        backing = "bytes" if self.data is not None else "sized"
        mark = " dirty" if self.dirty else ""
        return f"<Segment {self.name} {self.nbytes}B {backing}{mark}>"


class OSProcess:
    """A process image as seen by the checkpoint layer."""

    def __init__(self, name: str, node: str,
                 segments: Optional[List[MemorySegment]] = None,
                 app_state: Optional[Dict[str, Any]] = None):
        self.pid = next(_pids)
        self.name = name
        self.node = node
        self.segments: List[MemorySegment] = segments or []
        #: Application-visible state that a checkpoint/restart cycle must
        #: preserve exactly (the MPI rank stores its iteration counter and
        #: data checksums here).
        self.app_state: Dict[str, Any] = app_state or {}
        self.alive = True

    @property
    def image_bytes(self) -> int:
        return sum(seg.nbytes for seg in self.segments)

    @property
    def dirty_bytes(self) -> int:
        return sum(seg.nbytes for seg in self.segments if seg.dirty)

    def add_segment(self, name: str, nbytes: int,
                    data: Optional[np.ndarray] = None) -> MemorySegment:
        seg = MemorySegment(name, nbytes, data)
        self.segments.append(seg)
        return seg

    def mark_clean(self) -> None:
        """Clear all write-tracking bits (done by a checkpoint capture)."""
        for seg in self.segments:
            seg.dirty = False

    def touch(self, names: Optional[list] = None) -> None:
        """Mark segments dirty — what the running application does.

        ``names=None`` dirties everything; otherwise only the named
        segments (e.g. ``["heap", "stack"]`` for a solver that never
        rewrites text/data).
        """
        for seg in self.segments:
            if names is None or seg.name in names:
                seg.dirty = True

    def kill(self) -> None:
        """Terminate the process.  A dead process has no address space:
        its segment bytes are released (the layout stays for accounting).
        """
        self.alive = False
        for seg in self.segments:
            seg.data = None

    @classmethod
    def synthetic(cls, name: str, node: str, image_bytes: int,
                  record_data: bool = False,
                  rng: Optional[np.random.Generator] = None) -> "OSProcess":
        """Build a process with a realistic segment layout totalling
        ``image_bytes`` (text/data/stack fixed-ish, heap takes the rest)."""
        image_bytes = int(image_bytes)
        text = min(4 << 20, image_bytes // 10)
        stack = min(1 << 20, image_bytes // 20)
        data_seg = min(8 << 20, image_bytes // 8)
        heap = max(0, image_bytes - text - stack - data_seg)
        proc = cls(name, node)
        for seg_name, nbytes in (("text", text), ("data", data_seg),
                                 ("heap", heap), ("stack", stack)):
            payload = None
            if record_data and nbytes:
                gen = rng or np.random.default_rng(proc.pid)
                payload = gen.integers(0, 256, size=nbytes, dtype=np.uint8)
            proc.add_segment(seg_name, nbytes, payload)
        return proc

    def __repr__(self) -> str:
        return f"<OSProcess {self.name} pid={self.pid} on {self.node}>"
