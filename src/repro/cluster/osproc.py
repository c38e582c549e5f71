"""Operating-system process model.

An :class:`OSProcess` is the unit BLCR checkpoints: an address space made of
:class:`MemorySegment`\\ s plus a small bag of application-visible state
(registers/heap contents stand-in) that must survive a migrate/restart cycle
byte-for-byte.  Segments can carry real bytes (fidelity tests) or be
size-only (large benchmark runs).

Synthetic bytes are drawn on demand: a ``record_data`` process holds a
pending draw until the first read of any of its segments' ``data``, which
draws all of them, in segment order, from the process's generator.  The
bytes are the same whichever segment is read first, and a process killed
before any read never draws.  A migration therefore builds only the bytes
of the ranks it moves.
"""

from __future__ import annotations

import mmap
import weakref
from typing import Any, Callable, Dict, List, Optional

import numpy as np

__all__ = ["MemorySegment", "OSProcess", "anon_pages"]

#: Bytes drawn per generator call when filling a segment.  A multiple of
#: 4: a ``uint8`` draw hands out the bytes of successive 32-bit outputs,
#: so draws of whole 32-bit words, then the rest, give the bytes (and
#: leave the generator in the state) of one draw of the lot.
_DRAW_STEP = 1 << 20


def anon_pages(nbytes: int) -> np.ndarray:
    """A zero-filled, writable ``uint8`` array of ``nbytes`` on its own
    private anonymous mapping.

    An address space's bytes live here rather than on the allocator's
    heap: the pages fault in as they are first written and go back to
    the OS when the array and its last view are dropped.  Heap buffers of
    this size stay resident after they are freed, wherever the allocator
    placed them, so a later run's peak would depend on that placement.
    Every caller fills the whole array, so the mapping asks for huge
    pages where the OS offers them, as numpy does for its large arrays:
    one fault per 2 MiB instead of one per 4 KiB page.
    """
    if nbytes == 0:
        return np.zeros(0, dtype=np.uint8)
    pages = mmap.mmap(-1, nbytes, mmap.MAP_PRIVATE)
    try:
        pages.madvise(mmap.MADV_HUGEPAGE)
    except (AttributeError, OSError):  # no transparent huge pages here
        pass
    return np.frombuffer(pages, dtype=np.uint8)


class MemorySegment:
    """One mapped region: [text | data | heap | stack | anon].

    ``dirty`` models page-level write tracking at segment granularity: a
    fresh segment is dirty (never captured); incremental checkpoints stream
    only dirty segments and clear the flag.

    ``data`` is the segment's bytes, or ``None`` for a size-only segment.
    Reading it runs the owning process's pending draw, if any; assigning it
    cancels this segment's share of that draw.
    """

    __slots__ = ("name", "nbytes", "_data", "_draw", "dirty", "__weakref__")

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
        self._data = data
        self._draw: Optional[Callable[[], None]] = None
        self.dirty = dirty

    @property
    def data(self) -> Optional[np.ndarray]:
        if self._draw is not None:
            self._draw()
        return self._data

    @data.setter
    def data(self, value: Optional[np.ndarray]) -> None:
        self._draw = None
        self._data = value

    def clone(self) -> "MemorySegment":
        return MemorySegment(self.name, self.nbytes,
                             None if self.data is None else self.data.copy(),
                             dirty=self.dirty)

    def __repr__(self) -> str:
        backing = ("bytes" if self._data is not None
                   else "pending" if self._draw is not None else "sized")
        mark = " dirty" if self.dirty else ""
        return f"<Segment {self.name} {self.nbytes}B {backing}{mark}>"


class OSProcess:
    """A process image as seen by the checkpoint layer."""

    def __init__(self, name: str, node: str,
                 segments: Optional[List[MemorySegment]] = None,
                 app_state: Optional[Dict[str, Any]] = None):
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
        its segment bytes are released, or never drawn (the layout stays
        for accounting).
        """
        self.alive = False
        for seg in self.segments:
            seg.data = None

    @classmethod
    def synthetic(cls, name: str, node: str, image_bytes: int,
                  record_data: bool = False,
                  rng: Optional[np.random.Generator] = None) -> "OSProcess":
        """Build a process with a realistic segment layout totalling
        ``image_bytes`` (text/data/stack fixed-ish, heap takes the rest).

        With ``record_data`` the non-empty segments carry uniform random
        bytes from ``rng``, which is then required.  They are drawn on the
        first read of any segment's ``data``, all at once and in segment
        order, so they equal a draw made here; each segment's bytes live
        in :func:`anon_pages`.
        """
        if record_data and rng is None:
            raise ValueError(f"{name}: record_data needs an rng to draw "
                             f"its segment bytes from")
        image_bytes = int(image_bytes)
        text = min(4 << 20, image_bytes // 10)
        stack = min(1 << 20, image_bytes // 20)
        data_seg = min(8 << 20, image_bytes // 8)
        heap = max(0, image_bytes - text - stack - data_seg)
        proc = cls(name, node)
        for seg_name, nbytes in (("text", text), ("data", data_seg),
                                 ("heap", heap), ("stack", stack)):
            proc.add_segment(seg_name, nbytes)
        if record_data:
            # Each segment holds ``draw``; ``draw`` reaches the segments
            # only weakly, so an unread process is freed by reference
            # counting, not left as a cycle.
            pending = [(weakref.ref(seg), seg.nbytes)
                       for seg in proc.segments if seg.nbytes]

            def draw() -> None:
                for ref, nbytes in pending:
                    payload = anon_pages(nbytes)
                    for lo in range(0, nbytes, _DRAW_STEP):
                        hi = min(lo + _DRAW_STEP, nbytes)
                        payload[lo:hi] = rng.integers(0, 256, size=hi - lo,
                                                      dtype=np.uint8)
                    # A dropped segment, or one assigned a value, keeps
                    # none of these bytes; they are still drawn so later
                    # segments see the stream in order.
                    seg = ref()
                    if seg is not None and seg._draw is not None:
                        seg.data = payload

            for seg in proc.segments:
                if seg.nbytes:
                    seg._draw = draw
        return proc

    def __repr__(self) -> str:
        return f"<OSProcess {self.name} on {self.node}>"
