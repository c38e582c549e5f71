"""BLCR restart engines: file-based (the paper's Phase 3) and memory-based
(the paper's future-work extension, implemented here).

File-based restart is what dominates the migration cost in Figures 4 and 6:
the target node rebuilds each process by cold-reading its reassembled
checkpoint file.  Memory-based restart skips the filesystem entirely and
restores straight from the buffer pool at memcpy speed — the ablation bench
``bench_ablation_restart`` quantifies exactly how much of Phase 3 that
recovers.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Generator, Optional

from ..cluster.osproc import anon_pages
from ..params import BLCRParams
from ..simulate.core import Simulator
from ..storage.filesystem import Places
from .image import CheckpointImage

__all__ = ["RestartEngine", "RestartError"]


class RestartError(Exception):
    """Image missing, truncated or corrupt at restart time."""


class RestartEngine:
    """Restarts processes on one node."""

    def __init__(self, sim: Simulator, node_name: str,
                 params: Optional[BLCRParams] = None):
        self.sim = sim
        self.node_name = node_name
        self.params = params or BLCRParams()

    # Each byte counter is resolved once, on the engine's first restart
    # of its mode: resolving both here would add a zero-valued instrument
    # of the unused mode to every run's metrics.
    @cached_property
    def _m_bytes_read(self):
        return self.sim.metrics.counter("blcr.restart.bytes_read",
                                        unit="bytes")

    @cached_property
    def _m_bytes_memory(self):
        return self.sim.metrics.counter("blcr.restart.bytes_memory",
                                        unit="bytes")

    def _read_image(self, fs, path: str, metadata: CheckpointImage,
                    client: Optional[str], chunk_bytes: int,
                    places: Places) -> Generator:
        """Generator: cold-read one checkpoint file, window by window,
        each read copying its bytes straight into the ``(file offset,
        length, destination)`` windows of ``places``."""
        if not fs.exists(path):
            raise RestartError(f"checkpoint file {path!r} missing on "
                               f"{self.node_name}")
        if client is not None:
            handle = yield from fs.open(path, client)
        else:
            handle = yield from fs.open(path)
        size = handle.file.size
        if size != metadata.nbytes:
            raise RestartError(
                f"{path!r} truncated: {size} bytes, header says "
                f"{metadata.nbytes}")
        offset = 0
        while offset < size:
            n = min(chunk_bytes, size - offset)
            yield from fs.read(handle, nbytes=n, into=places)
            offset += n
        yield from fs.close(handle)

    def _restore(self, fs, chain, client: Optional[str],
                 chunk_bytes: int) -> Generator:
        """Generator: rebuild the process a chain of ``(path, metadata)``
        links folds to (a full image, then deltas); returns it.

        The headers are folded first, so the restored address space is
        one fresh :func:`~repro.cluster.osproc.anon_pages` buffer; every
        file is read in full (and paid for), and each segment's bytes are
        copied from the last link that holds it straight to their place
        in that buffer.
        """
        folded = chain[0][1]
        for _, meta in chain[1:]:
            folded = CheckpointImage.merge(folded, meta)
        buf = anon_pages(folded.nbytes) if fs.record_data else None
        final: Dict[str, int] = {}
        offset = 0
        for name, nbytes in folded.layout:
            final[name] = offset
            offset += nbytes
        owner = {name: i for i, (_, meta) in enumerate(chain)
                 for name, _ in meta.layout}
        for i, (path, meta) in enumerate(chain):
            places = []
            if buf is not None:
                view = memoryview(buf)
                offset = 0
                for name, nbytes in meta.layout:
                    if owner[name] == i:
                        at = final[name]
                        places.append((offset, nbytes,
                                       view[at:at + nbytes]))
                    offset += nbytes
            yield from self._read_image(fs, path, meta, client, chunk_bytes,
                                        places)
        if buf is None:  # sized-only filesystem: the header is the image
            return folded.materialize(self.node_name)
        return folded.rebuild(self.node_name, buf)

    def restart_from_file(self, fs, path: str,
                          metadata: Optional[CheckpointImage] = None,
                          client: Optional[str] = None,
                          chunk_bytes: int = 4 << 20) -> Generator:
        """Generator: rebuild a process from a checkpoint file.

        ``metadata`` supplies the image header (layout and app state);
        with recorded bytes the file is read into one buffer, which
        becomes the restarted process's address space.
        Returns the restarted :class:`OSProcess`.
        """
        if metadata is None:
            raise RestartError(f"no image header available for {path!r}")
        with self.sim.tracer.span("blcr.restart", mode="file",
                                  proc=metadata.proc_name,
                                  node=self.node_name) as sp:
            yield self.sim.timeout(self.params.restart_proc_overhead)
            proc = yield from self._restore(fs, [(path, metadata)], client,
                                            chunk_bytes)
            sp.annotate(nbytes=metadata.nbytes)
            self._m_bytes_read.inc(metadata.nbytes)
        return proc

    def restart_from_chain(self, fs, chain, client: Optional[str] = None,
                           chunk_bytes: int = 4 << 20) -> Generator:
        """Generator: rebuild from an incremental chain — a full image
        followed by deltas, each ``(path, metadata)`` — folding in order.

        Every file in the chain is read (and paid for); this is the cost
        trade incremental checkpointing makes at restart time.
        """
        if not chain:
            raise RestartError("empty checkpoint chain")
        with self.sim.tracer.span("blcr.restart", mode="chain",
                                  proc=chain[0][1].proc_name,
                                  node=self.node_name) as sp:
            yield self.sim.timeout(self.params.restart_proc_overhead)
            proc = yield from self._restore(fs, chain, client, chunk_bytes)
            sp.annotate(links=len(chain), nbytes=proc.image_bytes)
            self._m_bytes_read.inc(sum(meta.nbytes for _, meta in chain))
        return proc

    def restart_from_memory(self, image: CheckpointImage) -> Generator:
        """Generator: restore directly from a resident image (future work
        Sec. VI): address-space rebuild at memcpy speed, no file I/O.

        The same truncation check file restart performs against the file
        size runs here against the resident payload — a short image means
        reassembly lost bytes, and restarting from it would fork a
        corrupt address space.
        """
        if image is None:
            raise RestartError(
                f"no resident image to restart from on {self.node_name}")
        with self.sim.tracer.span("blcr.restart", mode="memory",
                                  proc=image.proc_name,
                                  node=self.node_name) as sp:
            if image.payload is not None \
                    and len(image.payload) != image.nbytes:
                raise RestartError(
                    f"resident image of {image.proc_name!r} truncated: "
                    f"{len(image.payload)} bytes, header says "
                    f"{image.nbytes}")
            yield self.sim.timeout(self.params.restart_proc_overhead)
            yield self.sim.timeout(
                image.nbytes / self.params.memory_restart_bandwidth)
            sp.annotate(nbytes=image.nbytes)
            self._m_bytes_memory.inc(image.nbytes)
        return image.materialize(self.node_name)
