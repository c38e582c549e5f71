"""PVFS: striped parallel filesystem over the InfiniBand fabric.

Mirrors the paper's deployment (Sec. IV-C): PVFS 2.8.1 with IB transport,
four nodes acting as both data and metadata servers, 1 MB stripe size.

Model:

* a client write is striped evenly across the data servers; each stripe
  stream crosses ``client.hca.tx → server.hca.rx → server disk`` so both
  the wire and the server disks are shared fluid resources; a write's (or
  read's) stripes start as one batch, so the fluid engine refills the
  shared component once per call, not once per stripe;
* server disks degrade with concurrent streams (``efficiency`` curves) —
  with 64 checkpoint writers the aggregate collapses to roughly half the
  raw rate, reproducing the contention the paper attributes to
  "concurrent I/O streams to write/read checkpoint files" (and why
  CR(PVFS) loses to CR(ext3) in Figure 7);
* metadata operations (create, sync) serialize at the metadata service.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

import numpy as np

from ..params import PVFSParams
from ..simulate.core import Simulator
from ..simulate.resources import Resource
from ..network.fluid import Link, stream_efficiency
from ..network.infiniband import HCA, IBFabric
from .filesystem import (FileExists, FileHandle, FileNotFoundInFS, Places,
                         SimFile)

__all__ = ["PVFS", "PVFSServer"]


class PVFSServer:
    """One PVFS data server: an IB attachment plus a disk."""

    def __init__(self, sim: Simulator, fabric: IBFabric, node: str,
                 params: PVFSParams):
        self.node = node
        self.hca: HCA = fabric.attach(node)
        self.write_link = Link(
            f"pvfs.{node}.disk.write", params.server_write_bandwidth,
            efficiency=stream_efficiency(params.efficiency_per_stream,
                                         params.write_efficiency_floor),
        )
        self.read_link = Link(
            f"pvfs.{node}.disk.read", params.server_read_bandwidth,
            efficiency=stream_efficiency(params.efficiency_per_stream,
                                         params.read_efficiency_floor),
        )
        self.bytes_written: float = 0.0
        self.bytes_read: float = 0.0


class _PVFSHandle(FileHandle):
    __slots__ = ("client", "stream_cap")

    def __init__(self, fs: "PVFS", file: SimFile, client: str):
        super().__init__(fs, file)
        self.client = client
        #: Per-stream client-side ceiling: stripes of one handle share it.
        self.stream_cap = Link(f"pvfs.stream.{client}.{file.path}",
                               fs.params.client_stream_bandwidth)


class PVFS:
    """The shared parallel filesystem, visible from every compute node."""

    def __init__(self, sim: Simulator, fabric: IBFabric,
                 params: Optional[PVFSParams] = None,
                 record_data: bool = False,
                 server_nodes: Optional[List[str]] = None):
        self.sim = sim
        self.fabric = fabric
        self.params = params or PVFSParams()
        self.record_data = record_data
        nodes = server_nodes or [f"pvfs{i}" for i in range(self.params.n_servers)]
        self.servers = [PVFSServer(sim, fabric, n, self.params) for n in nodes]
        #: Metadata service: creates and syncs serialize here.
        self.metadata = Resource(sim, capacity=1)
        self.files: Dict[str, SimFile] = {}

    # -- namespace --------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self.files

    def size(self, path: str) -> int:
        return self._lookup(path).size

    def unlink(self, path: str) -> None:
        self._lookup(path)
        del self.files[path]

    def _lookup(self, path: str) -> SimFile:
        try:
            return self.files[path]
        except KeyError:
            raise FileNotFoundInFS(f"{path!r} on PVFS") from None

    def _meta_op(self, cost: float) -> Generator:
        with self.metadata.request() as req:
            yield req
            yield self.sim.timeout(cost)
        self.sim.metrics.counter("pvfs.meta_ops", unit="ops").inc()

    def _sample_servers(self) -> None:
        """Snapshot per-fleet stream depth and degraded write bandwidth —
        the contention signal behind CR(PVFS) losing to CR(ext3) in Fig 7."""
        metrics = self.sim.metrics
        if not metrics.enabled:
            return
        depth = sum(len(s.write_link.flows) + len(s.read_link.flows)
                    for s in self.servers)
        metrics.gauge("pvfs.server.queue_depth", unit="streams").set(depth)
        metrics.gauge("pvfs.server.write_bandwidth", unit="bytes/s").set(
            sum(s.write_link.effective_capacity() for s in self.servers))

    # -- open/create --------------------------------------------------------
    def create(self, path: str, client: str) -> Generator:
        """Generator: create ``path`` from ``client``; returns a handle.

        Atomic: the name is reserved before the (serialized) metadata cost,
        so concurrent duplicate creates fail fast instead of clobbering.
        """
        if path in self.files:
            raise FileExists(path)
        f = SimFile(path, self.record_data)
        self.files[path] = f
        yield from self._meta_op(self.params.create_cost)
        return _PVFSHandle(self, f, client)

    def open(self, path: str, client: str) -> Generator:
        f = self._lookup(path)
        yield from self._meta_op(self.params.create_cost / 2)
        return _PVFSHandle(self, f, client)

    # -- striped data path ------------------------------------------------------
    def _stripe_sizes(self, nbytes: int) -> List[int]:
        """Bytes landing on each server for an ``nbytes`` sequential run.

        Approximates round-robin 1 MB striping by an even split (exact for
        runs much larger than stripe_size * n_servers, which checkpoint
        images are).
        """
        n = len(self.servers)
        base, rem = divmod(int(nbytes), n)
        return [base + (1 if i < rem else 0) for i in range(n)]

    def write(self, handle: _PVFSHandle, nbytes: int,
              data: Optional[np.ndarray] = None) -> Generator:
        handle._check()
        if data is not None and data.nbytes != nbytes:
            raise ValueError(f"data has {data.nbytes} bytes, expected {nbytes}")
        client_hca = self.fabric.hca(handle.client)
        net, latency = self.fabric.net, self.fabric.params.latency
        flows = []
        for server, part in zip(self.servers, self._stripe_sizes(nbytes)):
            if part == 0:
                continue
            server.bytes_written += part
            flows.append(net.transfer(
                [handle.stream_cap, client_hca.tx, server.hca.rx,
                 server.write_link], part, latency,
                f"pvfs:w:{handle.file.path}@{server.node}"))
        self._sample_servers()
        yield self.sim.all_of(flows) if flows else self.sim.timeout(0)
        self.sim.metrics.counter("pvfs.bytes_written", unit="bytes").inc(nbytes)
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "pvfs.write", client=handle.client,
                         path=handle.file.path, nbytes=nbytes,
                         stripes=len(flows))
        handle.file.write_at(handle.pos, nbytes, data)
        handle.pos += nbytes

    def read(self, handle: _PVFSHandle, nbytes: Optional[int] = None,
             offset: Optional[int] = None,
             into: Optional[Places] = None) -> Generator:
        """Generator: striped read; returns what :meth:`LocalFS.read
        <repro.storage.filesystem.LocalFS.read>` returns, and copies into
        ``into`` the same way."""
        handle._check()
        pos = handle.pos if offset is None else offset
        n = handle.file.size - pos if nbytes is None else nbytes
        if pos + n > handle.file.size:
            raise ValueError(
                f"read past EOF: [{pos}, {pos + n}) of {handle.file.size}")
        client_hca = self.fabric.hca(handle.client)
        net, latency = self.fabric.net, self.fabric.params.latency
        flows = []
        for server, part in zip(self.servers, self._stripe_sizes(n)):
            if part == 0:
                continue
            server.bytes_read += part
            flows.append(net.transfer(
                [server.read_link, server.hca.tx, client_hca.rx,
                 handle.stream_cap], part, latency,
                f"pvfs:r:{handle.file.path}@{server.node}"))
        self._sample_servers()
        yield self.sim.all_of(flows) if flows else self.sim.timeout(0)
        self.sim.metrics.counter("pvfs.bytes_read", unit="bytes").inc(n)
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "pvfs.read", client=handle.client,
                         path=handle.file.path, nbytes=n,
                         stripes=len(flows))
        if offset is None:
            handle.pos += n
        if into is None:
            return handle.file.read_at(pos, n)
        handle.file.read_into(pos, n, into)
        return None

    def fsync(self, handle: _PVFSHandle) -> Generator:
        """Generator: durability barrier — metadata-serialized sync."""
        handle._check()
        yield from self._meta_op(self.params.sync_cost)

    def close(self, handle: _PVFSHandle, sync: bool = False) -> Generator:
        if sync:
            yield from self.fsync(handle)
        else:
            yield self.sim.timeout(0)
        handle.closed = True

    # -- accounting ---------------------------------------------------------
    @property
    def total_bytes_written(self) -> float:
        return sum(s.bytes_written for s in self.servers)

    @property
    def total_bytes_read(self) -> float:
        return sum(s.bytes_read for s in self.servers)
