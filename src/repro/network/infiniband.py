"""InfiniBand fabric: HCAs, memory registration, and remote keys.

Models the verbs-level properties the migration framework depends on
(paper Sec. III-A lists them explicitly):

* **OS bypass** — RDMA operations never schedule a process on the remote
  host; only link time and HCA processing are charged.
* **Registered memory with rkeys** — remote access requires a valid rkey;
  deregistering an MR or tearing down its protection domain *revokes* the
  key, and any later access faults (:class:`RemoteKeyError`).  This is why
  MVAPICH2 must release cached remote keys before a checkpoint.
* **Connection state lives in the adapter** — tearing down a QP discards
  context that must be rebuilt (paid again) at resume time.

The switch is modelled as non-blocking (reasonable for 9 nodes on one DDR
switch); contention happens at the HCA ports.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count
from typing import Dict, Generator, Optional

import numpy as np

from ..params import IBParams
from ..simulate.core import Event, Simulator
from .fluid import FluidNetwork, Link

__all__ = ["IBFabric", "HCA", "MemoryRegion", "RemoteKeyError"]


class VerbsCounters:
    """The queue-pair and completion-queue instruments of one registry.

    Every QP and CQ shares one instrument per name (the registry is
    get-or-create), so an :class:`IBFabric` resolves them once and each
    QP and CQ it serves takes them from there.
    """

    __slots__ = ("wqe_completed", "wqe_errors", "bytes_by_opcode",
                 "wqe_posted", "qp_live")

    def __init__(self, metrics):
        self.wqe_completed = metrics.counter("qp.wqe.completed", unit="wqes")
        self.wqe_errors = metrics.counter("qp.wqe.errors", unit="wqes")
        self.bytes_by_opcode = {
            "SEND": metrics.counter("qp.send.bytes", unit="bytes"),
            "RECV": metrics.counter("qp.recv.bytes", unit="bytes"),
            "RDMA_READ": metrics.counter("qp.rdma_read.bytes", unit="bytes"),
        }
        self.wqe_posted = metrics.counter("qp.wqe.posted", unit="wqes")
        self.qp_live = metrics.gauge("qp.live", unit="qps")


class RemoteKeyError(Exception):
    """RDMA access attempted with an invalid or revoked rkey."""


class MemoryRegion:
    """A pinned, registered buffer addressable by local and remote keys.

    ``data`` may be a real ``numpy`` byte buffer (correctness tests move
    actual bytes) or ``None`` for size-only regions (large benchmark runs
    where only timing matters).
    """

    __slots__ = ("hca", "nbytes", "rkey", "lkey", "valid", "data", "name")

    def __init__(self, hca: "HCA", nbytes: int, rkey: int, lkey: int,
                 data: Optional[np.ndarray], name: str):
        self.hca = hca
        self.nbytes = int(nbytes)
        self.rkey = rkey
        self.lkey = lkey
        self.valid = True
        self.data = data
        self.name = name

    def check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise ValueError(
                f"MR {self.name!r}: access [{offset}, {offset + nbytes}) "
                f"outside region of {self.nbytes} bytes"
            )

    def write(self, offset: int, payload: Optional[np.ndarray], nbytes: int) -> None:
        self.check_range(offset, nbytes)
        if self.data is not None and payload is not None:
            self.data[offset:offset + nbytes] = payload

    def __repr__(self) -> str:
        state = "valid" if self.valid else "REVOKED"
        return f"<MR {self.name} {self.nbytes}B rkey={self.rkey} {state}>"


class HCA:
    """Host Channel Adapter: one node's attachment to the IB fabric."""

    def __init__(self, fabric: "IBFabric", node: str):
        self.fabric = fabric
        self.node = node
        bw = fabric.params.link_bandwidth
        self.tx = Link(f"ib.{node}.tx", bw)
        self.rx = Link(f"ib.{node}.rx", bw)
        self._mrs: Dict[int, MemoryRegion] = {}
        self._key_seq = count(start=1)

    # Resolved on first registration: most HCAs never pin a region.
    @cached_property
    def _m_registered(self):
        return self.fabric.sim.metrics.counter("ib.mr.registered",
                                               unit="regions")

    @cached_property
    def _m_pinned_bytes(self):
        return self.fabric.sim.metrics.gauge("ib.mr.pinned_bytes",
                                             unit="bytes")

    # -- memory registration -------------------------------------------------
    def register_mr(self, nbytes: int, data: Optional[np.ndarray] = None,
                    name: str = "") -> Generator:
        """Generator: pin and register ``nbytes``; returns a MemoryRegion.

        Registration cost (page pinning) is proportional to the region size.
        """
        if data is not None:
            if data.dtype != np.uint8:
                raise TypeError("MR data must be a uint8 array")
            if data.nbytes != nbytes:
                raise ValueError(f"data has {data.nbytes} bytes, expected {nbytes}")
        p = self.fabric.params
        yield self.fabric.sim.timeout(
            p.mr_register_base + p.mr_register_per_mb * (nbytes / 1e6)
        )
        key = next(self._key_seq)
        mr = MemoryRegion(self, nbytes, rkey=key, lkey=key, data=data,
                          name=name or f"{self.node}.mr{key}")
        self._mrs[mr.rkey] = mr
        sim = self.fabric.sim
        self._m_registered.inc()
        self._m_pinned_bytes.inc(nbytes)
        trace = sim.trace
        if trace is not None:
            trace.record(sim.now, "mr.register", node=self.node,
                         nbytes=nbytes, rkey=mr.rkey, name=mr.name)
        return mr

    def deregister_mr(self, mr: MemoryRegion) -> None:
        """Unpin the region; its rkey is revoked *immediately*."""
        if self._mrs.pop(mr.rkey, None) is not None:
            sim = self.fabric.sim
            self._m_pinned_bytes.dec(mr.nbytes)
            trace = sim.trace
            if trace is not None:
                trace.record(sim.now, "mr.deregister", node=self.node,
                             rkey=mr.rkey, name=mr.name)
        mr.valid = False

    def deregister_all(self) -> None:
        """Protection-domain teardown: revoke every registered key."""
        for mr in list(self._mrs.values()):
            self.deregister_mr(mr)

    def lookup_rkey(self, rkey: int) -> MemoryRegion:
        mr = self._mrs.get(rkey)
        if mr is None or not mr.valid:
            raise RemoteKeyError(
                f"rkey {rkey} is not valid on {self.node} "
                "(revoked by teardown or never registered)"
            )
        return mr

    def __repr__(self) -> str:
        return f"<HCA {self.node} mrs={len(self._mrs)}>"


class IBFabric:
    """The InfiniBand network: HCAs joined by a non-blocking switch."""

    def __init__(self, sim: Simulator, params: Optional[IBParams] = None,
                 net: Optional[FluidNetwork] = None):
        self.sim = sim
        self.params = params or IBParams()
        self.net = net or FluidNetwork(sim)
        self.hcas: Dict[str, HCA] = {}
        #: Payload bytes moved over the fabric, by operation kind.
        self.bytes_moved: Dict[str, float] = {}
        self._m_bytes_moved = sim.metrics.counter("ib.bytes_moved",
                                                  unit="bytes")
        #: Instruments shared by every QP and CQ on this fabric.
        self.verbs_counters = VerbsCounters(sim.metrics)
        #: QP numbers, handed out in this fabric's allocation order.
        self._qp_nums = count()

    def attach(self, node: str) -> HCA:
        hca = self.hcas.get(node)
        if hca is None:
            hca = HCA(self, node)
            self.hcas[node] = hca
        return hca

    def hca(self, node: str) -> HCA:
        try:
            return self.hcas[node]
        except KeyError:
            raise KeyError(f"node {node!r} has no HCA on this fabric") from None

    def move(self, src: str, dst: str, nbytes: float, kind: str,
             extra_latency: float = 0.0) -> Event:
        """Raw fabric data movement (used by the QP layer)."""
        self.bytes_moved[kind] = self.bytes_moved.get(kind, 0.0) + nbytes
        self._m_bytes_moved.inc(nbytes)
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "ib.move", src=src, dst=dst,
                         nbytes=nbytes, op=kind)
        latency = self.params.latency + self.params.wqe_overhead + extra_latency
        if src == dst:
            # Loopback through the HCA: charge latency only; memory-speed
            # copies are modelled at the endpoints, not the wire.
            ev = Event(self.sim, name=f"ib-loopback:{kind}")
            ev.succeed_later(None, latency)
            return ev
        shca, dhca = self.hca(src), self.hca(dst)
        return self.net.transfer([shca.tx, dhca.rx], nbytes, latency=latency,
                                 label=f"ib:{kind}:{src}->{dst}")
