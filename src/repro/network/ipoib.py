"""IP-over-InfiniBand: the socket abstraction on the IB wire.

The paper (Sec. III-B) argues that IPoIB cannot exploit RDMA because it
"still follows the memory-copy based socket protocol".  We model that
faithfully: an IPoIB transfer crosses the IB links *plus* per-host copy
links (the kernel socket stack), and pays a protocol-efficiency haircut on
the wire rate.  Used only by the transport ablation benchmark.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..params import GigEParams
from ..simulate.core import Event, Simulator
from .fluid import FluidNetwork, Link
from .infiniband import IBFabric

__all__ = ["IPoIBFabric"]

#: Fraction of raw IB bandwidth reachable through the socket path.
#: Datagram-mode IPoIB on DDR-era HCAs (MT25208) measured ~300-400 MB/s
#: for a TCP stream — roughly a quarter of verbs throughput.
_IPOIB_WIRE_EFFICIENCY = 0.25


class _Port:
    __slots__ = ("copy",)

    def __init__(self, copy: Link):
        self.copy = copy


class IPoIBFabric:
    """Socket-style transfers that ride the IB links of an :class:`IBFabric`.

    Shares the underlying HCA tx/rx links with native verbs traffic, so
    IPoIB streams and RDMA streams contend realistically; adds a host copy
    link per node capped at the socket-stack copy bandwidth.
    """

    def __init__(self, sim: Simulator, ib: IBFabric,
                 copy_cost_per_byte: Optional[float] = None):
        self.sim = sim
        self.ib = ib
        self.net: FluidNetwork = ib.net
        cost = copy_cost_per_byte if copy_cost_per_byte is not None \
            else GigEParams().copy_cost_per_byte
        self._copy_bw = 1.0 / cost
        self._ports: Dict[str, _Port] = {}
        self.bytes_sent: float = 0.0
        #: Extra per-port wire-share cap modelling protocol inefficiency.
        self._wire_caps: Dict[str, Link] = {}

    def attach(self, node: str) -> _Port:
        port = self._ports.get(node)
        if port is None:
            self.ib.attach(node)
            port = _Port(Link(f"ipoib.{node}.copy", self._copy_bw))
            self._ports[node] = port
            self._wire_caps[node] = Link(
                f"ipoib.{node}.wire",
                self.ib.params.link_bandwidth * _IPOIB_WIRE_EFFICIENCY,
            )
        return port

    def transfer(self, src: str, dst: str, nbytes: float, label: str = "") -> Event:
        """Socket-style transfer over the IB wire: copies at both hosts,
        capped wire efficiency, contends with native verbs traffic."""
        sport, dport = self.attach(src), self.attach(dst)
        self.bytes_sent += nbytes
        latency = self.ib.params.latency * 6  # interrupt-driven stack, not polled
        if src == dst:
            path = [sport.copy]
        else:
            shca, dhca = self.ib.hca(src), self.ib.hca(dst)
            path = [sport.copy, self._wire_caps[src], shca.tx, dhca.rx,
                    self._wire_caps[dst], dport.copy]
        return self.net.transfer(path, nbytes, latency=latency,
                                 label=label or f"ipoib:{src}->{dst}")
