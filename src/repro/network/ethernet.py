"""Gigabit Ethernet maintenance network.

Every attached node gets an :class:`EthernetPort` with three capacity pools:
a transmit link, a receive link, and a *host copy* link modelling the CPU
memory-copy bandwidth of the kernel socket stack.  A TCP-style transfer
crosses ``[src.copy, src.tx, dst.rx, dst.copy]``, so concurrent sockets on
one host contend both for the wire and for copy bandwidth — this is exactly
the penalty the paper holds against TCP/IP-based live migration (Sec. III-B)
and what makes the GigE path unsuitable for bulk image movement.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..params import GigEParams
from ..simulate.core import Event, Simulator
from .fluid import FluidNetwork, Link

__all__ = ["EthernetFabric", "EthernetPort"]


class EthernetPort:
    """One node's NIC + host-stack attachment point."""

    __slots__ = ("node", "tx", "rx", "copy")

    def __init__(self, node: str, tx: Link, rx: Link, copy: Link):
        self.node = node
        self.tx = tx
        self.rx = rx
        self.copy = copy

    def __repr__(self) -> str:
        return f"<EthernetPort {self.node}>"


class EthernetFabric:
    """Switched GigE network (non-blocking switch, edge-limited)."""

    def __init__(self, sim: Simulator, params: Optional[GigEParams] = None,
                 net: Optional[FluidNetwork] = None):
        self.sim = sim
        self.params = params or GigEParams()
        self.net = net or FluidNetwork(sim)
        self.ports: Dict[str, EthernetPort] = {}
        #: Total payload bytes accepted for transmission (accounting).
        self.bytes_sent: float = 0.0
        self._m_bytes_sent = sim.metrics.counter("eth.bytes_sent",
                                                 unit="bytes")

    def attach(self, node: str) -> EthernetPort:
        """Attach ``node`` to the fabric; idempotent."""
        port = self.ports.get(node)
        if port is None:
            bw = self.params.link_bandwidth
            copy_bw = 1.0 / self.params.copy_cost_per_byte
            port = EthernetPort(
                node,
                tx=Link(f"eth.{node}.tx", bw),
                rx=Link(f"eth.{node}.rx", bw),
                copy=Link(f"eth.{node}.copy", copy_bw),
            )
            self.ports[node] = port
        return port

    def _port(self, node: str) -> EthernetPort:
        try:
            return self.ports[node]
        except KeyError:
            raise KeyError(f"node {node!r} is not attached to the Ethernet fabric") from None

    def transfer(self, src: str, dst: str, nbytes: float, label: str = "") -> Event:
        """Move ``nbytes`` from ``src`` to ``dst`` TCP-style.

        Returns an event that fires when the last byte lands at ``dst``.
        Loopback still pays the copy cost (kernel crossing), not the wire.
        """
        sport, dport = self._port(src), self._port(dst)
        self.bytes_sent += nbytes
        self._m_bytes_sent.inc(nbytes)
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "eth.transfer", src=src, dst=dst,
                         nbytes=nbytes, label=label)
        if src == dst:
            path = [sport.copy]
        else:
            path = [sport.copy, sport.tx, dport.rx, dport.copy]
        return self.net.transfer(path, nbytes, latency=self.params.latency,
                                 label=label or f"eth:{src}->{dst}")
