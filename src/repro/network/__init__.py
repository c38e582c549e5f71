"""Network substrates: fluid bandwidth engine, GigE, InfiniBand verbs, IPoIB.

Two fabrics mirror the paper's testbed:

* :class:`~repro.network.infiniband.IBFabric` — Mellanox DDR InfiniBand used
  for MPI traffic and the RDMA-based process migration (zero-copy, OS-bypass).
* :class:`~repro.network.ethernet.EthernetFabric` — the GigE maintenance
  network that carries the FTB and the TCP migration baseline (pays the
  socket-stack memory-copy cost).
"""

from .ethernet import EthernetFabric, EthernetPort
from .fluid import Flow, FluidNetwork, Link, stream_efficiency
from .infiniband import HCA, IBFabric, MemoryRegion, RemoteKeyError
from .ipoib import IPoIBFabric
from .qp import CompletionError, CompletionQueue, QPState, QueuePair, WorkCompletion

__all__ = [
    "FluidNetwork",
    "Link",
    "Flow",
    "stream_efficiency",
    "EthernetFabric",
    "EthernetPort",
    "IBFabric",
    "HCA",
    "MemoryRegion",
    "RemoteKeyError",
    "QueuePair",
    "QPState",
    "CompletionQueue",
    "WorkCompletion",
    "CompletionError",
    "IPoIBFabric",
]
