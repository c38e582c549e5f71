"""Compute-node and cluster models.

A :class:`Node` bundles the per-host resources every other subsystem hangs
off: CPU cores (a counted resource), a local disk with an ext3-style
filesystem, an InfiniBand HCA and a GigE port.  A :class:`Cluster` builds
the paper's testbed shape — N primary compute nodes plus hot-spare nodes, a
login node running the Job Manager, and (optionally) a PVFS volume on
dedicated server nodes — all sharing one fluid-bandwidth engine so every
transfer in the system contends realistically.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional

from ..params import Testbed, DEFAULT_TESTBED
from ..simulate.core import Simulator
from ..simulate.resources import Resource
from ..simulate.rng import RandomStreams
from ..simulate.trace import Tracer
from ..network.ethernet import EthernetFabric
from ..network.fluid import FluidNetwork
from ..network.infiniband import HCA, IBFabric
from ..storage.buffer_cache import BufferCache
from ..storage.disk import Disk
from ..storage.filesystem import LocalFS
from ..storage.pvfs import PVFS

__all__ = ["NodeState", "Node", "Cluster"]


class NodeState(Enum):
    HEALTHY = "HEALTHY"
    DETERIORATING = "DETERIORATING"
    FAILED = "FAILED"


class Node:
    """One host: cores, local storage, network attachments."""

    def __init__(self, sim: Simulator, name: str, testbed: Testbed,
                 ib: IBFabric, eth: EthernetFabric, net: FluidNetwork,
                 record_data: bool = False):
        self.sim = sim
        self.name = name
        self.testbed = testbed
        self.state = NodeState.HEALTHY
        self.cores = Resource(sim, capacity=testbed.cores_per_node)
        self.disk = Disk(sim, name, params=testbed.disk, net=net)
        self.cache = BufferCache(sim, self.disk)
        self.fs = LocalFS(sim, self.disk, cache=self.cache,
                          params=testbed.disk, record_data=record_data)
        self.hca: HCA = ib.attach(name)
        self.eth = eth.attach(name)

    @property
    def healthy(self) -> bool:
        return self.state is NodeState.HEALTHY

    def mark(self, state: NodeState) -> None:
        self.state = state

    def __repr__(self) -> str:
        return f"<Node {self.name} {self.state.name}>"


class Cluster:
    """The simulated testbed.

    Parameters mirror the paper's setup: ``n_compute`` primary nodes running
    the MPI job, ``n_spare`` hot spares, one login node, and optionally a
    PVFS volume served by ``testbed.pvfs.n_servers`` extra nodes.
    """

    LOGIN = "login"

    def __init__(self, sim: Simulator, n_compute: int = 8, n_spare: int = 1,
                 testbed: Testbed = DEFAULT_TESTBED, with_pvfs: bool = False,
                 record_data: bool = False, seed: int = 0,
                 trace: Optional[Tracer] = None):
        if n_compute < 1:
            raise ValueError("need at least one compute node")
        if n_spare < 0:
            raise ValueError("n_spare must be non-negative")
        self.sim = sim
        self.testbed = testbed
        #: The tracer this cluster was built with, or ``None``; code under
        #: the cluster traces through ``sim.tracer``.
        self.trace = trace
        if trace is not None and sim.trace is None:
            # Kernel-level records (spawns, fluid.recompute) share the same
            # tracer; ``sim.trace`` stays None on the untraced fast path.
            sim.trace = trace
        self.rng = RandomStreams(seed)
        self.net = FluidNetwork(sim)
        self.ib = IBFabric(sim, params=testbed.ib, net=self.net)
        self.eth = EthernetFabric(sim, params=testbed.gige, net=self.net)
        self.record_data = record_data

        def make(name: str) -> Node:
            return Node(sim, name, testbed, self.ib, self.eth, self.net,
                        record_data=record_data)

        self.compute: List[Node] = [make(f"node{i}") for i in range(n_compute)]
        self.spares: List[Node] = [make(f"spare{i}") for i in range(n_spare)]
        self.login: Node = make(self.LOGIN)
        self.nodes: Dict[str, Node] = {n.name: n for n in
                                       [*self.compute, *self.spares, self.login]}
        self.pvfs: Optional[PVFS] = None
        if with_pvfs:
            self.pvfs = PVFS(sim, self.ib, params=testbed.pvfs,
                             record_data=record_data)

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def healthy_spare(self) -> Optional[Node]:
        """The next available hot spare, if any."""
        for node in self.spares:
            if node.healthy:
                return node
        return None

    def promote_spare(self, spare: Node) -> None:
        """Move a spare into the primary set (after a migration lands on it)."""
        self.spares.remove(spare)
        self.compute.append(spare)

    def retire(self, node: Node) -> None:
        """Drop a failed/abandoned node from the primary set."""
        node.mark(NodeState.FAILED)
        if node in self.compute:
            self.compute.remove(node)

    def __repr__(self) -> str:
        return (f"<Cluster {len(self.compute)} compute + {len(self.spares)} "
                f"spare{' + pvfs' if self.pvfs else ''}>")
