"""The Job Manager (mpirun_rsh equivalent).

Lives on the login node; owns the spawn tree and the NLAs, performs the
PMI endpoint exchange (serialized at the root — the cost that makes
Phase 4 scale with rank count) and the tree repair of Phase 3.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..params import LaunchParams
from ..simulate.core import Simulator
from ..cluster.node import Cluster
from ..ftb.agent import FTBBackplane
from ..ftb.client import FTBClient
from .nla import NodeLaunchAgent
from .spawn_tree import SpawnTree

__all__ = ["JobManager"]


class JobManager:
    """Launch-time coordinator and migration-time orchestrator anchor."""

    def __init__(self, sim: Simulator, cluster: Cluster,
                 backplane: FTBBackplane,
                 params: Optional[LaunchParams] = None, fanout: int = 8):
        self.sim = sim
        self.cluster = cluster
        self.backplane = backplane
        self.params = params or cluster.testbed.launch
        self.ftb = FTBClient(backplane, cluster.login.name, "job-manager")
        compute = [n.name for n in cluster.compute]
        spares = [n.name for n in cluster.spares]
        self.tree = SpawnTree(cluster.login.name, compute + spares,
                              fanout=fanout)
        self.nlas: Dict[str, NodeLaunchAgent] = {}
        for name in compute:
            self.nlas[name] = self._make_nla(name, spare=False)
        for name in spares:
            self.nlas[name] = self._make_nla(name, spare=True)

    def _make_nla(self, node_name: str, spare: bool) -> NodeLaunchAgent:
        client = FTBClient(self.backplane, node_name, f"nla.{node_name}")
        return NodeLaunchAgent(self.sim, self.cluster.node(node_name), client,
                               params=self.params, spare=spare)

    def nla(self, node_name: str) -> NodeLaunchAgent:
        try:
            return self.nlas[node_name]
        except KeyError:
            raise KeyError(f"no NLA on {node_name!r}") from None

    # -- PMI ---------------------------------------------------------------------
    def pmi_exchange(self, nranks: int) -> Generator:
        """Generator: endpoint-information allgather, serialized at the
        root — the dominant Phase-4 term (fitted ~20 ms/rank)."""
        yield self.sim.timeout(nranks * self.params.pmi_exchange_per_rank)

    # -- migration support ---------------------------------------------------------
    def repair_tree(self, failed: str, replacement: str) -> Generator:
        """Generator: adjust the spawn tree for the topology change (Phase 3).

        Hot spares already hold a position in the tree (their NLAs were
        launched at startup), so the failed node simply drops out; a
        replacement that is *not* yet in the tree takes the failed node's
        position instead.
        """
        if replacement in self.tree:
            self.tree.remove(failed)
        else:
            self.tree.replace(failed, replacement)
        yield self.sim.timeout(self.params.tree_repair_cost)

    def __repr__(self) -> str:
        return f"<JobManager nlas={len(self.nlas)}>"
