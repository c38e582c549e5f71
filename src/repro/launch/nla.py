"""Node Launch Agents.

One NLA per node: it launches/terminates the application processes on its
host and — in this paper's extension — restarts migrated processes on a
spare.  The state machine follows Sec. III-A exactly:

* ``MIGRATION_READY`` — primary node with running ranks;
* ``MIGRATION_SPARE`` — hot spare, idle, waiting for ``FTB_RESTART``;
* ``MIGRATION_INACTIVE`` — former source node after its processes left.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Generator, Iterable, Optional

from ..params import LaunchParams
from ..simulate.core import Simulator
from ..blcr.image import CheckpointImage
from ..blcr.restart import RestartEngine
from ..cluster.node import Node
from ..ftb.client import FTBClient

__all__ = ["NLAState", "NodeLaunchAgent", "RestartSetMismatch"]


class RestartSetMismatch(RuntimeError):
    """The set of images handed to restart does not match the expected
    process set — a short dict would otherwise silently restart fewer
    ranks than were migrated."""


class NLAState(Enum):
    MIGRATION_READY = "MIGRATION_READY"
    MIGRATION_SPARE = "MIGRATION_SPARE"
    MIGRATION_INACTIVE = "MIGRATION_INACTIVE"


class NodeLaunchAgent:
    """The per-node launcher daemon."""

    def __init__(self, sim: Simulator, node: Node, ftb_client: FTBClient,
                 params: Optional[LaunchParams] = None,
                 spare: bool = False):
        self.sim = sim
        self.node = node
        self.ftb = ftb_client
        self.params = params or LaunchParams()
        self.state = NLAState.MIGRATION_SPARE if spare else NLAState.MIGRATION_READY
        self.restart_engine = RestartEngine(sim, node.name)

    # -- state machine ---------------------------------------------------------
    def to_ready(self) -> None:
        self.state = NLAState.MIGRATION_READY

    def to_inactive(self) -> None:
        self.state = NLAState.MIGRATION_INACTIVE

    # -- process management -------------------------------------------------
    def launch_processes(self, n: int) -> Generator:
        """Generator: fork/exec ``n`` ranks (serialized per node, as a real
        launcher does)."""
        yield self.sim.timeout(n * self.params.proc_launch_cost)

    def _check_restartable(self) -> None:
        if self.state is not NLAState.MIGRATION_SPARE \
                and self.state is not NLAState.MIGRATION_READY:
            raise RuntimeError(f"NLA on {self.node.name} cannot restart in "
                               f"state {self.state.name}")

    def restart_one(self, image: CheckpointImage,
                    path: Optional[str] = None,
                    mode: str = "file") -> Generator:
        """Generator: restart a single migrated process (the pipelined
        path — the caller owns completion tracking and the state flip to
        ``MIGRATION_READY`` once the whole set is back).

        ``mode`` is ``"memory"`` (restore the resident image) or
        ``"file"`` (read ``path`` back); the framework has checked it.
        """
        self._check_restartable()
        if mode == "memory":
            proc = yield from self.restart_engine.restart_from_memory(image)
        else:
            proc = yield from self.restart_engine.restart_from_file(
                self.node.fs, path, metadata=image)
        return proc

    def restart_processes(self, images: Dict[str, CheckpointImage],
                          flow_from: Optional[Iterable[int]] = None,
                          expected_procs: Optional[int] = None
                          ) -> Generator:
        """Generator: the file barrier — restart migrated processes by
        reading the Phase-2 temp files back (the paper's implementation,
        and the dominant cost).  ``images`` maps each file's path to its
        image header, as :attr:`~repro.blcr.checkpoint.FileSink.metadata`
        holds them.  Pipelined memory restart goes through
        :meth:`restart_one` instead.

        Returns ``{proc_name: OSProcess}``.  All restarts run concurrently
        and contend on the local disk's read link.

        ``expected_procs`` is the number of processes the migration moved;
        a mismatched image set raises :class:`RestartSetMismatch` instead
        of silently restarting fewer ranks.  ``flow_from`` carries span
        ids of the operations that produced the images (reassembly
        writes); each is linked to the ``nla.restart`` span so the trace
        shows image-complete -> restart-start causality.
        """
        self._check_restartable()
        if expected_procs is None:
            expected_procs = len(images)
        if len(images) != expected_procs:
            raise RestartSetMismatch(
                f"NLA on {self.node.name} handed {len(images)} images but "
                f"{expected_procs} processes were migrated")

        def one(path: str, image: CheckpointImage) -> Generator:
            proc = yield from self.restart_one(image, path)
            return (image.proc_name, proc)

        with self.sim.tracer.span("nla.restart", node=self.node.name,
                                  mode="file", procs=len(images)) as nsp:
            trace = self.sim.trace
            if trace is not None:
                for src in (flow_from or ()):
                    trace.link(src, nsp, "image.ready")
            workers = [self.sim.spawn(one(path, image),
                                      name=f"restart.{image.proc_name}")
                       for path, image in images.items()]
            results = yield self.sim.all_of(workers)
        restarted = dict(results.values())
        self.to_ready()
        return restarted

    def __repr__(self) -> str:
        return f"<NLA {self.node.name} {self.state.name}>"
