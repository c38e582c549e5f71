"""MPI ranks and their Checkpoint/Restart controllers.

An :class:`MPIRank` is one process of the parallel job: it owns a mailbox,
a channel table, and (once the application starts) a *main thread* — the sim
process running the workload.  The :class:`CRController` plays the role of
MVAPICH2's C/R thread: on a suspend request it interrupts the main thread
(freezing compute), drains and tears down the rank's channels, and later
re-establishes them and releases the main thread.

Interrupt discipline: suspension interrupts land only in *rank-level* waits
(compute timeouts, mailbox receives).  Transport-level waits are steadfast,
so a posted message always runs to completion — which is exactly what the
drain protocol requires before the FLUSH marker goes out.
"""

from __future__ import annotations

from typing import Dict, Generator, Hashable, Optional, TYPE_CHECKING

from ..simulate.core import Event, Interrupt, Process, Simulator
from ..simulate.resources import Store
from ..cluster.node import Node
from ..cluster.osproc import OSProcess
from .message import ANY_SOURCE, ANY_TAG, CR_FLUSH_TAG, Message
from .transport import Channel, ChannelManager

if TYPE_CHECKING:  # pragma: no cover
    from .job import MPIJob

__all__ = ["MPIRank", "CRController"]


class CRController:
    """Per-rank C/R thread: suspend → drain → teardown → resume."""

    def __init__(self, rank: "MPIRank"):
        self.rank = rank
        self.sim: Simulator = rank.sim
        self.suspended = False
        self.resume_event: Optional[Event] = None
        self.drain_stats: Dict[str, float] = {}
        #: ``rank.stall`` span id of the last suspension, the flow source
        #: for the stall -> resume barrier edge.
        self._stall_span: Optional[int] = None

    # -- suspension ---------------------------------------------------------
    def suspend_and_drain(self) -> Generator:
        """Generator: freeze the main thread and drain all channels.

        On return the rank has zero in-flight messages and no live
        endpoints — the consistent local state Phase 1 requires.
        """
        if self.suspended:
            raise RuntimeError(f"rank {self.rank.rank} already suspended")
        self.suspended = True
        self.resume_event = Event(self.sim, name=f"resume.r{self.rank.rank}")
        with self.sim.tracer.span("rank.stall", rank=self.rank.rank,
                                  node=self.rank.node.name) as ssp:
            main = self.rank.main_proc
            if main is not None and main.is_alive and main is not self.sim.active_process:
                main.interrupt("cr-suspend")
            t0 = self.sim.now

            outgoing = self.rank.channels.established()
            incoming = {r: c for r, c in self.rank.incoming.items() if c.alive}
            # 1. Wait for our own posted sends to complete.
            if outgoing:
                yield self.sim.all_of([c.wait_idle() for c in outgoing.values()])
            # 2. FLUSH marker behind the last send on every outgoing channel.
            flushers = [
                self.sim.spawn(c.send(64, CR_FLUSH_TAG, None),
                               name=f"flush.r{self.rank.rank}->{r}")
                for r, c in outgoing.items()
            ]
            if flushers:
                yield self.sim.all_of(flushers)
            # 3. Wait for peers' markers on every incoming channel.
            pending = [c.flush_received for c in incoming.values()
                       if not c.flush_received.triggered]
            if pending:
                yield self.sim.all_of(pending)
            # 4. Endpoint teardown: QPs destroyed, adapter context lost.
            self.rank.channels.teardown_all()
            self.rank.incoming = {}
            self.drain_stats = {"drain_time": self.sim.now - t0,
                                "channels_flushed": len(outgoing) + len(incoming)}
            ssp.annotate(channels=self.drain_stats["channels_flushed"])
        self._stall_span = ssp.span_id

    def on_flush_marker(self, channel: Channel) -> None:
        if not channel.flush_received.triggered:
            channel.flush_received.succeed()

    # -- resumption --------------------------------------------------------
    def reestablish(self) -> Generator:
        """Generator: rebuild connections to every peer used before."""
        with self.sim.tracer.span("rank.resume", rank=self.rank.rank,
                                  node=self.rank.node.name) as rsp:
            trace = self.sim.trace
            if trace is not None and self._stall_span is not None:
                trace.link(self._stall_span, rsp, "barrier")
            peers = sorted(self.rank.channels.peers_contacted)
            for peer in peers:
                yield from self.rank.channels.get_channel(
                    self.rank.job.rank_obj(peer))
            rsp.annotate(peers=len(peers))

    def release(self) -> None:
        """Unblock the main thread (end of Phase 4)."""
        if not self.suspended:
            return
        self.suspended = False
        ev, self.resume_event = self.resume_event, None
        if ev is not None:
            ev.succeed()


class MPIRank:
    """One MPI process."""

    def __init__(self, sim: Simulator, job: "MPIJob", rank: int, node: Node,
                 osproc: OSProcess):
        self.sim = sim
        self.job = job
        self.rank = rank
        self.node = node
        self.osproc = osproc
        self.mailbox: Store = Store(sim)
        self.incoming: Dict[int, Channel] = {}
        self.channels = ChannelManager(self)
        self.controller = CRController(self)
        self.main_proc: Optional[Process] = None
        self.coll_seq = 0
        #: Byte counters for the analysis layer.
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- placement -----------------------------------------------------------
    def hca(self):
        return self.node.hca

    def relocate(self, node: Node) -> None:
        """Rebind this rank to a new host (after a migration restart)."""
        self.node = node
        self.osproc.node = node.name

    # -- suspension gate ------------------------------------------------------
    def _gate(self) -> Generator:
        while self.controller.suspended:
            ev = self.controller.resume_event
            if ev is None:
                break
            try:
                yield ev
            except Interrupt:
                continue
        return
        yield  # pragma: no cover — keeps this a generator

    # -- point-to-point -------------------------------------------------------
    def send(self, dst: int, nbytes: int, tag: Hashable = 0,
             payload=None) -> Generator:
        """Generator: blocking standard-mode send (buffered semantics:
        completes when the transport has delivered to the peer's mailbox)."""
        if dst == self.rank:
            yield from self._gate()
            self.mailbox.put(Message(self.rank, dst, tag, nbytes, payload))
            self.bytes_sent += nbytes
            self.bytes_received += nbytes
            return
        while True:
            yield from self._gate()
            try:
                chan = yield from self.channels.get_channel(self.job.rank_obj(dst))
            except (Interrupt, RuntimeError):
                continue  # suspended mid-connect: gate and retry
            try:
                yield from chan.send(nbytes, tag, payload)
            except RuntimeError:
                continue  # channel torn down before the post: retry
            self.bytes_sent += nbytes
            self.job.rank_obj(dst).bytes_received += nbytes
            return

    def recv(self, src=ANY_SOURCE, tag=ANY_TAG) -> Generator:
        """Generator: blocking receive; returns the :class:`Message`."""
        while True:
            yield from self._gate()
            get_ev = self.mailbox.get(lambda m: m.matches(src, tag))
            try:
                return (yield get_ev)
            except Interrupt:
                if get_ev.triggered:
                    # The item was already ours when the interrupt landed;
                    # suspension is honoured at the next MPI call.
                    return get_ev.value
                self.mailbox.cancel(get_ev)

    # -- compute ---------------------------------------------------------------
    def compute(self, seconds: float) -> Generator:
        """Generator: burn CPU time; freezes (and later resumes the
        remainder) across a suspension."""
        remaining = float(seconds)
        while remaining > 1e-12:
            yield from self._gate()
            start = self.sim.now
            try:
                yield self.sim.timeout(remaining)
                remaining = 0.0
            except Interrupt:
                remaining -= self.sim.now - start

    # -- collectives (delegates) ----------------------------------------------
    def allreduce(self, value, op, nbytes: int = 8) -> Generator:
        from .collectives import allreduce

        return (yield from allreduce(self, value, op, nbytes))

    def next_coll_tag(self, op: str):
        """Collectives are called in the same order on every rank (an MPI
        requirement), so a per-rank sequence number aligns across ranks."""
        self.coll_seq += 1
        return ("coll", op, self.coll_seq)

    def __repr__(self) -> str:
        return f"<MPIRank {self.rank} on {self.node.name}>"
