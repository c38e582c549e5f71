"""MPI channel transport over InfiniBand queue pairs.

Each ordered rank pair (A→B) that communicates gets a :class:`Channel`: an
RC queue-pair connection with a receive-demux process on B's side feeding
B's mailbox.  The channel implements MVAPICH2's two protocols:

* **eager** — small messages ride a single SEND;
* **rendezvous** — large messages pay an RTS/CTS handshake before the bulk
  data (modelled as the control round-trip plus the bulk SEND).

Channels are what Phase 1 of a migration must *drain and tear down*: the
drain protocol posts a FLUSH marker behind the last application send (RC
ordering guarantees it arrives last) and peers report marker receipt, after
which QPs are destroyed — discarding the adapter-resident connection state
the paper describes, to be re-established in Phase 4.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Generator, Optional, TYPE_CHECKING

from ..simulate.core import Event, Interrupt, Simulator
from ..network.qp import QueuePair, WorkCompletion
from .message import CR_FLUSH_TAG, Message

if TYPE_CHECKING:  # pragma: no cover
    from .rank import MPIRank

__all__ = ["Channel", "ChannelManager", "EAGER_THRESHOLD", "steadfast_wait"]

#: MVAPICH2's default RDMA eager/rendezvous switch-over region.
EAGER_THRESHOLD = 256 * 1024


def steadfast_wait(ev: Event) -> Generator:
    """Generator: wait on ``ev``, absorbing C/R suspension interrupts.

    A posted work request always runs to completion; the suspension is
    honoured at the rank's next MPI-call gate instead.  Re-yielding the
    same event after an interrupt is safe: the kernel drops a wake-up from
    any event but the one the process waits on (``Process._waiting``).
    """
    while True:
        try:
            return (yield ev)
        except Interrupt:
            continue


class Channel:
    """One directed rank-to-rank connection (A sends, B receives)."""

    def __init__(self, sim: Simulator, src: "MPIRank", dst: "MPIRank"):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.qp_src: Optional[QueuePair] = None
        self.qp_dst: Optional[QueuePair] = None
        self.pending_sends = 0
        self._idle_waiters: list = []
        self.alive = False
        #: Set by the receiving rank's controller when the FLUSH marker of
        #: the current drain epoch arrives.
        self.flush_received: Event = Event(sim, name="flush-recv")
        #: Work-request ids; every CQ this channel polls is its own QPs'.
        self._wr_ids = count()

    # -- lifecycle -----------------------------------------------------------
    def establish(self) -> Generator:
        """Generator: connect the QPs and start the receive demux."""
        hca_src = self.src.hca()
        hca_dst = self.dst.hca()
        self.qp_src = QueuePair(self.sim, hca_src)
        self.qp_dst = QueuePair(self.sim, hca_dst)
        yield from self.qp_src.connect(self.qp_dst)
        self.alive = True
        self.qp_dst.post_recv(next(self._wr_ids))
        self.sim.spawn(self._demux(), name=f"demux:{self.src.rank}->{self.dst.rank}")

    def teardown(self) -> None:
        """Destroy both QPs (adapter state lost); demux exits on the flush."""
        self.alive = False
        if self.qp_src is not None:
            self.qp_src.destroy()
        if self.qp_dst is not None:
            self.qp_dst.destroy()

    def _demux(self) -> Generator:
        """B-side pump: completion queue → B's mailbox."""
        while True:
            wc: WorkCompletion = yield self.qp_dst.cq.poll()
            if not wc.ok:
                return  # QP flushed at teardown
            if self.alive:
                self.qp_dst.post_recv(next(self._wr_ids))
            tag, payload = wc.payload
            msg = Message(src=self.src.rank, dst=self.dst.rank, tag=tag,
                          nbytes=wc.nbytes, payload=payload)
            trace = self.sim.trace
            if trace is not None:
                trace.record(self.sim.now, "msg.recv", src=self.src.rank,
                             dst=self.dst.rank, nbytes=wc.nbytes,
                             flush=tag == CR_FLUSH_TAG, tag=tag)
            if tag == CR_FLUSH_TAG:
                self.dst.controller.on_flush_marker(self)
            else:
                self.dst.mailbox.put(msg)

    # -- data path ---------------------------------------------------------
    def send(self, nbytes: int, tag, payload) -> Generator:
        """Generator: transmit one message; returns on send completion."""
        if not self.alive:
            raise RuntimeError(
                f"send on torn-down channel {self.src.rank}->{self.dst.rank}")
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "msg.send", src=self.src.rank,
                         dst=self.dst.rank, nbytes=nbytes,
                         flush=tag == CR_FLUSH_TAG, tag=tag)
        self.pending_sends += 1
        try:
            if nbytes > EAGER_THRESHOLD and tag != CR_FLUSH_TAG:
                # Rendezvous: RTS/CTS control round-trip before the bulk.
                fabric = self.src.hca().fabric
                yield from steadfast_wait(
                    self.sim.timeout(4 * fabric.params.latency
                                     + 2 * fabric.params.wqe_overhead))
            wr = next(self._wr_ids)
            self.qp_src.post_send(wr, nbytes, payload=(tag, payload))
            wc = yield from steadfast_wait(self.qp_src.cq.poll(wr_id=wr))
            wc.raise_on_error()
        finally:
            self.pending_sends -= 1
            if self.pending_sends == 0:
                waiters, self._idle_waiters = self._idle_waiters, []
                for ev in waiters:
                    ev.succeed()

    def wait_idle(self) -> Event:
        """Event that fires once no sends are in flight."""
        ev = Event(self.sim, name="chan-idle")
        if self.pending_sends == 0:
            ev.succeed()
        else:
            self._idle_waiters.append(ev)
        return ev

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return (f"<Channel {self.src.rank}->{self.dst.rank} {state} "
                f"pending={self.pending_sends}>")


class ChannelManager:
    """Per-rank connection table: outgoing channels, lazily established."""

    def __init__(self, rank: "MPIRank"):
        self.rank = rank
        self.sim = rank.sim
        self.outgoing: Dict[int, Channel] = {}
        #: ranks this rank has ever connected to (for Phase-4 rebuild).
        self.peers_contacted: set = set()
        self._connecting: Dict[int, Event] = {}

    def get_channel(self, dst: "MPIRank") -> Generator:
        """Generator: the (possibly freshly connected) channel to ``dst``.

        Loops rather than assuming a piggy-backed connect succeeded: if the
        task driving the handshake dies mid-establish, its waiters wake to
        find no channel in the table and take over the connect themselves
        instead of crashing on the missing entry.
        """
        while True:
            chan = self.outgoing.get(dst.rank)
            if chan is not None and chan.alive:
                return chan
            inflight = self._connecting.get(dst.rank)
            if inflight is None:
                break
            yield inflight
        gate = Event(self.sim, name=f"connect:{self.rank.rank}->{dst.rank}")
        self._connecting[dst.rank] = gate
        chan = Channel(self.sim, self.rank, dst)
        established = False
        try:
            yield from chan.establish()
            established = True
            self.outgoing[dst.rank] = chan
            dst.incoming[self.rank.rank] = chan
            self.peers_contacted.add(dst.rank)
        finally:
            if not established:
                # Half-connected QPs would otherwise leak adapter state
                # (and posted receives) with no owner to tear them down.
                chan.teardown()
            del self._connecting[dst.rank]
            gate.succeed()
        return chan

    def established(self) -> Dict[int, Channel]:
        return {r: c for r, c in self.outgoing.items() if c.alive}

    def teardown_all(self) -> None:
        for chan in self.outgoing.values():
            if chan.alive:
                chan.teardown()
        self.outgoing.clear()
