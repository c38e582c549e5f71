"""Reliable-Connection queue pairs, completion queues and verbs.

The work-request model follows the verbs API shape: operations are *posted*
(non-blocking) and their outcomes arrive as :class:`WorkCompletion` entries
on a :class:`CompletionQueue`.  Two-sided SEND consumes a posted RECV at the
peer; one-sided RDMA READ touches only registered memory at the peer and
completes without involving any remote process — the property the migration
design exploits (Phase 2 pulls every image chunk with it).

RC ordering is modelled by serializing each QP's send queue (hardware
processes WQEs in order), and a QP transitions to ``ERROR`` on the first
failed operation, as real RC QPs do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import count
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from ..simulate.core import Event, Simulator
from ..simulate.resources import Resource, Store, _StoreGet, _StorePut
from .infiniband import (HCA, IBFabric, MemoryRegion, RemoteKeyError,
                         VerbsCounters)

__all__ = [
    "QPState",
    "WorkCompletion",
    "CompletionQueue",
    "CompletionError",
    "QueuePair",
]


class QPState(Enum):
    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"  # ready to receive
    RTS = "RTS"  # ready to send
    ERROR = "ERROR"


class CompletionError(Exception):
    """A work request completed with error status."""

    def __init__(self, wc: "WorkCompletion"):
        super().__init__(f"{wc.opcode} wr_id={wc.wr_id}: {wc.error}")
        self.wc = wc


@dataclass
class WorkCompletion:
    """One CQE: outcome of a posted work request."""

    wr_id: Any
    opcode: str  # SEND / RECV / RDMA_READ
    ok: bool
    nbytes: int = 0
    payload: Any = None
    error: Optional[BaseException] = None

    def raise_on_error(self) -> "WorkCompletion":
        if not self.ok:
            raise CompletionError(self)
        return self


class CompletionQueue:
    """FIFO of work completions, pollable by a sim process.

    Every QP has its own CQ, so a completion is attributed to its QP and
    a work-request id need only be unique among that QP's requests.

    A poll takes the oldest completion overall (``poll()``), the oldest
    with one work-request id (``poll(wr_id=...)``) or the oldest with one
    opcode (``poll(opcode=...)``).  The queue keeps an index per wr_id and
    per opcode beside its global order, so a poll finds its entry without
    scanning completions nobody polls (a session's SEND completions pile
    up unread).  A new completion goes to the first waiting poller it
    matches.  Each push makes one ``_StorePut`` event and each poll one
    ``_StoreGet``, in the order a filtered :class:`Store` made them.
    """

    def __init__(self, sim: Simulator, name: str, owner_qp: int,
                 counters: VerbsCounters):
        self.sim = sim
        self.name = name
        #: qp_num of the QP this CQ serves.
        self.owner_qp = owner_qp
        self._ticket = count()
        #: ticket -> completion, in push order; the per-wr_id and
        #: per-opcode lanes hold the same entries and drop a lane once
        #: its last entry is taken.
        self._entries: Dict[int, WorkCompletion] = {}
        self._by_wr: Dict[Any, Dict[int, WorkCompletion]] = {}
        self._by_op: Dict[str, Dict[int, WorkCompletion]] = {}
        #: Parked polls, ``(ticket, event)`` in poll order per lane.
        self._any_waiters: Deque[Tuple[int, _StoreGet]] = deque()
        self._wr_waiters: Dict[Any, Deque[Tuple[int, _StoreGet]]] = {}
        self._op_waiters: Dict[str, Deque[Tuple[int, _StoreGet]]] = {}
        self._m_completed = counters.wqe_completed
        self._m_errors = counters.wqe_errors
        self._m_bytes = counters.bytes_by_opcode

    def push(self, wc: WorkCompletion) -> None:
        self._m_completed.inc()
        if wc.ok:
            ctr = self._m_bytes.get(wc.opcode)
            if ctr is not None and wc.nbytes:
                ctr.inc(wc.nbytes)
        else:
            self._m_errors.inc()
        sim = self.sim
        trace = sim.trace
        if trace is not None:
            trace.record(sim.now, "qp.complete", cq=self.name,
                         opcode=wc.opcode, ok=wc.ok, nbytes=wc.nbytes,
                         qp=self.owner_qp)
        put = _StorePut(sim, wc)
        waiter = self._claim_waiter(wc)
        if waiter is not None:
            waiter.succeed(wc)
        else:
            ticket = next(self._ticket)
            self._entries[ticket] = wc
            lane = self._by_wr.get(wc.wr_id)
            if lane is None:
                self._by_wr[wc.wr_id] = {ticket: wc}
            else:
                lane[ticket] = wc
            lane = self._by_op.get(wc.opcode)
            if lane is None:
                self._by_op[wc.opcode] = {ticket: wc}
            else:
                lane[ticket] = wc
        put.succeed()

    def poll(self, wr_id: Any = None, opcode: Optional[str] = None) -> Event:
        """Event yielding the oldest completion, or the oldest for one
        ``wr_id`` or of one ``opcode`` (at most one of the two)."""
        ev = _StoreGet(self.sim, None)
        if wr_id is not None:
            if opcode is not None:
                raise ValueError("poll() takes a wr_id or an opcode, not both")
            lane = self._by_wr.get(wr_id)
            waiters = self._wr_waiters
            key = wr_id
        elif opcode is not None:
            lane = self._by_op.get(opcode)
            waiters = self._op_waiters
            key = opcode
        else:
            lane = self._entries
            waiters = None
            key = None
        if lane:
            ticket = next(iter(lane))
            wc = lane[ticket]
            self._take(ticket, wc)
            ev.succeed(wc)
        elif waiters is None:
            self._any_waiters.append((next(self._ticket), ev))
        else:
            queue = waiters.get(key)
            if queue is None:
                waiters[key] = deque([(next(self._ticket), ev)])
            else:
                queue.append((next(self._ticket), ev))
        return ev

    def pending(self) -> List[WorkCompletion]:
        """The unpolled completions, oldest first."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def _take(self, ticket: int, wc: WorkCompletion) -> None:
        del self._entries[ticket]
        lane = self._by_wr[wc.wr_id]
        del lane[ticket]
        if not lane:
            del self._by_wr[wc.wr_id]
        lane = self._by_op[wc.opcode]
        del lane[ticket]
        if not lane:
            del self._by_op[wc.opcode]

    def _claim_waiter(self, wc: WorkCompletion) -> Optional[_StoreGet]:
        """Dequeue and return the earliest parked poll ``wc`` satisfies."""
        best = self._any_waiters or None
        owner: Any = None
        key: Any = None
        queue = self._wr_waiters.get(wc.wr_id)
        if queue is not None and (best is None or queue[0][0] < best[0][0]):
            best, owner, key = queue, self._wr_waiters, wc.wr_id
        queue = self._op_waiters.get(wc.opcode)
        if queue is not None and (best is None or queue[0][0] < best[0][0]):
            best, owner, key = queue, self._op_waiters, wc.opcode
        if best is None:
            return None
        waiter = best.popleft()[1]
        if owner is not None and not best:
            del owner[key]  # no lane outlives its last parked poll
        return waiter


@dataclass
class _PostedRecv:
    wr_id: Any
    max_bytes: int


class QueuePair:
    """One endpoint of a reliable connection."""

    def __init__(self, sim: Simulator, hca: HCA):
        self.sim = sim
        self.hca = hca
        self.fabric: IBFabric = hca.fabric
        self.qp_num = next(self.fabric._qp_nums)
        # Process names of this QP's posts, formatted on its first post
        # (most QPs never post a SEND or a READ).
        self._send_name: Optional[str] = None
        self._read_name: Optional[str] = None
        counters = self.fabric.verbs_counters
        self.cq = CompletionQueue(sim, f"cq.{hca.node}", self.qp_num,
                                  counters)
        self.state = QPState.RESET
        self.peer: Optional["QueuePair"] = None
        self._destroyed = False
        self._recv_queue: Store = Store(sim)
        self._send_lock = Resource(sim, capacity=1)
        self._m_posted = counters.wqe_posted
        self._m_live = counters.qp_live

    # -- connection management ------------------------------------------------
    def connect(self, peer: "QueuePair") -> Generator:
        """Generator: CM handshake driving both QPs RESET→INIT→RTR→RTS.

        Costs one qp_setup_time (covers the state transitions and the
        address handle exchange).
        """
        if self._destroyed or peer._destroyed:
            raise RuntimeError("connect() on a destroyed QP: adapter context "
                               "is gone, create a fresh pair")
        if self.state is not QPState.RESET or peer.state is not QPState.RESET:
            raise RuntimeError("connect() requires both QPs in RESET")
        self.state = peer.state = QPState.INIT
        yield self.sim.timeout(self.fabric.params.qp_setup_time)
        self.state = peer.state = QPState.RTR
        self.peer = peer
        peer.peer = self
        self.state = peer.state = QPState.RTS
        self._m_live.inc(2.0)  # both endpoints just reached RTS
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "qp.connect", qp=self.qp_num,
                         peer=peer.qp_num, node=self.hca.node,
                         peer_node=peer.hca.node)
        return self

    def destroy(self) -> None:
        """Tear the connection down; adapter-cached context is lost.

        Pending posted receives are flushed with error completions on *both*
        endpoints, like real RC QPs draining into ERROR when the connection
        dies: the peer's receive queue can never be satisfied once this side
        is gone, so leaving it posted would park the peer's poller forever
        (one leaked process per teardown).

        Idempotent: tearing down an already-destroyed QP is a no-op, so the
        session and channel layers can both release a shared pair without
        double-emitting ``qp.destroy`` or re-flushing the peer.
        """
        if self._destroyed:
            return
        self._destroyed = True
        # Each endpoint leaving RTS (this QP, and the peer we drive into
        # ERROR below) drops the live-QP gauge exactly once.
        leaving = int(self.state is QPState.RTS)
        if (self.peer is not None and self.peer.peer is self
                and self.peer.state is QPState.RTS):
            leaving += 1
        if leaving:
            self._m_live.dec(float(leaving))
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "qp.destroy", qp=self.qp_num,
                         node=self.hca.node)
        if self.peer is not None and self.peer.peer is self:
            self.peer.peer = None
            self.peer.state = QPState.ERROR
            self.peer._flush_recvs()
        self.peer = None
        self.state = QPState.RESET
        self._flush_recvs()

    def _flush_recvs(self) -> None:
        """Complete every posted receive with a flush error, and wake every
        peer SEND parked in the RNR wait on this queue (it then completes
        with a flush error on its own CQ)."""
        queue = self._recv_queue
        while queue.items:
            posted: _PostedRecv = queue.items.pop(0)
            self.cq.push(WorkCompletion(posted.wr_id, "RECV", ok=False,
                                        error=RuntimeError("QP flushed")))
        while queue._getters:
            queue._getters.popleft().succeed(None)

    def _require_rts(self, op: str) -> Optional[BaseException]:
        if self.state is not QPState.RTS or self.peer is None:
            return RuntimeError(f"{op} on QP in state {self.state.name} (no peer)")
        return None

    def _fail(self, wr_id: Any, opcode: str, exc: BaseException) -> None:
        self.state = QPState.ERROR
        self.cq.push(WorkCompletion(wr_id, opcode, ok=False, error=exc))

    # -- two-sided verbs --------------------------------------------------------
    def post_recv(self, wr_id: Any, max_bytes: int = 2**62) -> None:
        self._m_posted.inc()
        self._recv_queue.put(_PostedRecv(wr_id, max_bytes))

    def post_send(self, wr_id: Any, nbytes: int, payload: Any = None) -> None:
        """Post a SEND; completion (and the peer's RECV completion) arrive
        on the respective CQs."""
        self._m_posted.inc()
        err = self._require_rts("post_send")
        if err is not None:
            self._fail(wr_id, "SEND", err)
            return
        name = self._send_name
        if name is None:
            name = self._send_name = f"qp{self.qp_num}.send"
        self.sim.spawn(self._do_send(wr_id, nbytes, payload), name)

    def _do_send(self, wr_id: Any, nbytes: int, payload: Any) -> Generator:
        with self._send_lock.request() as req:  # RC in-order WQE processing
            yield req
            peer = self.peer
            if peer is None:
                self._fail(wr_id, "SEND", RuntimeError("peer gone"))
                return
            yield self.fabric.move(self.hca.node, peer.hca.node, nbytes, "send")
            if self.peer is peer:
                # RNR semantics: wait for a posted recv (None: flushed).
                posted: Optional[_PostedRecv] = yield peer._recv_queue.get()
            else:
                posted = None  # torn down while the bytes were moving
            if posted is None:
                self.cq.push(WorkCompletion(wr_id, "SEND", ok=False,
                                            error=RuntimeError("QP flushed")))
                return
            if nbytes > posted.max_bytes:
                exc = RuntimeError(
                    f"recv buffer too small: {nbytes} > {posted.max_bytes}")
                peer.cq.push(WorkCompletion(posted.wr_id, "RECV", ok=False, error=exc))
                self._fail(wr_id, "SEND", exc)
                return
            peer.cq.push(WorkCompletion(posted.wr_id, "RECV", ok=True,
                                        nbytes=nbytes, payload=payload))
            self.cq.push(WorkCompletion(wr_id, "SEND", ok=True, nbytes=nbytes))

    # -- one-sided verbs ---------------------------------------------------------
    def post_rdma_read(self, wr_id: Any, remote_rkey: int, remote_offset: int,
                       nbytes: int, local_mr: Optional[MemoryRegion] = None,
                       local_offset: int = 0) -> None:
        """Pull ``nbytes`` from the peer's registered memory.

        The remote *CPU is never involved*: validation happens at the remote
        HCA, data crosses remote.tx → local.rx, and only the local CQ sees a
        completion.
        """
        self._m_posted.inc()
        err = self._require_rts("rdma_read")
        if err is not None:
            self._fail(wr_id, "RDMA_READ", err)
            return
        name = self._read_name
        if name is None:
            name = self._read_name = f"qp{self.qp_num}.read"
        self.sim.spawn(
            self._do_rdma_read(wr_id, remote_rkey, remote_offset, nbytes,
                               local_mr, local_offset),
            name,
        )

    def _do_rdma_read(self, wr_id: Any, rkey: int, roffset: int, nbytes: int,
                      local_mr: Optional[MemoryRegion],
                      loffset: int) -> Generator:
        with self._send_lock.request() as req:
            yield req
            peer = self.peer
            if peer is None:
                self._fail(wr_id, "RDMA_READ", RuntimeError("peer gone"))
                return
            remote_hca = peer.hca
            # rkey validation happens in the remote adapter, before any data
            # moves — a revoked key NAKs the request.
            try:
                remote_mr = remote_hca.lookup_rkey(rkey)
                remote_mr.check_range(roffset, nbytes)
                if local_mr is not None:
                    local_mr.check_range(loffset, nbytes)
            except (RemoteKeyError, ValueError) as exc:
                yield self.sim.timeout(2 * self.fabric.params.latency)  # NAK RTT
                self._fail(wr_id, "RDMA_READ", exc)
                return
            # Request goes out (latency), data flows remote -> local.
            yield self.fabric.move(remote_hca.node, self.hca.node, nbytes,
                                   "rdma_read",
                                   extra_latency=self.fabric.params.latency)
            # The HCA moves bytes between registered buffers: one copy,
            # from a view of the remote region into the local one.
            if local_mr is not None and remote_mr.data is not None:
                local_mr.write(loffset,
                               remote_mr.data[roffset:roffset + nbytes],
                               nbytes)
            self.cq.push(WorkCompletion(wr_id, "RDMA_READ", ok=True,
                                        nbytes=nbytes))

    def __repr__(self) -> str:
        return f"<QP {self.qp_num} {self.hca.node} {self.state.name}>"
