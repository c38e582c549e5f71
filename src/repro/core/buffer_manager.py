"""RDMA-based process migration: the paper's core mechanism (Sec. III-B).

One :class:`RDMAMigrationSession` spans a (source node, target node) pair:

* the **source buffer manager** exposes an :class:`AggregatingSink` that the
  extended BLCR feeds: checkpoint writes *from every process on the node*
  are aggregated into a pinned buffer pool (default 10 MB, 1 MB chunks);
  a filled chunk triggers an RDMA-Read request message to the target;
* the **target buffer manager** pulls each chunk with an RDMA Read (the
  source CPU is not involved in the data movement), reassembles the chunks
  of each process — keyed by ``(process, stream offset, size)`` exactly as
  in the paper — into a per-process temporary checkpoint file (a BLCR
  ``FileSink``; a ``MemorySink`` for the memory restart), and returns a
  release message so the source can reuse the chunk slot.

Backpressure is physical: a checkpointing process blocks when no free chunk
is available, so the pool size bounds pinned memory exactly as in the real
implementation (and the pool-size ablation shows the same insensitivity the
paper reports).

When the cluster records data, chunk bytes travel through real registered
memory regions — so a byte-exact image lands at the target through the same
rkey-checked RDMA path a real HCA would use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Dict, Generator, List, Optional

import numpy as np

from ..params import MigrationParams
from ..simulate.core import Event, Process, Simulator
from ..simulate.resources import Store
from ..network.fluid import Link
from ..network.qp import QueuePair, WorkCompletion
from ..blcr.checkpoint import CheckpointSink
from ..blcr.image import CheckpointImage
from ..cluster.node import Cluster, Node

__all__ = ["RDMAMigrationSession", "AggregatingSink", "ChunkDescriptor"]

_DESCRIPTOR_BYTES = 64
_RELEASE_BYTES = 32


@dataclass(frozen=True)
class ChunkDescriptor:
    """RDMA-Read request: where the chunk sits and where it belongs.

    Carries the two kinds of information the paper lists: (1) the RDMA
    coordinates for the pull (pool offset; the rkey rides on the session),
    and (2) the reassembly key (process, stream offset, size).  The
    process is the engine's header-only ``image`` itself, which the target
    sink keys its file or buffer by and restarts from.
    """

    seq: int
    image: CheckpointImage
    stream_offset: int
    nbytes: int
    pool_offset: int
    final: bool = False
    #: Span open in the producer task when the chunk was filled (the
    #: ``blcr.checkpoint`` span), so the target can link fill->pull.
    src_span: Optional[int] = None


class AggregatingSink:
    """The BLCR-side write hook shared by all processes on the source node."""

    def __init__(self, session: "RDMAMigrationSession"):
        self.session = session
        self.sim = session.sim

    def write(self, image: CheckpointImage, offset: int, nbytes: int,
              data: Optional[np.ndarray]) -> Generator:
        s = self.session
        if nbytes > s.params.chunk_size:
            raise ValueError(
                f"checkpoint emitted {nbytes} bytes > chunk size "
                f"{s.params.chunk_size}; drive the engine with "
                f"chunk_bytes=params.chunk_size")
        t_req = self.sim.now
        pool_offset = yield s.free_slots.get()  # backpressure on pool
        # Kernel-side copy into the pinned pool (the aggregation pipeline).
        yield s.net.transfer([s.fill_link], nbytes, label="mig-fill")
        if s.src_pool is not None and data is not None:
            s.src_pool[pool_offset:pool_offset + nbytes] = data
        desc = ChunkDescriptor(next(s._chunk_seq), image, offset,
                               nbytes, pool_offset,
                               src_span=s.sim.tracer.current_span())
        s.bytes_offered += nbytes
        s._m_fill_seconds.observe(self.sim.now - t_req)
        s._m_fill_bytes.inc(nbytes)
        s._sample_occupancy()
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "pool.chunk.fill", seq=desc.seq,
                         proc=image.proc_name, nbytes=nbytes,
                         node=s.source.name, wait=self.sim.now - t_req,
                         pool_offset=pool_offset)
        s.src_qp.post_send(("desc", desc.seq), _DESCRIPTOR_BYTES, payload=desc)
        # Don't wait for the pull: pipelining is the whole point.  The slot
        # comes back via the release path.

    def finalize(self, image: CheckpointImage) -> Generator:
        s = self.session
        desc = ChunkDescriptor(next(s._chunk_seq), image, image.nbytes, 0, 0,
                               final=True)
        s.src_qp.post_send(("fin", desc.seq), _DESCRIPTOR_BYTES, payload=desc)
        yield self.sim.timeout(0)


class RDMAMigrationSession:
    """Source/target buffer-manager pair for one migration."""

    def __init__(self, sim: Simulator, cluster: Cluster, source: Node,
                 target: Node, target_sink: CheckpointSink,
                 params: Optional[MigrationParams] = None):
        self.sim = sim
        self.cluster = cluster
        self.source = source
        self.target = target
        self.params = params or cluster.testbed.migration
        if self.params.chunk_size > self.params.buffer_pool_size:
            raise ValueError("chunk size larger than the buffer pool")
        self.net = cluster.net
        self.n_chunks = max(1, self.params.buffer_pool_size // self.params.chunk_size)
        #: Source-side aggregation pipeline limit (kernel write hook +
        #: request handling), the calibrated Phase-2 bottleneck.
        self.fill_link = Link(f"mig.{source.name}.fill",
                              cluster.testbed.ib.migration_pipeline_bandwidth)
        self.free_slots: Store = Store(sim)
        self.src_qp: Optional[QueuePair] = None
        self.dst_qp: Optional[QueuePair] = None
        self.src_mr = None
        self.dst_mr = None
        self.src_pool: Optional[np.ndarray] = None
        self.dst_pool: Optional[np.ndarray] = None
        self.expected_procs = 0
        self._finals_seen = 0
        self.done: Event = Event(sim, name="migration-transfer-done")
        #: Where reassembled bytes land at the target (file sink = the
        #: paper's temp checkpoint files; memory sink = resident images).
        self.target_sink = target_sink
        #: Per-process completion stream: a proc's name is put here the
        #: instant its image is sealed, so a pipelined restart stage can
        #: start it without waiting for ``done``.
        self.completions: Store = Store(sim)
        self._received: Dict[str, int] = {}
        #: Finalize totals and completion events, keyed by process name:
        #: ``_pull_chunk`` signals the event once every byte has landed, so
        #: ``_finish_proc`` never polls the calendar.
        self._expected_total: Dict[str, int] = {}
        self._all_received: Dict[str, Event] = {}
        self._pumps: List[Process] = []
        #: Descriptor seqs and reposted receive ids of this migration.
        self._chunk_seq = count()
        # accounting
        self.bytes_offered = 0.0
        self.bytes_pulled = 0.0
        self.chunks_pulled = 0
        self._alive = False
        # observability
        #: ``pool.reassemble`` span id per reassembled process — the flow
        #: sources the framework hands to NLA restart (image -> restart).
        self.reassembly_spans: Dict[str, int] = {}
        self._pull_spans: Dict[str, List[int]] = {}
        m = sim.metrics
        self._m_fill_seconds = m.histogram("pool.chunk.fill_seconds", unit="s")
        self._m_drain_seconds = m.histogram("pool.chunk.drain_seconds", unit="s")
        self._m_fill_bytes = m.counter("pool.fill.bytes", unit="bytes")
        self._m_pull_bytes = m.counter("pool.pull.bytes", unit="bytes")
        self._m_chunks = m.counter("pool.chunks.pulled", unit="chunks")
        self._m_occupancy = m.gauge("pool.occupancy", unit="chunks")

    def _sample_occupancy(self) -> None:
        """Chunks currently held (filled or in flight), for the pool gauge."""
        self._m_occupancy.set(self.n_chunks - len(self.free_slots.items))

    # -- lifecycle -----------------------------------------------------------
    def setup(self, expected_procs: int) -> Generator:
        """Generator: register pools, connect QPs, start the pump loops."""
        if expected_procs < 1:
            raise ValueError("expected_procs must be >= 1")
        self.expected_procs = expected_procs
        record = self.cluster.record_data
        pool = self.params.buffer_pool_size
        if record:
            self.src_pool = np.zeros(pool, dtype=np.uint8)
            self.dst_pool = np.zeros(pool, dtype=np.uint8)
        self.src_mr = yield from self.source.hca.register_mr(
            pool, data=self.src_pool, name=f"mig.{self.source.name}.pool")
        self.dst_mr = yield from self.target.hca.register_mr(
            pool, data=self.dst_pool, name=f"mig.{self.target.name}.pool")
        self.src_qp = QueuePair(self.sim, self.source.hca)
        self.dst_qp = QueuePair(self.sim, self.target.hca)
        yield from self.src_qp.connect(self.dst_qp)
        for i in range(self.n_chunks):
            self.free_slots.put(i * self.params.chunk_size)
            self.dst_qp.post_recv(("rx", i))   # prepost descriptor credits
            self.src_qp.post_recv(("rel", i))  # prepost release credits
        self._alive = True
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "session.setup",
                         source=self.source.name, target=self.target.name,
                         chunks=self.n_chunks,
                         pool_bytes=self.params.buffer_pool_size,
                         expected_procs=expected_procs)
        self._pumps = [
            self.sim.spawn(self._target_pump(), name="mig-target-pump"),
            self.sim.spawn(self._source_release_pump(), name="mig-release-pump"),
        ]

    def sink(self) -> AggregatingSink:
        return AggregatingSink(self)

    def teardown(self) -> None:
        """Destroy QPs and deregister the pools — rkeys are revoked, so any
        straggler pull would fault rather than read stale memory.

        Destroying the source QP flushes the posted receives of *both*
        endpoints into their CQs with error completions, which is what wakes
        the two pump loops; a follow-up check asserts they actually exited,
        so a reintroduced leak fails loudly instead of parking one process
        per migration.
        """
        self._alive = False
        trace = self.sim.trace
        if trace is not None:
            trace.record(self.sim.now, "session.teardown",
                         source=self.source.name, target=self.target.name,
                         bytes=self.bytes_pulled, chunks=self.chunks_pulled)
        if self.src_mr is not None:
            self.source.hca.deregister_mr(self.src_mr)
        if self.dst_mr is not None:
            self.target.hca.deregister_mr(self.dst_mr)
        if self.src_qp is not None:
            self.src_qp.destroy()
        if self.dst_qp is not None:
            # The source-side destroy flushed this endpoint's receives, but
            # its own adapter context (QP number, CQ) was never released —
            # the target would leak one QP per migration.
            self.dst_qp.destroy()
        if self._pumps:
            self.sim.spawn(self._assert_pumps_exit(),
                           name="mig-teardown-check")

    def _assert_pumps_exit(self) -> Generator:
        # The flush completions are already in the CQs; one calendar
        # step later both pumps must have observed them and returned.
        yield self.sim.timeout(0)
        stuck = [p.name for p in self._pumps if p.is_alive]
        if stuck:
            raise RuntimeError(
                f"migration pumps leaked after teardown: {stuck}")

    # -- target side ------------------------------------------------------------
    def _target_pump(self) -> Generator:
        while self._alive:
            wc: WorkCompletion = yield self.dst_qp.cq.poll(opcode="RECV")
            if not wc.ok:
                return  # QP flushed at teardown
            self.dst_qp.post_recv(("rx", next(self._chunk_seq)))  # restore credit
            desc: ChunkDescriptor = wc.payload
            if desc.final:
                self.sim.spawn(self._finish_proc(desc.image),
                               name=f"mig-fin.{desc.image.proc_name}")
            else:
                self.sim.spawn(self._pull_chunk(desc),
                               name=f"mig-pull.{desc.seq}")

    def _pull_chunk(self, desc: ChunkDescriptor) -> Generator:
        t0 = self.sim.now
        proc = desc.image.proc_name
        with self.sim.tracer.span("migration.rdma_pull", seq=desc.seq,
                                  proc=proc, node=self.target.name,
                                  src=self.source.name,
                                  rkey=self.src_mr.rkey) as sp:
            trace = self.sim.trace
            if trace is not None:
                if desc.src_span is not None:
                    trace.link(desc.src_span, sp, "rdma.pull")
                self._pull_spans.setdefault(proc, []).append(sp.span_id)
            wr = ("pull", desc.seq)
            self.dst_qp.post_rdma_read(wr, self.src_mr.rkey, desc.pool_offset,
                                       desc.nbytes, self.dst_mr,
                                       desc.pool_offset)
            wc = yield self.dst_qp.cq.poll(wr_id=wr)
            wc.raise_on_error()
            data = None
            if self.dst_pool is not None:
                data = self.dst_pool[desc.pool_offset:
                                     desc.pool_offset + desc.nbytes]
            # Reassemble: hand the chunk to the sink stage, keyed exactly
            # as in the paper — (process, stream offset, size).  ``data``
            # is a view of the pinned pool; the slot is released only after
            # the sink has copied it.
            yield from self.target_sink.write(desc.image, desc.stream_offset,
                                              desc.nbytes, data)
            sp.annotate(nbytes=desc.nbytes)
        self.bytes_pulled += desc.nbytes
        self.chunks_pulled += 1
        self._m_drain_seconds.observe(self.sim.now - t0)
        self._m_pull_bytes.inc(desc.nbytes)
        self._m_chunks.inc()
        got = self._received.get(proc, 0) + desc.nbytes
        self._received[proc] = got
        # If the finalize marker already overtook us, it parked an event
        # with the proc's total byte count; signal it once we cross it.
        expected = self._expected_total.get(proc)
        if expected is not None and got >= expected:
            self._all_received.pop(proc).succeed()
            del self._expected_total[proc]
        # Release the chunk slot back to the source pool.
        self.dst_qp.post_send(("release", desc.seq), _RELEASE_BYTES,
                              payload=desc.pool_offset)

    def _finish_proc(self, image: CheckpointImage) -> Generator:
        # The final marker may overtake in-flight pulls (they run
        # concurrently); park on an event that the last chunk pull signals
        # instead of polling the calendar at sub-millisecond resolution.
        proc = image.proc_name
        with self.sim.tracer.span("pool.reassemble", proc=proc,
                                  node=self.target.name) as rsp:
            if self._received.get(proc, 0) < image.nbytes:
                gate = Event(self.sim, name=f"mig-complete.{proc}")
                self._expected_total[proc] = image.nbytes
                self._all_received[proc] = gate
                yield gate
            yield from self.target_sink.finalize(image)
            rsp.annotate(nbytes=self._received.get(proc, 0))
        self._finals_seen += 1
        trace = self.sim.trace
        if trace is not None:
            for pull_span in self._pull_spans.pop(proc, ()):
                trace.link(pull_span, rsp, "reassembly")
            self.reassembly_spans[proc] = rsp.span_id
            trace.record(self.sim.now, "pool.proc.complete",
                         proc=proc, node=self.target.name,
                         nbytes=self._received.get(proc, 0))
        self.completions.put(proc)
        if self._finals_seen == self.expected_procs:
            self.done.succeed()

    # -- source side -----------------------------------------------------------
    def _source_release_pump(self) -> Generator:
        while self._alive:
            wc: WorkCompletion = yield self.src_qp.cq.poll(opcode="RECV")
            if not wc.ok:
                return
            self.src_qp.post_recv(("rel", next(self._chunk_seq)))
            self.free_slots.put(wc.payload)
            self._sample_occupancy()
            trace = self.sim.trace
            if trace is not None:
                trace.record(self.sim.now, "pool.chunk.release",
                             pool_offset=wc.payload, node=self.source.name)
