"""Tests for HCAs, memory regions, rkeys, QPs and RDMA verbs."""

import tracemalloc

import numpy as np
import pytest

from repro.simulate import Simulator
from repro.network import (
    CompletionQueue,
    IBFabric,
    IPoIBFabric,
    QPState,
    QueuePair,
    RemoteKeyError,
)


def make_pair():
    sim = Simulator()
    fab = IBFabric(sim)
    qa = QueuePair(sim, fab.attach("a"))
    qb = QueuePair(sim, fab.attach("b"))
    return sim, fab, qa, qb


def connect(sim, qa, qb):
    def conn(sim):
        yield from qa.connect(qb)

    p = sim.spawn(conn(sim))
    sim.run(until=p)


# ------------------------------------------------------------------ HCA / MR
def test_register_and_lookup_mr():
    sim = Simulator()
    fab = IBFabric(sim)
    hca = fab.attach("a")

    def proc(sim):
        mr = yield from hca.register_mr(1024)
        return mr

    p = sim.spawn(proc(sim))
    sim.run()
    mr = p.value
    assert hca.lookup_rkey(mr.rkey) is mr
    assert sim.now > 0  # registration costs time


def test_deregister_revokes_rkey():
    sim = Simulator()
    hca = IBFabric(sim).attach("a")

    def proc(sim):
        mr = yield from hca.register_mr(1024)
        hca.deregister_mr(mr)
        return mr

    p = sim.spawn(proc(sim))
    sim.run()
    mr = p.value
    assert not mr.valid
    with pytest.raises(RemoteKeyError):
        hca.lookup_rkey(mr.rkey)


def test_deregister_all_protection_domain_teardown():
    sim = Simulator()
    hca = IBFabric(sim).attach("a")

    def proc(sim):
        mrs = []
        for _ in range(3):
            mrs.append((yield from hca.register_mr(64)))
        return mrs

    p = sim.spawn(proc(sim))
    sim.run()
    hca.deregister_all()
    for mr in p.value:
        with pytest.raises(RemoteKeyError):
            hca.lookup_rkey(mr.rkey)


def test_mr_data_validation():
    sim = Simulator()
    hca = IBFabric(sim).attach("a")

    def proc(sim):
        with pytest.raises(TypeError):
            yield from hca.register_mr(8, data=np.zeros(8, dtype=np.float64))
        with pytest.raises(ValueError):
            yield from hca.register_mr(8, data=np.zeros(4, dtype=np.uint8))

    sim.spawn(proc(sim))
    sim.run()


def test_mr_range_check():
    sim = Simulator()
    hca = IBFabric(sim).attach("a")

    def proc(sim):
        mr = yield from hca.register_mr(100)
        with pytest.raises(ValueError):
            mr.check_range(90, 20)
        mr.check_range(0, 100)  # exact fit OK

    sim.spawn(proc(sim))
    sim.run()


# ------------------------------------------------------------------ QP basics
def test_qp_connect_reaches_rts():
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)
    assert qa.state is QPState.RTS
    assert qb.state is QPState.RTS
    assert qa.peer is qb and qb.peer is qa
    assert sim.now >= fab.params.qp_setup_time


def test_qp_double_connect_rejected():
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)
    qc = QueuePair(sim, fab.attach("c"))

    def proc(sim):
        with pytest.raises(RuntimeError):
            yield from qa.connect(qc)

    sim.spawn(proc(sim))
    sim.run()


def test_send_recv_delivers_payload():
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)

    def sender(sim):
        qa.post_send("s1", nbytes=4096, payload={"hello": "world"})
        wc = yield qa.cq.poll()
        return wc

    def receiver(sim):
        qb.post_recv("r1")
        wc = yield qb.cq.poll()
        return wc

    ps = sim.spawn(sender(sim))
    pr = sim.spawn(receiver(sim))
    sim.run()
    assert ps.value.ok and ps.value.opcode == "SEND"
    assert pr.value.ok and pr.value.payload == {"hello": "world"}
    assert pr.value.nbytes == 4096


def test_send_waits_for_posted_recv():
    """RNR semantics: SEND does not complete until the peer posts a recv."""
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)
    t_recv_posted = 5.0

    def sender(sim):
        qa.post_send("s", nbytes=10)
        wc = yield qa.cq.poll()
        return sim.now

    def receiver(sim):
        yield sim.timeout(t_recv_posted)
        qb.post_recv("r")
        yield qb.cq.poll()

    ps = sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    assert ps.value >= t_recv_posted


def test_send_without_connection_errors():
    sim = Simulator()
    fab = IBFabric(sim)
    q = QueuePair(sim, fab.attach("a"))
    q.post_send("s", 10)

    def proc(sim):
        wc = yield q.cq.poll()
        return wc

    p = sim.spawn(proc(sim))
    sim.run()
    assert not p.value.ok
    assert q.state is QPState.ERROR


def test_recv_buffer_too_small_errors_both_sides():
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)

    def sender(sim):
        qa.post_send("s", nbytes=1000)
        return (yield qa.cq.poll())

    def receiver(sim):
        qb.post_recv("r", max_bytes=10)
        return (yield qb.cq.poll())

    ps, pr = sim.spawn(sender(sim)), sim.spawn(receiver(sim))
    sim.run()
    assert not ps.value.ok and not pr.value.ok


def test_destroy_flushes_posted_recvs():
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)
    qb.post_recv("pending")
    qb.destroy()

    def proc(sim):
        return (yield qb.cq.poll())

    p = sim.spawn(proc(sim))
    sim.run()
    assert not p.value.ok
    assert qb.state is QPState.RESET
    assert qa.state is QPState.ERROR  # peer sees a broken connection


# ------------------------------------------------------------------ RDMA
def test_rdma_read_moves_real_bytes():
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)
    src_data = np.arange(256, dtype=np.uint8)
    dst_data = np.zeros(256, dtype=np.uint8)

    def proc(sim):
        remote_mr = yield from qb.hca.register_mr(256, data=src_data.copy())
        local_mr = yield from qa.hca.register_mr(256, data=dst_data)
        qa.post_rdma_read("rd", remote_mr.rkey, 0, 256, local_mr, 0)
        wc = yield qa.cq.poll()
        return wc, local_mr

    p = sim.spawn(proc(sim))
    sim.run()
    wc, local_mr = p.value
    assert wc.ok
    np.testing.assert_array_equal(local_mr.data, src_data)


def test_rdma_read_partial_range():
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)
    src = np.arange(100, dtype=np.uint8)

    def proc(sim):
        rmr = yield from qb.hca.register_mr(100, data=src.copy())
        lmr = yield from qa.hca.register_mr(50, data=np.zeros(50, dtype=np.uint8))
        qa.post_rdma_read("rd", rmr.rkey, 30, 20, lmr, 5)
        yield qa.cq.poll()
        return lmr

    p = sim.spawn(proc(sim))
    sim.run()
    np.testing.assert_array_equal(p.value.data[5:25], src[30:50])


def test_rdma_read_with_revoked_rkey_fails():
    """The paper's consistency argument: cached rkeys become invalid after
    the remote endpoint tears down — using one must fault, not corrupt."""
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)
    dst = np.full(64, 0xAB, dtype=np.uint8)

    def proc(sim):
        rmr = yield from qb.hca.register_mr(
            64, data=np.arange(64, dtype=np.uint8))
        lmr = yield from qa.hca.register_mr(64, data=dst)
        cached_rkey = rmr.rkey          # initiator caches the remote key
        qb.hca.deregister_all()         # remote tears down (pre-checkpoint)
        qa.post_rdma_read("rd", cached_rkey, 0, 64, lmr, 0)
        wc = yield qa.cq.poll()
        return wc

    p = sim.spawn(proc(sim))
    sim.run()
    assert not p.value.ok
    assert isinstance(p.value.error, RemoteKeyError)
    assert qa.state is QPState.ERROR
    assert (dst == 0xAB).all()          # the local region is left unchanged


def test_rdma_read_copies_mr_to_mr_once():
    """A 1 MB record-data pull lands byte-exact with no staging copy: the
    only bytes moved are written straight into the local region."""
    chunk = 1 << 20
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)
    src = np.random.default_rng(7).integers(0, 256, chunk, dtype=np.uint8)
    dst = np.zeros(chunk, dtype=np.uint8)

    def proc(sim):
        rmr = yield from qb.hca.register_mr(chunk, data=src)
        lmr = yield from qa.hca.register_mr(chunk, data=dst)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            qa.post_rdma_read("rd", rmr.rkey, 0, chunk, lmr, 0)
            wc = yield qa.cq.poll()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return wc, peak - base

    p = sim.spawn(proc(sim))
    sim.run()
    wc, peak = p.value
    assert wc.ok and wc.nbytes == chunk
    np.testing.assert_array_equal(dst, src)
    assert peak < chunk, f"RDMA Read allocated {peak} bytes for a {chunk} B pull"


def test_rdma_read_out_of_range_fails():
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)

    def proc(sim):
        rmr = yield from qb.hca.register_mr(64)
        qa.post_rdma_read("rd", rmr.rkey, 60, 10)
        return (yield qa.cq.poll())

    p = sim.spawn(proc(sim))
    sim.run()
    assert not p.value.ok


def test_rdma_is_one_sided_no_remote_completion():
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)

    def proc(sim):
        rmr = yield from qb.hca.register_mr(1024)
        qa.post_rdma_read("rd", rmr.rkey, 0, 1024)
        yield qa.cq.poll()

    p = sim.spawn(proc(sim))
    sim.run()
    assert len(qb.cq) == 0  # remote side never sees anything


def test_rdma_read_timing_uses_link_bandwidth():
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)
    nbytes = int(fab.params.link_bandwidth)  # 1 second of wire

    def proc(sim):
        rmr = yield from qb.hca.register_mr(nbytes)
        t0 = sim.now
        qa.post_rdma_read("rd", rmr.rkey, 0, nbytes)
        yield qa.cq.poll()
        return sim.now - t0

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == pytest.approx(1.0, rel=1e-2)


def test_fabric_byte_accounting_by_kind():
    sim, fab, qa, qb = make_pair()
    connect(sim, qa, qb)

    def proc(sim):
        rmr = yield from qb.hca.register_mr(500)
        qa.post_rdma_read("rd", rmr.rkey, 0, 500)
        yield qa.cq.poll()
        qb.post_recv("r")
        qa.post_send("s", 300)
        yield qa.cq.poll()

    sim.spawn(proc(sim))
    sim.run()
    assert fab.bytes_moved["rdma_read"] == 500
    assert fab.bytes_moved["send"] == 300


# ------------------------------------------------------------------ IPoIB
def test_ipoib_slower_than_rdma():
    sim = Simulator()
    fab = IBFabric(sim)
    fab.attach("a"), fab.attach("b")
    ipoib = IPoIBFabric(sim, fab)
    nbytes = 100e6

    done = ipoib.transfer("a", "b", nbytes)
    sim.run(until=done)
    t_ipoib = sim.now

    # Native path for comparison.
    sim2 = Simulator()
    fab2 = IBFabric(sim2)
    fab2.attach("a"), fab2.attach("b")
    done2 = fab2.move("a", "b", nbytes, "rdma_read")
    sim2.run(until=done2)
    t_rdma = sim2.now

    assert t_ipoib > 1.5 * t_rdma  # socket path pays copies + efficiency


def test_ipoib_shares_wire_with_verbs_traffic():
    sim = Simulator()
    fab = IBFabric(sim)
    fab.attach("a"), fab.attach("b")
    ipoib = IPoIBFabric(sim, fab)
    d1 = ipoib.transfer("a", "b", 50e6)
    d2 = fab.move("a", "b", 50e6, "send")
    sim.run(until=sim.all_of([d1, d2]))
    # Both used a.tx: the fluid engine saw 2 flows on that link.
    assert fab.hca("a").tx.bytes_carried == pytest.approx(100e6, rel=1e-6)
