"""Edge-case tests for queue pairs: destruction races, error states."""

import pytest

from repro.simulate import Simulator
from repro.network import (
    CompletionError,
    IBFabric,
    QPState,
    QueuePair,
    WorkCompletion,
)


def make_pair():
    sim = Simulator()
    fab = IBFabric(sim)
    qa = QueuePair(sim, fab.attach("a"))
    qb = QueuePair(sim, fab.attach("b"))

    def conn(sim):
        yield from qa.connect(qb)

    sim.run(until=sim.spawn(conn(sim)))
    return sim, fab, qa, qb


def test_send_after_peer_destroy_errors():
    sim, fab, qa, qb = make_pair()
    qb.destroy()
    qa.post_send("s", 100)

    def poll(sim):
        return (yield qa.cq.poll())

    p = sim.spawn(poll(sim))
    sim.run()
    assert not p.value.ok
    assert qa.state is QPState.ERROR


def test_destroy_flushes_own_posted_receives():
    sim, fab, qa, qb = make_pair()
    qa.post_recv("own1")
    qa.post_recv("own2")
    qa.destroy()
    assert len(qa.cq) == 2

    def poll(sim):
        return (yield qa.cq.poll())

    p = sim.spawn(poll(sim))
    sim.run()
    assert not p.value.ok


def test_destroy_flushes_peer_posted_receives():
    """Destroying one side must drain the *peer's* receive queue into the
    peer's CQ with error completions — a poller parked on the peer CQ
    (like the migration target pump) would otherwise never wake."""
    sim, fab, qa, qb = make_pair()
    qb.post_recv("peer1")
    qb.post_recv("peer2")
    woken = []

    def peer_poller(sim):
        wc = yield qb.cq.poll(opcode="RECV")
        woken.append(wc)

    p = sim.spawn(peer_poller(sim))
    sim.run(until=sim.timeout(1.0))
    assert p.is_alive  # parked: nothing has arrived
    qa.destroy()
    sim.run()
    assert not p.is_alive
    assert len(woken) == 1 and not woken[0].ok
    assert qb.state is QPState.ERROR
    # Both receive queues drained symmetrically: one flushed completion
    # consumed by the poller, one still sitting in the peer CQ.
    assert len(qb._recv_queue.items) == 0
    assert len(qb.cq) == 1


def test_send_in_rnr_wait_is_flushed_when_peer_destroyed():
    """A SEND waiting for the peer to post a receive (the RNR wait)
    completes with a flush error on the sender's CQ once the peer is
    destroyed, instead of parking its process forever."""
    sim, fab, qa, qb = make_pair()
    qa.post_send("s", 100)
    sim.run()
    assert len(qa.cq) == 0
    assert any(p.name == f"qp{qa.qp_num}.send" for p in sim.live_processes())
    qb.destroy()
    sim.run()
    assert len(qa.cq) == 1
    wc = qa.cq.pending()[0]
    assert (wc.wr_id, wc.opcode, wc.ok) == ("s", "SEND", False)
    assert "flushed" in str(wc.error)
    assert not any(p.name.startswith("qp") for p in sim.live_processes())


def test_send_in_flight_is_flushed_when_own_qp_destroyed():
    """A SEND whose bytes are still on the wire when its own QP is torn
    down completes with a flush error rather than waiting on a peer that
    is gone."""
    sim, fab, qa, qb = make_pair()
    qb.post_recv("r")
    qa.post_send("s", 10**9)
    sim.run(until=sim.now + 1e-4)
    qa.destroy()
    sim.run()
    wc = qa.cq.pending()[-1]
    assert (wc.wr_id, wc.opcode, wc.ok) == ("s", "SEND", False)
    assert not any(p.name.startswith("qp") for p in sim.live_processes())


def test_double_destroy_is_idempotent():
    sim, fab, qa, qb = make_pair()
    qa.destroy()
    qa.destroy()  # must not raise
    assert qa.state is QPState.RESET


def test_rdma_on_destroyed_qp_errors():
    sim, fab, qa, qb = make_pair()
    qa.destroy()
    qa.post_rdma_read("r", 1, 0, 10)

    def poll(sim):
        return (yield qa.cq.poll())

    p = sim.spawn(poll(sim))
    sim.run()
    assert not p.value.ok
    assert "RESET" in str(p.value.error)


def test_completion_error_wraps_wc():
    wc = WorkCompletion("id1", "SEND", ok=False, error=RuntimeError("x"))
    with pytest.raises(CompletionError) as exc:
        wc.raise_on_error()
    assert exc.value.wc is wc
    ok = WorkCompletion("id2", "SEND", ok=True)
    assert ok.raise_on_error() is ok


def test_interleaved_sends_and_rdma_share_qp_in_order():
    """Mixed WQEs on one QP process in post order (RC semantics)."""
    sim, fab, qa, qb = make_pair()
    order = []

    def driver(sim):
        mr = yield from qb.hca.register_mr(1024)
        qb.post_recv("r1")
        qa.post_send("s1", 512)
        qa.post_rdma_read("rd1", mr.rkey, 0, 1024)
        qa.post_send("s2", 256)
        qb.post_recv("r2")
        for _ in range(3):
            wc = yield qa.cq.poll()
            order.append(wc.wr_id)

    sim.run(until=sim.spawn(driver(sim)))
    assert order == ["s1", "rd1", "s2"]


def test_many_small_messages_throughput_sane():
    sim, fab, qa, qb = make_pair()

    def driver(sim):
        for i in range(100):
            qb.post_recv(("r", i))
            qa.post_send(("s", i), 64)
            wc = yield qa.cq.poll(wr_id=("s", i))
            assert wc.ok

    sim.run(until=sim.spawn(driver(sim)))
    # Dominated by per-message latency + WQE overhead, not bandwidth.
    per_msg = sim.now  # includes the connect before t=0 measurement
    assert sim.now < 100 * 10 * fab.params.latency
