"""The indexed completion queue against a filtered Store.

``CompletionQueue`` finds a completion by wr_id or opcode through its
indexes instead of scanning.  It must still grant exactly what a FIFO
:class:`~repro.simulate.resources.Store` with filter lambdas granted: the
same completion to the same poller, in the same order, at the same point
of the event sequence, through the same number of kernel events.
"""

import gc
import weakref

from hypothesis import given, settings, strategies as st

from repro.network import CompletionQueue, WorkCompletion
from repro.network.infiniband import VerbsCounters
from repro.simulate import Simulator, Store

WR_IDS = [0, 1, 2, ("pull", 0), ("pull", 1)]
OPCODES = ["SEND", "RECV", "RDMA_READ"]


class FilteredStoreCQ:
    """The completion queue as a filtered Store: a scan per poll."""

    def __init__(self, sim):
        self._store = Store(sim)

    def push(self, wc):
        self._store.put(wc)

    def poll(self, wr_id=None, opcode=None):
        if wr_id is not None:
            return self._store.get(filter=lambda wc: wc.wr_id == wr_id)
        if opcode is not None:
            return self._store.get(filter=lambda wc: wc.opcode == opcode)
        return self._store.get()

    def pending(self):
        return list(self._store.items)


def _indexed(sim):
    return CompletionQueue(sim, "cq.t", 0, VerbsCounters(sim.metrics))


OPS = st.lists(st.one_of(
    st.tuples(st.just("push"), st.sampled_from(WR_IDS),
              st.sampled_from(OPCODES)),
    st.tuples(st.just("poll"), st.none(), st.none()),
    st.tuples(st.just("poll"), st.sampled_from(WR_IDS), st.none()),
    st.tuples(st.just("poll"), st.none(), st.sampled_from(OPCODES)),
    st.tuples(st.just("step"), st.none(), st.none()),
), max_size=60)


def _replay(make_cq, ops):
    """Apply ``ops``; return the grants as (poller, completion, events
    processed before it) in the order the kernel delivered them, what is
    left, and the event count."""
    sim = Simulator()
    cq = make_cq(sim)
    grants = []
    pushed = polls = 0
    for op, a, b in ops:
        if op == "push":
            cq.push(WorkCompletion(a, b, ok=True, nbytes=pushed))
            pushed += 1
        elif op == "poll":
            ev = cq.poll(wr_id=a, opcode=b)
            ev.callbacks.append(lambda ev, n=polls: grants.append(
                (n, ev.value.nbytes, sim.events_processed)))
            polls += 1
        else:
            sim.run()
    sim.run()
    left = [(wc.wr_id, wc.opcode, wc.nbytes) for wc in cq.pending()]
    return grants, left, sim.events_processed


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_indexed_cq_grants_what_a_filtered_store_granted(ops):
    assert _replay(_indexed, ops) == _replay(FilteredStoreCQ, ops)


class _Key:
    """A hashable wr_id that can be watched for collection."""

    def __init__(self, n):
        self.n = n

    def __hash__(self):
        return hash(self.n)

    def __eq__(self, other):
        return isinstance(other, _Key) and other.n == self.n


def test_a_taken_completion_leaves_every_index():
    sim = Simulator()
    cq = _indexed(sim)
    key = _Key(7)
    wc = WorkCompletion(key, "RDMA_READ", ok=True, nbytes=1)
    refs = [weakref.ref(key), weakref.ref(wc)]
    cq.push(WorkCompletion(0, "SEND", ok=True))  # stays queued
    cq.push(wc)
    ev = cq.poll(wr_id=_Key(7))
    del key, wc
    gc.disable()
    try:
        sim.run()
        assert ev.value.nbytes == 1
        del ev
        # Nothing in the queue keeps the completion or its wr_id.
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
    assert [wc.opcode for wc in cq.pending()] == ["SEND"]


class _WatchedCompletion(WorkCompletion):
    """A completion that fails the test if anything reads its keys."""

    watched = False

    def __getattribute__(self, name):
        if name in ("wr_id", "opcode") and object.__getattribute__(
                self, "watched"):
            raise AssertionError(f"a poll scanned a queued completion "
                                 f"({name})")
        return object.__getattribute__(self, name)


def test_polls_do_not_scan_unpolled_completions():
    """A backlog nobody polls (a session's SEND completions) is never
    read by a poll for another wr_id or opcode."""
    sim = Simulator()
    cq = _indexed(sim)
    backlog = [_WatchedCompletion(("send", i), "SEND", ok=True)
               for i in range(200)]
    for wc in backlog:
        cq.push(wc)
        wc.watched = True
    got = []

    def poller(sim):
        for i in range(50):
            cq.push(WorkCompletion(("rx", i), "RECV", ok=True))
            got.append((yield cq.poll(opcode="RECV")).wr_id)
            ev = cq.poll(wr_id=("pull", i))
            cq.push(WorkCompletion(("pull", i), "RDMA_READ", ok=True))
            got.append((yield ev).wr_id)

    sim.run(until=sim.spawn(poller(sim)))
    assert got[:4] == [("rx", 0), ("pull", 0), ("rx", 1), ("pull", 1)]
    assert len(got) == 100
    assert len(cq) == 200
