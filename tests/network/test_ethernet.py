"""Tests for the GigE fabric."""

import pytest

from repro.simulate import Simulator
from repro.network import EthernetFabric


def make():
    sim = Simulator()
    fab = EthernetFabric(sim)
    return sim, fab


def test_attach_idempotent():
    sim, fab = make()
    p1 = fab.attach("n0")
    p2 = fab.attach("n0")
    assert p1 is p2


def test_transfer_time_wire_limited():
    sim, fab = make()
    fab.attach("a"), fab.attach("b")
    nbytes = 118e6  # one second of wire at 118 MB/s
    done = fab.transfer("a", "b", nbytes)
    sim.run(until=done)
    assert sim.now == pytest.approx(1.0 + fab.params.latency, rel=1e-3)


def test_unattached_node_rejected():
    sim, fab = make()
    fab.attach("a")
    with pytest.raises(KeyError):
        fab.transfer("a", "ghost", 10)


def test_copy_link_shared_on_one_host():
    """Two outgoing streams from one host halve each other's copy budget
    only when the copy link is the bottleneck; here the wire is, so both
    still take ~2 s for 1 s of wire each."""
    sim, fab = make()
    for n in ("a", "b", "c"):
        fab.attach(n)
    nbytes = 118e6
    d1 = fab.transfer("a", "b", nbytes)
    d2 = fab.transfer("a", "c", nbytes)
    sim.run(until=sim.all_of([d1, d2]))
    # Shared a.tx wire: 59 MB/s each -> 2 s.
    assert sim.now == pytest.approx(2.0, rel=1e-2)


def test_bytes_sent_accounting():
    sim, fab = make()
    fab.attach("a"), fab.attach("b")
    done = fab.transfer("a", "b", 12345.0)
    sim.run(until=done)
    assert fab.bytes_sent == 12345.0

