"""Tests for the FTB backplane: matching, flooding, self-healing."""

import pytest

from repro.simulate import Simulator, Tracer
from repro.network import EthernetFabric
from repro.ftb import (
    FTB_MIGRATE,
    FTB_RESTART,
    FTBBackplane,
    FTBClient,
    match_mask,
)


def make(n_nodes=5, fanout=2):
    sim = Simulator()
    fab = EthernetFabric(sim)
    nodes = ["login"] + [f"node{i}" for i in range(n_nodes - 1)]
    bp = FTBBackplane(sim, fab, nodes, root_node="login", fanout=fanout)
    return sim, fab, bp


# ----------------------------------------------------------------- matching
@pytest.mark.parametrize("mask,name,expected", [
    ("*", "FTB.ANYTHING", True),
    ("FTB.MPI.*", "FTB.MPI.MVAPICH2.MIGRATE", True),
    ("FTB.MPI.*", "FTB.MPI", True),
    ("FTB.MPI.*", "FTB.MPIX.OTHER", False),
    ("FTB.MPI.MVAPICH2.MIGRATE", "FTB.MPI.MVAPICH2.MIGRATE", True),
    ("FTB.MPI.MVAPICH2.MIGRATE", "FTB.MPI.MVAPICH2.RESTART", False),
    ("FTB.HW*", "FTB.HW.IPMI.ALARM", True),
])
def test_mask_matching(mask, name, expected):
    assert match_mask(mask, name) is expected


# ----------------------------------------------------------------- topology
def test_tree_built_with_fanout():
    sim, fab, bp = make(n_nodes=7, fanout=2)
    assert bp.root.node == "login"
    assert len(bp.root.children) == 2
    assert bp.is_connected()
    assert len(bp.agents) == 7


def test_backplane_validation():
    sim = Simulator()
    fab = EthernetFabric(sim)
    with pytest.raises(ValueError):
        FTBBackplane(sim, fab, [])
    with pytest.raises(ValueError):
        FTBBackplane(sim, fab, ["a"], root_node="zzz")
    bp = FTBBackplane(sim, fab, ["a"])
    with pytest.raises(KeyError):
        bp.agent("nope")


# ----------------------------------------------------------------- pub/sub
def test_publish_reaches_all_subscribers():
    sim, fab, bp = make(n_nodes=6, fanout=2)
    received = {}
    clients = []
    for i in range(5):
        cl = FTBClient(bp, f"node{i}", name=f"nla.node{i}")
        sub = cl.subscribe("FTB.MPI.*")
        clients.append((cl, sub))
        received[f"node{i}"] = []

    def publisher(sim):
        jm = FTBClient(bp, "login", name="job-manager")
        yield from jm.publish(FTB_MIGRATE, payload={"source": "node3",
                                                    "target": "spare0"})

    def listener(sim, name, sub):
        ev = yield sub.queue.get()
        received[name].append((ev.name, ev.payload["source"], sim.now))

    sim.spawn(publisher(sim))
    for cl, sub in clients:
        sim.spawn(listener(sim, cl.node, sub))
    sim.run()
    for i in range(5):
        msgs = received[f"node{i}"]
        assert len(msgs) == 1
        assert msgs[0][0] == FTB_MIGRATE
        assert msgs[0][1] == "node3"
        assert msgs[0][2] > 0  # delivery costs time


def test_non_matching_subscription_not_delivered():
    sim, fab, bp = make()
    cl = FTBClient(bp, "node0", name="x")
    sub_hw = cl.subscribe("FTB.HW.*")
    sub_mpi = cl.subscribe("FTB.MPI.*")

    def publisher(sim):
        jm = FTBClient(bp, "login", name="jm")
        yield from jm.publish(FTB_RESTART, payload={})

    sim.spawn(publisher(sim))
    sim.run()
    assert len(sub_hw.queue) == 0
    assert len(sub_mpi.queue) == 1


def test_local_subscriber_on_publishing_node():
    sim, fab, bp = make()
    cl = FTBClient(bp, "login", name="local")
    sub = cl.subscribe("*")

    def publisher(sim):
        yield from cl.publish("FTB.TEST.PING")

    sim.spawn(publisher(sim))
    sim.run()
    assert len(sub.queue) == 1


def test_event_deduplicated_once_per_agent():
    sim, fab, bp = make(n_nodes=6, fanout=2)
    cl = FTBClient(bp, "node4", name="leaf")
    sub = cl.subscribe("*")

    def publisher(sim):
        jm = FTBClient(bp, "login", name="jm")
        yield from jm.publish("FTB.TEST.ONCE")

    sim.spawn(publisher(sim))
    sim.run()
    assert len(sub.queue) == 1  # flooding must not duplicate delivery


def test_callback_subscription():
    sim, fab, bp = make()
    hits = []
    cl = FTBClient(bp, "node1", name="cb")
    sub = cl.subscribe("FTB.MPI.*", callback=lambda ev: hits.append(ev.name))

    def publisher(sim):
        jm = FTBClient(bp, "login", name="jm")
        yield from jm.publish(FTB_MIGRATE)

    sim.spawn(publisher(sim))
    sim.run()
    assert hits == [FTB_MIGRATE]
    assert len(sub.queue) == 0  # push-style: the queue is never filled


def test_unsubscribe_stops_delivery():
    sim, fab, bp = make()
    cl = FTBClient(bp, "node0", name="x")
    sub = cl.subscribe("*")
    cl.unsubscribe(sub)

    def publisher(sim):
        jm = FTBClient(bp, "login", name="jm")
        yield from jm.publish("FTB.TEST")

    sim.spawn(publisher(sim))
    sim.run()
    assert len(sub.queue) == 0


def test_publish_nowait_from_callback_context():
    sim, fab, bp = make()
    cl = FTBClient(bp, "node0", name="x")
    sub = cl.subscribe("*")
    jm = FTBClient(bp, "login", name="jm")
    jm.publish_nowait("FTB.TEST.NOW")
    sim.run()
    assert len(sub.queue) == 1


# ----------------------------------------------------------------- agent FIFO
def test_same_instant_events_routed_route_cost_apart_in_order():
    """An agent routes one event at a time: two events submitted in the
    same instant are delivered ``route_cost`` apart, first come first."""
    sim, fab, bp = make()
    hits = []
    cl = FTBClient(bp, "login", name="local")
    cl.subscribe("*", callback=lambda ev: hits.append((ev.name, sim.now)))
    cl.publish_nowait("FTB.TEST.FIRST")
    cl.publish_nowait("FTB.TEST.SECOND")
    sim.run()
    route = bp.params.route_cost
    assert [name for name, _ in hits] == ["FTB.TEST.FIRST", "FTB.TEST.SECOND"]
    assert hits[0][1] == route
    assert hits[1][1] == route + route


def test_flood_spawns_no_process():
    """Flooding a publish through the tree runs on callbacks: no process
    per agent or per hop, and no ``spawn`` record."""
    sim = Simulator(trace=Tracer())
    fab = EthernetFabric(sim)
    nodes = ["login"] + [f"node{i}" for i in range(6)]
    bp = FTBBackplane(sim, fab, nodes, root_node="login", fanout=2)
    subs = [FTBClient(bp, n, name=f"c.{n}").subscribe("*") for n in nodes]
    FTBClient(bp, "node5", name="pub").publish_nowait("FTB.TEST.FLOOD")
    sim.run()
    assert all(len(sub.queue) == 1 for sub in subs)
    assert not sim.live_processes()
    assert not list(sim.trace.of_kind("spawn"))
    assert len(list(sim.trace.of_kind("ftb.forward"))) == len(nodes) - 1


# ----------------------------------------------------------------- healing
def test_agent_failure_reparents_children():
    sim, fab, bp = make(n_nodes=7, fanout=2)
    victim = bp.root.children[0]
    orphans = list(victim.children)
    assert orphans
    victim.fail()
    sim.run(until=1.0)  # allow reconnect delay
    assert bp.is_connected()
    for child in orphans:
        assert child.parent is bp.root


def test_events_flow_after_healing():
    sim, fab, bp = make(n_nodes=7, fanout=2)
    victim = bp.root.children[0]
    leaf = victim.children[0] if victim.children else bp.root.children[1]
    cl = FTBClient(bp, leaf.node, name="leaf")
    sub = cl.subscribe("*")
    victim.fail()

    def publisher(sim):
        yield sim.timeout(1.0)  # after reconnection
        jm = FTBClient(bp, "login", name="jm")
        yield from jm.publish("FTB.TEST.AFTER_HEAL")

    sim.spawn(publisher(sim))
    sim.run()
    assert len(sub.queue) == 1
