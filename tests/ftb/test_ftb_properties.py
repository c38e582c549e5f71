"""Property-based tests for the FTB backplane (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftb import FTBBackplane, FTBClient, match_mask
from repro.network import EthernetFabric
from repro.simulate import Simulator

_name_part = st.text(alphabet="ABCDEFG", min_size=1, max_size=4)
_event_name = st.lists(_name_part, min_size=1, max_size=4).map(".".join)


@given(name=_event_name)
@settings(max_examples=100)
def test_star_matches_everything(name):
    assert match_mask("*", name)


@given(parts=st.lists(_name_part, min_size=2, max_size=4))
@settings(max_examples=100)
def test_prefix_mask_matches_own_subtree(parts):
    name = ".".join(parts)
    for k in range(1, len(parts)):
        mask = ".".join(parts[:k]) + ".*"
        assert match_mask(mask, name), (mask, name)
    # A sibling prefix must not match.
    alien = ".".join(["ZZZ"] + parts[1:]) + ".*"
    assert not match_mask(alien, name) or parts[0] == "ZZZ"


@given(name=_event_name)
@settings(max_examples=60)
def test_exact_mask_is_identity(name):
    assert match_mask(name, name)
    assert not match_mask(name, name + ".MORE")


@given(n_nodes=st.integers(min_value=2, max_value=12),
       fanout=st.integers(min_value=1, max_value=4),
       publisher_idx=st.integers(min_value=0, max_value=11))
@settings(max_examples=25, deadline=None)
def test_exactly_once_delivery_any_tree_shape(n_nodes, fanout, publisher_idx):
    """Flood + dedup: every subscriber gets each event exactly once, no
    matter the tree shape or where it was published."""
    sim = Simulator()
    fab = EthernetFabric(sim)
    nodes = [f"n{i}" for i in range(n_nodes)]
    bp = FTBBackplane(sim, fab, nodes, fanout=fanout)
    subs = {}
    for node in nodes:
        cl = FTBClient(bp, node, name=f"c.{node}")
        subs[node] = cl.subscribe("FTB.*")
    src = nodes[publisher_idx % n_nodes]

    def publisher(sim):
        cl = FTBClient(bp, src, name="pub")
        yield from cl.publish("FTB.TEST.EVENT", payload={"k": 1})
        yield from cl.publish("FTB.TEST.EVENT2")

    sim.spawn(publisher(sim))
    sim.run()
    for node, sub in subs.items():
        assert len(sub.queue) == 2, node
        names = sorted(m.name for m in sub.queue.items)
        assert names == ["FTB.TEST.EVENT", "FTB.TEST.EVENT2"]


@given(kill_idx=st.integers(min_value=1, max_value=10))
@settings(max_examples=15, deadline=None)
def test_tree_survives_any_single_agent_failure(kill_idx):
    sim = Simulator()
    fab = EthernetFabric(sim)
    nodes = [f"n{i}" for i in range(11)]
    bp = FTBBackplane(sim, fab, nodes, fanout=2)
    victim = bp.agent(nodes[kill_idx])
    victim.fail()
    sim.run(until=1.0)
    assert bp.is_connected()
    # Events still reach every live agent.
    leaf = [a for a in bp.alive_agents() if a is not bp.root][-1]
    cl = FTBClient(bp, leaf.node, name="leaf")
    sub = cl.subscribe("*")

    def pub(sim):
        jm = FTBClient(bp, bp.root.node, name="jm")
        yield from jm.publish("FTB.AFTER")

    sim.spawn(pub(sim))
    sim.run()
    assert len(sub.queue) == 1


def _published_ids(n):
    """Ids of ``n`` events published through a fresh backplane."""
    sim = Simulator()
    bp = FTBBackplane(sim, EthernetFabric(sim), ["n0", "n1"])
    cl = FTBClient(bp, "n1", name="pub")
    ids = [cl.publish_nowait("FTB.X").event_id for _ in range(n // 2)]

    def publisher(sim):
        for _ in range(n - n // 2):
            event = yield from cl.publish("FTB.X")
            ids.append(event.event_id)

    sim.spawn(publisher(sim))
    sim.run()
    return ids


def test_event_ids_unique():
    """Ids published through one backplane are distinct, and a backplane
    in a fresh simulation numbers its events from 0 again."""
    ids = _published_ids(100)
    assert len(set(ids)) == 100
    assert _published_ids(100) == ids
    assert min(ids) == 0
