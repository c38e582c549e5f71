"""Tests for the fluid max-min fair bandwidth engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulate import Simulator
from repro.network.fluid import (_EPS_RATE, FluidNetwork, Link,
                                 stream_efficiency)


def make(sim=None):
    sim = sim or Simulator()
    return sim, FluidNetwork(sim)


def test_single_flow_full_bandwidth():
    sim, net = make()
    link = Link("l", capacity=100.0)
    done = net.transfer([link], 1000.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0, rel=1e-6)


def test_latency_added_after_drain():
    sim, net = make()
    link = Link("l", capacity=100.0)
    done = net.transfer([link], 1000.0, latency=2.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(12.0, rel=1e-6)


def test_zero_byte_transfer_is_latency_only():
    sim, net = make()
    link = Link("l", capacity=100.0)
    done = net.transfer([link], 0.0, latency=0.5)
    sim.run(until=done)
    assert sim.now == pytest.approx(0.5)


def test_two_equal_flows_share_fairly():
    sim, net = make()
    link = Link("l", capacity=100.0)
    d1 = net.transfer([link], 1000.0)
    d2 = net.transfer([link], 1000.0)
    sim.run(until=sim.all_of([d1, d2]))
    # Each gets 50 B/s -> both finish at t=20.
    assert sim.now == pytest.approx(20.0, rel=1e-6)


def test_short_flow_finishes_then_long_flow_speeds_up():
    sim, net = make()
    link = Link("l", capacity=100.0)
    short = net.transfer([link], 500.0)
    long = net.transfer([link], 1500.0)
    t_short = sim.run(until=short) or sim.now
    assert sim.now == pytest.approx(10.0, rel=1e-6)  # 500 at 50 B/s
    sim.run(until=long)
    # long had 1000 left at t=10, then gets full 100 B/s -> +10 s.
    assert sim.now == pytest.approx(20.0, rel=1e-6)


def test_late_joiner_slows_existing_flow():
    sim, net = make()
    link = Link("l", capacity=100.0)
    results = {}

    def starter(sim):
        d1 = net.transfer([link], 1000.0)
        yield d1
        results["first"] = sim.now

    def joiner(sim):
        yield sim.timeout(5.0)
        d2 = net.transfer([link], 1000.0)
        yield d2
        results["second"] = sim.now

    sim.spawn(starter(sim))
    sim.spawn(joiner(sim))
    sim.run()
    # First flow: 500 B in [0,5] at 100 B/s, then 500 B at 50 B/s -> t=15.
    assert results["first"] == pytest.approx(15.0, rel=1e-6)
    # Second: 500 B by t=15, remaining 500 at 100 B/s -> t=20.
    assert results["second"] == pytest.approx(20.0, rel=1e-6)


def test_multi_link_path_bottleneck():
    sim, net = make()
    fast = Link("fast", capacity=1000.0)
    slow = Link("slow", capacity=10.0)
    done = net.transfer([fast, slow], 100.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0, rel=1e-6)


def test_max_min_fairness_with_bottleneck_and_free_flow():
    """Two flows share link A; one also crosses tight link B.

    Max-min: flow2 is capped at 10 by B; flow1 then gets the A residual 90.
    """
    sim, net = make()
    a = Link("a", capacity=100.0)
    b = Link("b", capacity=10.0)
    f1 = net.transfer([a], 900.0)
    f2 = net.transfer([a, b], 100.0)
    sim.run(until=sim.all_of([f1, f2]))
    assert sim.now == pytest.approx(10.0, rel=1e-6)  # both finish together here


def test_water_filling_rates_snapshot():
    sim, net = make()
    a = Link("a", capacity=100.0)
    b = Link("b", capacity=10.0)
    net.transfer([a], 1e9)
    net.transfer([a, b], 1e9)
    sim.run(until=sim.now)  # rates are filled at the end of the instant
    flows = sorted(net._flows, key=lambda f: len(f.path))
    assert flows[0].rate == pytest.approx(90.0, rel=1e-6)
    assert flows[1].rate == pytest.approx(10.0, rel=1e-6)


def test_disjoint_flows_do_not_interact():
    sim, net = make()
    l1, l2 = Link("l1", 100.0), Link("l2", 100.0)
    d1 = net.transfer([l1], 1000.0)
    d2 = net.transfer([l2], 1000.0)
    sim.run(until=sim.all_of([d1, d2]))
    assert sim.now == pytest.approx(10.0, rel=1e-6)


def test_bytes_accounting_on_links():
    sim, net = make()
    link = Link("l", capacity=100.0)
    d1 = net.transfer([link], 300.0)
    d2 = net.transfer([link], 700.0)
    sim.run(until=sim.all_of([d1, d2]))
    assert link.bytes_carried == 1000.0


def test_efficiency_curve_degrades_capacity():
    sim, net = make()
    # 50% efficiency at 2 streams.
    link = Link("l", capacity=100.0,
                efficiency=stream_efficiency(per_stream=0.5, floor=0.1))
    d1 = net.transfer([link], 500.0)
    d2 = net.transfer([link], 500.0)
    sim.run(until=sim.all_of([d1, d2]))
    # Effective capacity 50 shared by 2 -> 25 B/s each -> 20 s.
    assert sim.now == pytest.approx(20.0, rel=1e-6)


def test_stream_efficiency_floor():
    curve = stream_efficiency(per_stream=0.1, floor=0.4)
    assert curve(1) == 1.0
    assert curve(2) == pytest.approx(0.9)
    assert curve(100) == pytest.approx(0.4)


def test_invalid_inputs():
    sim, net = make()
    link = Link("l", 100.0)
    with pytest.raises(ValueError):
        Link("bad", 0.0)
    with pytest.raises(ValueError):
        net.transfer([link], -1.0)
    with pytest.raises(ValueError):
        net.transfer([], 10.0)
    with pytest.raises(ValueError):
        net.transfer([link, Link("m", 100.0), link], 10.0)


def test_transfer_event_value_is_flow():
    sim, net = make()
    link = Link("l", 100.0)
    done = net.transfer([link], 100.0, label="probe")
    flow = sim.run(until=done)
    assert flow.label == "probe"
    assert flow.remaining == 0.0


def test_many_concurrent_flows_conservation():
    sim, net = make()
    link = Link("l", capacity=123.0)
    sizes = [10.0 * (i + 1) for i in range(20)]
    events = [net.transfer([link], s) for s in sizes]
    sim.run(until=sim.all_of(events))
    assert link.bytes_carried == sum(sizes)
    assert net.active_flows == 0


# -- one fill per component per instant ------------------------------------

def _start_population(fill_each):
    """One flow already running, then four transfers started at t=1: two
    that join its component, one zero-byte, one on a disjoint island.
    ``fill_each`` ends the instant after every start, forcing the fill an
    immediate engine would run there.  -> (net, per-transfer completion
    times, rates after the starts, fills the starts cost)."""
    sim, net = make()
    a, c = Link("a", 100.0), Link("c", 80.0)
    b = Link("b", 60.0, efficiency=stream_efficiency(0.1, 0.5))
    island = Link("island", 40.0)
    net.transfer([a], 500.0)
    sim.run(until=1.0)
    specs = [([a, b], 300.0, "x"), ([island], 200.0, "i"),
             ([c], 0.0, "z"), ([b, c], 700.0, "y")]
    done = {}

    def waiter(sim, ev, label):
        flow = yield ev
        done[label] = (sim.now.hex(), flow is None)

    before = net.stats.recomputes
    for path, n, label in specs:
        sim.spawn(waiter(sim, net.transfer(path, n, latency=0.25,
                                           label=label), label))
        if fill_each:
            sim.run(until=sim.now)
    sim.run(until=sim.now)
    fills = net.stats.recomputes - before
    rates = [f.rate.hex() for f in sorted(net._flows, key=lambda f: f.seq)]
    sim.run()
    return net, done, rates, fills


def test_back_to_back_transfers_fill_each_component_once():
    """Transfers started at one instant get one fill per touched component,
    with bit-identical rates and completion times to a fill per start."""
    net_each, done_each, rates_each, fills_each = _start_population(True)
    net, done, rates, fills = _start_population(False)
    assert rates == rates_each and len(rates) == 4
    assert done == done_each
    assert fills_each == 3  # one fill per non-empty transfer
    assert fills == 2  # one per component: a/b/c and the island
    # The zero-byte transfer is latency-only and carries no flow.
    assert done["z"] == ((1.0 + 0.25).hex(), True)
    assert net.active_flows == 0 and net.active_components == 0


# -- component scoping ------------------------------------------------------

def test_disjoint_flows_form_separate_components():
    sim, net = make()
    l1, l2 = Link("l1", 100.0), Link("l2", 100.0)
    net.transfer([l1], 1000.0)
    net.transfer([l2], 1000.0)
    assert net.active_components == 2
    sim.run()
    assert net.active_components == 0
    assert l1.component is None and l2.component is None


def test_shared_link_merges_components():
    sim, net = make()
    a, b, shared = Link("a", 100.0), Link("b", 100.0), Link("s", 50.0)
    net.transfer([a], 1000.0)
    net.transfer([b], 1000.0)
    assert net.active_components == 2
    # A third flow bridging both private links fuses everything.
    net.transfer([a, shared, b], 1000.0)
    assert net.active_components == 1
    assert net.stats.merges == 1
    sim.run()
    assert net.active_components == 0


def test_component_splits_when_bridge_flow_finishes():
    sim, net = make()
    a, b = Link("a", 100.0), Link("b", 100.0)
    net.transfer([a], 10_000.0)
    net.transfer([b], 10_000.0)
    bridge = net.transfer([a, b], 10.0)  # finishes almost immediately
    assert net.active_components == 1
    sim.run(until=bridge)  # completion guard has already re-partitioned
    assert net.active_components == 2
    assert net.stats.splits >= 1
    sim.run()


def _count_partitions(net):
    calls = []

    def partition(comp):
        calls.append(len(comp.flows))
        return FluidNetwork._partition(comp)

    net._partition = partition
    return calls


def test_batch_completion_reads_anchors_after_the_whole_batch():
    """Two flows finish at one instant and link x goes idle only on the
    second.  The long s-t flow still joins s and t, so the component stays
    whole without a re-partition, and x leaves it."""
    sim, net = make()
    x, s, t = Link("x", 100.0), Link("s", 100.0), Link("t", 100.0)
    calls = _count_partitions(net)
    f1 = net.transfer([x, s], 100.0)
    f2 = net.transfer([x, t], 100.0)
    net.transfer([s, t], 10_000.0)
    sim.run(until=sim.all_of([f1, f2]))
    sim.run(until=sim.now)  # end the instant: the completion's refill
    assert sim.now == 2.0  # every flow ran at 50 B/s; f1 and f2 tie
    assert net.stats.recomputes == 2  # the three starts, one completion
    (comp,) = net._components
    assert comp.links == {s, t} and x.component is None
    assert calls == [] and net.stats.splits == 0
    assert x.bytes_carried == 200.0 and s.bytes_carried == 100.0
    sim.run()


def test_bridge_completion_still_splits_through_partition():
    sim, net = make()
    a, b = Link("a", 100.0), Link("b", 100.0)
    calls = _count_partitions(net)
    net.transfer([a], 10_000.0)
    net.transfer([b], 10_000.0)
    bridge = net.transfer([a, b], 10.0)
    sim.run(until=bridge)
    assert calls == [2]
    assert net.stats.splits == 1 and net.active_components == 2
    sim.run()


@st.composite
def _completion_batches(draw):
    """Flows over random subsets of a few links, and which of them finish."""
    n_links = draw(st.integers(min_value=2, max_value=8))
    paths = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=n_links - 1),
                 min_size=1, max_size=3, unique=True),
        min_size=2, max_size=16))
    finished = draw(st.lists(st.booleans(), min_size=len(paths),
                             max_size=len(paths)))
    return n_links, paths, finished


@given(case=_completion_batches())
@settings(max_examples=200, deadline=None)
def test_connectivity_check_agrees_with_partition(case):
    """Removing any batch of flows from any component: the anchor walk says
    "connected" exactly when the full partition finds one piece."""
    n_links, paths, finished = case
    sim, net = make()
    links = [Link(f"l{i}", 100.0) for i in range(n_links)]
    for k, path in enumerate(paths):
        net.transfer([links[i] for i in path], 1e6, label=str(k))
    for comp in list(net._components):
        done = [f for f in comp.flows if finished[int(f.label)]]
        if len(done) == len(comp.flows):
            continue
        for flow in done:
            comp.flows.discard(flow)
            for link in flow.path:
                link.flows.discard(flow)
        pieces = FluidNetwork._partition(comp)
        assert net._still_connected(done) == (len(pieces) == 1)


def _finish(paths, done_paths):
    """One component of flows over ``paths``; the ``done_paths`` flows
    leave it the way a completion removes them.  Returns the finished
    flows and the component."""
    sim, net = make()
    names = sorted({name for path in paths + done_paths for name in path})
    links = {name: Link(name, 100.0) for name in names}
    flows = [net.transfer([links[n] for n in path], 1e6, label=str(k))
             for k, path in enumerate(paths + done_paths)]
    (comp,) = net._components
    done = [f for f in comp.flows if int(f.label) >= len(paths)]
    assert len(done) == len(done_paths) and len(flows) == len(comp.flows)
    for flow in done:
        comp.flows.discard(flow)
        for link in flow.path:
            link.flows.discard(flow)
    return done, comp


def test_connectivity_walk_decides_when_no_survivor_crosses_the_hub():
    """The finished flow crossed anchors a and c once each; no survivor
    on the other anchor crosses the hub, so the shortcut cannot answer,
    and the walk finds a -> b -> c connected."""
    done, comp = _finish([["a", "b"], ["b", "c"]], [["a", "c"]])
    assert FluidNetwork._still_connected(done)
    assert len(FluidNetwork._partition(comp)) == 1


def test_connectivity_check_finds_a_split():
    done, comp = _finish([["a"], ["c"]], [["a", "c"]])
    assert not FluidNetwork._still_connected(done)
    assert len(FluidNetwork._partition(comp)) == 2


def test_connectivity_shortcut_through_the_hub():
    """Three finished flows crossed b; a survivor on each other anchor
    crosses b too."""
    done, comp = _finish([["a", "b"], ["b", "c"], ["b", "d"]],
                         [["a", "b"], ["b", "c"], ["b", "d"]])
    assert FluidNetwork._still_connected(done)
    assert len(FluidNetwork._partition(comp)) == 1


def test_disjoint_recomputes_do_not_visit_other_components():
    """Work scoping: events in one component never walk the other's flows."""
    sim, net = make()
    l1, l2 = Link("l1", 100.0), Link("l2", 100.0)
    for _ in range(8):
        net.transfer([l1], 1000.0)
    sim.run(until=sim.now)
    baseline = net.stats.flows_visited
    net.transfer([l2], 1000.0)
    sim.run(until=sim.now)
    # The new flow's recompute visited exactly itself, not the 8 others.
    assert net.stats.flows_visited == baseline + 1
    assert net.stats.peak_component_size == 8
    sim.run()
    # And every recompute visited fewer flows than a global engine would.
    assert net.stats.flows_visited < net.stats.global_flows_equiv


def test_stats_visits_per_recompute():
    sim, net = make()
    assert net.stats.recomputes == 0 and net.stats.flows_visited == 0
    link = Link("l", 100.0)
    net.transfer([link], 100.0)
    net.transfer([link], 100.0)
    sim.run(until=sim.now)
    # Both starts share one end-of-instant fill, which visits both flows.
    assert net.stats.recomputes == 1
    assert net.stats.flows_visited == 2
    assert net.stats.peak_component_size == 2
    sim.run()


def test_engine_stats_count_scoped_work():
    sim, net = make()
    l1, l2 = Link("l1", 100.0), Link("l2", 100.0)
    net.transfer([l1], 500.0)
    net.transfer([l2], 500.0)
    sim.run(until=sim.now)
    assert net.stats.recomputes == 2
    assert net.stats.flows_visited == 2  # scoped: each recompute saw 1 flow
    assert net.active_flows == 2
    assert net.active_components == 2
    assert net.stats.peak_component_size == 1
    sim.run()
    assert net.active_flows == 0
    assert net.stats.flows_visited <= net.stats.recomputes


def test_idle_link_component_pointer_cleared_when_flows_finish():
    """A link whose flows all completed must not glue later transfers to a
    still-running component it no longer belongs to."""
    sim, net = make()
    a, b = Link("a", 100.0), Link("b", 100.0)
    short = net.transfer([a, b], 10.0)
    net.transfer([b], 100_000.0)
    sim.run(until=short)  # guard fired: a goes idle, b keeps its flow
    assert a.component is None
    net.transfer([a], 1000.0)
    # a's new flow is independent of b's long-running one.
    assert net.active_components == 2
    sim.run()


def test_recompute_trace_records_component_size():
    from repro.simulate.trace import Tracer

    sim = Simulator(trace=Tracer())
    net = FluidNetwork(sim)
    link = Link("l", 100.0)
    net.transfer([link], 100.0)
    net.transfer([link], 100.0)
    sim.run(until=sim.now)
    recs = sim.trace.of_kind("fluid.recompute")
    assert len(recs) == 1  # one fill for both starts
    assert recs[0]["flows"] == 2
    sim.run()


# -- utilization ------------------------------------------------------------

def test_utilization_uses_effective_capacity():
    """A seek-thrashed disk at its efficiency floor is *saturated*: the
    allocation equals the degraded capacity, so utilization must read 1.0
    (dividing by raw capacity under-reported it as the floor value)."""
    sim, net = make()
    link = Link("l", capacity=100.0,
                efficiency=stream_efficiency(per_stream=0.3, floor=0.4))
    net.transfer([link], 1000.0)
    net.transfer([link], 1000.0)
    net.transfer([link], 1000.0)
    sim.run(until=sim.now)
    # 3 streams -> effective capacity 40, fully allocated.
    assert sum(f.rate for f in link.flows) == pytest.approx(40.0)
    assert link.utilization == pytest.approx(1.0)
    sim.run()


def test_utilization_without_efficiency_curve():
    sim, net = make()
    link = Link("l", capacity=100.0)
    net.transfer([link], 1000.0)
    sim.run(until=sim.now)
    assert link.utilization == pytest.approx(1.0)
    sim.run()
    assert link.utilization == 0.0


# -- max-min bottleneck property --------------------------------------------
#
# A max-min fill freezes every flow at the level where one of its links
# saturates, so each flow crosses a link whose utilization is 1.  That is
# why a "max link utilization" gauge read 1.0 after every fill and carried
# no information; this property guards ``_fill`` instead.

def _chain(eff):
    """Three links in a row; flows over one, two and three of them."""
    a, b, c = (Link("a", 100.0, eff), Link("b", 60.0, eff),
               Link("c", 250.0, eff))
    return [(0.0, [a], 4000.0), (0.0, [a, b], 900.0),
            (0.0, [b, c], 3000.0), (0.0, [c], 5000.0),
            (2.0, [a, b, c], 700.0), (6.0, [a, c], 1500.0)]


def _parking_lot(eff):
    """One long flow over every link, one short flow per link."""
    links = [Link(f"l{i}", 80.0 + 30.0 * i, eff) for i in range(4)]
    flows = [(0.0, links, 2000.0)]
    flows += [(1.0 * i, [link], 500.0 + 400.0 * i)
              for i, link in enumerate(links)]
    return flows


def _fan_in(eff):
    """PVFS-like: client ports into one server port and its disk."""
    server, disk = Link("server", 300.0), Link("disk", 200.0, eff)
    clients = [Link(f"c{i}", 50.0 + 25.0 * i) for i in range(6)]
    flows = [(0.0, [clients[0]], 600.0)]
    flows += [(0.5 * i, [port, server, disk], 800.0 + 100.0 * i)
              for i, port in enumerate(clients)]
    flows.append((3.0, [server], 400.0))
    return flows


@pytest.mark.parametrize("efficiency", [
    None, stream_efficiency(per_stream=0.15, floor=0.4)],
    ids=["flat", "efficiency-curve"])
@pytest.mark.parametrize("topology", [_chain, _parking_lot, _fan_in],
                         ids=["chain", "parking-lot", "fan-in"])
def test_every_flow_crosses_a_saturated_link_after_each_fill(topology,
                                                             efficiency):
    sim, net = make()
    spec = topology(efficiency)
    fills = []
    fill = net._fill

    def checked_fill(comp):
        fill(comp)
        for flow in comp.flows:
            utils = [link.utilization for link in flow.path]
            assert any(abs(u - 1.0) <= _EPS_RATE for u in utils), (flow, utils)
        fills.append(comp)

    net._fill = checked_fill

    def starter(sim):
        for start, path, nbytes in spec:
            if start > sim.now:
                yield sim.timeout(start - sim.now)
            net.transfer(path, nbytes)

    sim.spawn(starter(sim))
    sim.run()
    assert net.active_flows == 0
    # Starts at several instants plus completions: many fills checked.
    assert len(fills) >= len(spec)
