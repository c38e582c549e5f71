"""Property-based tests for the fluid bandwidth engine (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fluid import FluidNetwork, Link, stream_efficiency
from repro.simulate import Simulator


@given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e6,
                                allow_nan=False), min_size=1, max_size=15),
       capacity=st.floats(min_value=10.0, max_value=1e5, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_conservation_single_link(sizes, capacity):
    """Bytes in == bytes out, and total time >= sum(bytes)/capacity."""
    sim = Simulator()
    net = FluidNetwork(sim)
    link = Link("l", capacity)
    events = [net.transfer([link], s) for s in sizes]
    sim.run(until=sim.all_of(events))
    assert link.bytes_carried == pytest.approx(sum(sizes), rel=1e-6)
    assert sim.now >= sum(sizes) / capacity * (1 - 1e-9)
    assert net.active_flows == 0


@given(n_flows=st.integers(min_value=2, max_value=10),
       capacity=st.floats(min_value=100.0, max_value=1e4, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_equal_flows_finish_together(n_flows, capacity):
    """Max-min fairness: identical flows on one link share equally, so they
    complete at the same instant: n * size / capacity."""
    sim = Simulator()
    net = FluidNetwork(sim)
    link = Link("l", capacity)
    size = 1000.0
    done_times = []
    events = [net.transfer([link], size) for _ in range(n_flows)]

    def waiter(sim, ev):
        yield ev
        done_times.append(sim.now)

    for ev in events:
        sim.spawn(waiter(sim, ev))
    sim.run()
    expected = n_flows * size / capacity
    for t in done_times:
        assert t == pytest.approx(expected, rel=1e-6)


@given(caps=st.lists(st.floats(min_value=10.0, max_value=1000.0,
                               allow_nan=False), min_size=2, max_size=5))
@settings(max_examples=30, deadline=None)
def test_path_bottleneck_is_min_capacity(caps):
    sim = Simulator()
    net = FluidNetwork(sim)
    links = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    done = net.transfer(links, 5000.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(5000.0 / min(caps), rel=1e-6)


def reference_global_rates(flows):
    """The pre-component engine: progressive filling over the *entire*
    population at once.  Ground truth the scoped engine must reproduce."""
    rates = {f: 0.0 for f in flows}
    links = {}
    unfrozen_on = {}
    for f in flows:
        for link in f.path:
            if link not in links:
                links[link] = link.effective_capacity()
                unfrozen_on[link] = 0
            unfrozen_on[link] += 1
    unfrozen = set(flows)
    while unfrozen:
        inc = min(links[l] / unfrozen_on[l] for l in links if unfrozen_on[l] > 0)
        for f in unfrozen:
            rates[f] += inc
        saturated = []
        for l in links:
            n = unfrozen_on[l]
            if n > 0:
                links[l] -= inc * n
                if links[l] <= 1e-9 * l.capacity + 1e-9:
                    saturated.append(l)
        if not saturated:
            break
        frozen = {f for l in saturated for f in l.flows if f in unfrozen}
        unfrozen -= frozen
        for f in frozen:
            for link in f.path:
                unfrozen_on[link] -= 1
    return rates


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_component_scoped_rates_match_global_fill(seed):
    """The max-min allocation decomposes over connected components: for any
    random population the scoped engine's rates must equal a global
    progressive fill over all flows at once."""
    import numpy as np

    rng = np.random.default_rng(seed)
    sim = Simulator()
    net = FluidNetwork(sim)
    # Three islands of links plus occasional cross-island paths, so the
    # population has both disjoint components and merge-inducing flows.
    islands = [[Link(f"i{k}.l{i}", float(rng.uniform(50, 500)))
                for i in range(3)] for k in range(3)]
    flat = [l for isl in islands for l in isl]
    for _ in range(14):
        if rng.uniform() < 0.8:
            isl = islands[rng.integers(3)]
            idx = sorted(rng.choice(3, size=rng.integers(1, 3), replace=False))
            path = [isl[i] for i in idx]
        else:
            idx = sorted(rng.choice(9, size=2, replace=False))
            path = [flat[i] for i in idx]
        net.transfer(path, float(rng.uniform(100, 10_000)))
    sim.run(until=sim.now)  # rates are filled at the end of the instant
    expected = reference_global_rates(net._flows)
    for flow, rate in expected.items():
        assert flow.rate == pytest.approx(rate, rel=1e-9), flow.label
    sim.run()
    assert net.active_flows == 0
    assert net.active_components == 0


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=15, deadline=None)
def test_rates_never_exceed_capacity(seed):
    """Snapshot property: mid-simulation, every link's allocated rate sum
    stays within its effective capacity."""
    import numpy as np

    rng = np.random.default_rng(seed)
    sim = Simulator()
    net = FluidNetwork(sim)
    links = [Link(f"l{i}", float(rng.uniform(50, 500))) for i in range(4)]
    for _ in range(12):
        path = [links[i] for i in sorted(
            rng.choice(4, size=rng.integers(1, 4), replace=False))]
        net.transfer(path, float(rng.uniform(100, 10_000)))
    # Inspect the allocation right after setup, once it is filled.
    sim.run(until=sim.now)
    assert all(f.rate > 0 for f in net._flows)
    for link in links:
        allocated = sum(f.rate for f in link.flows)
        assert allocated <= link.effective_capacity() * (1 + 1e-9)
    sim.run()
    for link in links:
        assert not link.flows


class _CheckedNetwork(FluidNetwork):
    """Checks every component fill against the per-flow progressive fill.

    ``reference_global_rates`` over one component's flows is the fill this
    engine ran before the water-level rewrite: rates start at zero and
    every unfrozen flow gains each round's increment.  The water level
    must reproduce those floats exactly, not approximately.  It also
    checks that no component is filled twice at one simulated time.
    """

    def __init__(self, sim):
        super().__init__(sim)
        self.fills = self.multi_round = 0
        self.filled = set()

    def _fill(self, comp):
        key = (self.sim.now, comp)
        assert key not in self.filled, f"{comp!r} filled twice at {key[0]}"
        self.filled.add(key)
        super()._fill(comp)
        expected = reference_global_rates(comp.flows)
        for flow, rate in expected.items():
            assert flow.rate.hex() == rate.hex(), flow.label
        self.fills += 1
        if len(set(expected.values())) > 1:
            self.multi_round += 1


@st.composite
def _populations(draw):
    """Links of mixed capacity, some with efficiency curves, and flows over
    random link subsets (each link at most once per path)."""
    links = []
    for i in range(draw(st.integers(min_value=2, max_value=7))):
        capacity = draw(st.floats(min_value=10.0, max_value=1e4))
        curve = None
        if draw(st.booleans()):
            curve = stream_efficiency(
                draw(st.floats(min_value=0.01, max_value=0.3)),
                draw(st.floats(min_value=0.2, max_value=0.9)))
        links.append(Link(f"l{i}", capacity, efficiency=curve))
    paths = draw(st.lists(
        st.lists(st.sampled_from(range(len(links))), min_size=1,
                 max_size=4, unique=True),
        min_size=1, max_size=20))
    sizes = draw(st.lists(st.floats(min_value=1.0, max_value=1e5),
                          min_size=len(paths), max_size=len(paths)))
    batched = draw(st.booleans())
    return [([links[i] for i in p], n, f"f{k}")
            for k, (p, n) in enumerate(zip(paths, sizes))], batched


@given(population=_populations())
@settings(max_examples=60, deadline=None)
def test_water_level_fill_matches_per_flow_fill_bit_for_bit(population):
    """Every fill of a run (starts, completions, splits) equals the
    per-flow progressive fill in every bit.  Batched populations start at
    one instant; the others start one flow per instant, joining flows
    that are already draining."""
    specs, batched = population
    sim = Simulator()
    net = _CheckedNetwork(sim)
    events = []

    def starter(sim):
        for path, n, label in specs:
            events.append(net.transfer(path, n, label=label))
            if not batched:
                yield sim.timeout(0.0123)
        yield sim.all_of(events)

    sim.run(until=sim.spawn(starter(sim)))
    assert net.active_flows == 0


def test_checked_fills_cover_multi_round_components():
    """Exact on a fill that freezes flows over three rounds (b, then the
    seek-thrashed a, then c), and on the two-round refill after b's flow
    completes."""
    sim = Simulator()
    net = _CheckedNetwork(sim)
    a = Link("a", 100.0, efficiency=stream_efficiency(0.1, 0.5))
    b, c = Link("b", 10.0), Link("c", 500.0)
    for path, n, label in [([a, b], 1e3, "ab"), ([a], 2e3, "a"),
                           ([a, c], 3e3, "ac"), ([c], 4e3, "c")]:
        net.transfer(path, n, label=label)
    sim.run(until=sim.now)
    assert net.fills == 1  # the four starts share one fill
    rates = sorted({f.rate for f in net._flows})
    assert rates == pytest.approx([10.0, 35.0, 465.0])
    sim.run()
    assert net.fills >= 3
    assert net.multi_round >= 2


# -- the drain inside the fill ------------------------------------------------

class _DrainFirstNetwork(FluidNetwork):
    """The engine's order before the drain moved into the fill: a start or
    completion drains every component it touches first, the fill is the
    per-flow progressive fill, and a second walk over the component finds
    the next completion."""

    def transfer(self, path, nbytes, latency=0.0, label=""):
        for link in path:
            if link.component is not None:
                self._drain(link.component)
        return super().transfer(path, nbytes, latency, label)

    def _on_completion(self, comp, generation):
        if comp.alive and generation == comp.generation:
            self._drain(comp)
        super()._on_completion(comp, generation)

    def _fill(self, comp):
        self._drain(comp)
        next_done = float("inf")
        for flow, rate in reference_global_rates(comp.flows).items():
            flow.rate = rate
            if rate > 0:
                next_done = min(next_done, flow.remaining / rate)
        comp.next_done = next_done


def _completion_instants(engine, spec):
    """Run ``spec`` on ``engine``: each flow's completion time as
    ``float.hex``, keyed by label, and the engine's stats."""
    link_specs, flow_specs = spec
    sim = Simulator()
    net = engine(sim)
    links = [Link(f"l{i}", capacity,
                  None if curve is None else stream_efficiency(*curve))
             for i, (capacity, curve) in enumerate(link_specs)]
    done = {}

    def flow(start, path, nbytes, label):
        yield sim.timeout(start)
        yield net.transfer([links[i] for i in path], nbytes, label=label)
        done[label] = sim.now.hex()

    for k, (start, path, nbytes) in enumerate(flow_specs):
        sim.spawn(flow(start, path, nbytes, f"f{k}"))
    sim.run()
    assert len(done) == len(flow_specs)
    return done, net.stats


@st.composite
def _timed_populations(draw):
    """Links, some with efficiency curves, and flows starting at a few
    shared instants: same-instant batches, flows joining components that
    are draining, paths that bridge components (merges) and bridges that
    finish before the flows they joined (splits)."""
    link_specs = [
        (draw(st.floats(min_value=10.0, max_value=1e4)),
         draw(st.one_of(st.none(), st.tuples(
             st.floats(min_value=0.01, max_value=0.3),
             st.floats(min_value=0.2, max_value=0.9)))))
        for _ in range(draw(st.integers(min_value=2, max_value=7)))]
    flow_specs = draw(st.lists(st.tuples(
        st.sampled_from([0.0, 0.0, 0.25, 0.7, 1.3]),
        st.lists(st.sampled_from(range(len(link_specs))), min_size=1,
                 max_size=3, unique=True),
        st.floats(min_value=1.0, max_value=1e4)),
        min_size=1, max_size=20))
    return link_specs, flow_specs


@given(spec=_timed_populations())
@settings(max_examples=80, deadline=None)
def test_fused_drain_matches_drain_before_fill_bit_for_bit(spec):
    """Draining each flow as the fill freezes it, and taking the next
    completion from the same walk, finishes every flow at the same float
    instant as draining every touched component before its fill."""
    got, stats = _completion_instants(FluidNetwork, spec)
    want, ref = _completion_instants(_DrainFirstNetwork, spec)
    assert got == want
    assert (stats.recomputes, stats.merges, stats.splits) == \
        (ref.recomputes, ref.merges, ref.splits)


def test_fused_drain_guard_covers_a_merge_and_a_split():
    """Two islands that a short bridge flow merges mid-drain; the bridge
    finishes first and splits them again."""
    curve = (0.1, 0.5)
    spec = ([(100.0, None), (40.0, None), (100.0, curve)],
            [(0.0, [0], 1000.0), (0.0, [2], 800.0), (0.25, [2], 300.0),
             (0.25, [0, 1, 2], 10.0), (0.7, [1], 50.0)])
    got, stats = _completion_instants(FluidNetwork, spec)
    want, _ = _completion_instants(_DrainFirstNetwork, spec)
    assert got == want
    assert stats.merges >= 1 and stats.splits >= 1
