"""Fluid-engine microbenchmark: component scoping on a PVFS-style workload.

Topology mirrors the Fig. 7 contention regime scaled to the unit that
matters for engine cost: 8 compute nodes each running 8 node-local disk
checkpoint streams (64 streams total, pairwise disjoint across nodes) plus
one PVFS fan-in where every node also writes a stripe stream through its
HCA into 4 shared servers.  The local-disk components never share a link
with each other, so a component-scoped engine recomputes only the touched
node's handful of flows per population change, while a global engine walks
all ~72.

Asserts the two acceptance criteria:

* >= 5x fewer flow-visits per recompute than the global-walk equivalent
  (measured by the engine's own counters, not estimated);
* rate allocations identical to the pre-component engine — a reference
  global progressive fill over the whole population must reproduce every
  flow's rate.
"""

import pytest

from repro.network.fluid import FluidNetwork, Link, stream_efficiency
from repro.simulate import Simulator

N_NODES = 8
STREAMS_PER_NODE = 8
N_SERVERS = 4
DISK_BW = 60e6
HCA_BW = 1000e6
SERVER_BW = 200e6
STREAM_BYTES = 256e6


def build_population(net):
    """64 node-local disk streams + a 1-stripe-per-node PVFS fan-in."""
    fanin_links = []
    for s in range(N_SERVERS):
        fanin_links.append(Link(
            f"pvfs{s}.disk", SERVER_BW,
            efficiency=stream_efficiency(0.05, 0.4)))
    events = []
    for n in range(N_NODES):
        disk = Link(f"node{n}.disk", DISK_BW,
                    efficiency=stream_efficiency(0.06, 0.5))
        for i in range(STREAMS_PER_NODE):
            events.append(net.transfer(
                [disk], STREAM_BYTES * (1 + 0.1 * i),
                label=f"ext3:{n}:{i}"))
        hca = Link(f"node{n}.hca.tx", HCA_BW)
        server = fanin_links[n % N_SERVERS]
        events.append(net.transfer([hca, server], STREAM_BYTES,
                                   label=f"pvfs:{n}"))
    return events


def reference_global_rates(flows):
    """The pre-component engine's allocation: one progressive fill over the
    entire active population."""
    rates = {f: 0.0 for f in flows}
    links, unfrozen_on = {}, {}
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


def run_workload():
    sim = Simulator()
    net = FluidNetwork(sim)
    events = build_population(net)
    sim.run(until=sim.now)  # end the instant: every component is filled
    # Pin the allocation while the full population is live.
    expected = reference_global_rates(net._flows)
    mismatches = [
        (f.label, f.rate, want)
        for f, want in expected.items()
        if f.rate != pytest.approx(want, rel=1e-9)
    ]
    sim.run(until=sim.all_of(events))
    return sim, net, mismatches


@pytest.fixture(scope="module")
def result():
    return run_workload()


def test_bench_fluid_engine(benchmark):
    benchmark.pedantic(run_workload, rounds=1, iterations=1)


def test_bench_rates_match_global_engine(result):
    _sim, _net, mismatches = result
    assert mismatches == []


def test_bench_component_scoping_visit_reduction(result):
    _sim, net, _ = result
    st = net.stats
    reduction = st.global_flows_equiv / st.flows_visited
    print(f"\nfluid engine: {st.recomputes} recomputes, "
          f"{st.flows_visited} flow-visits (global equiv "
          f"{st.global_flows_equiv}), {reduction:.1f}x fewer visits, "
          f"peak component {st.peak_component_size}")
    assert reduction >= 5.0, (
        f"component scoping only saved {reduction:.2f}x flow visits")
    # The disjoint node-local components really stayed small: nothing ever
    # glued all 72 flows into one component.
    assert st.peak_component_size <= N_NODES + STREAMS_PER_NODE + N_SERVERS


def test_bench_conservation(result):
    sim, net, _ = result
    assert net.active_flows == 0
    assert net.active_components == 0
