"""The call-graph passes of ``repro lint``: call graph, the three
analysis passes, suppressions, and the rule-id docs catalog."""

import os
import re

import repro
from repro.sanitize import lint_paths, lint_source
from repro.sanitize.rules import RULES
from repro.sanitize.simcheck import CallGraph, parse_modules

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def codes(source):
    """The call-graph pass (SIM) and suppression (MET) findings."""
    return [f.code for f in lint_source(source, "fixture.py")
            if f.rule_id.startswith(("SIM", "MET"))]


# -- call graph --------------------------------------------------------------

DRIVER_SRC = '''
from repro.simulate.core import Simulator

class Worker:
    def tick(self, sim):
        yield sim.timeout(1.0)

    def run(self, sim):
        yield from self.tick(sim)

def main():
    sim = Simulator()
    w = Worker()
    sim.spawn(w.run(sim))
    sim.run()
'''


def graph_of(source, path="fixture.py"):
    modules, broken = parse_modules([(path, source)])
    assert broken == []
    return CallGraph(modules)


def test_callgraph_finds_generators_and_spawn_sites():
    graph = graph_of(DRIVER_SRC)
    gens = {fn.name for fn in graph.generators()}
    assert gens == {"tick", "run"}
    spawned = {q for q, fn in graph.functions.items() if fn.spawned}
    assert any(q.endswith("Worker.run") for q in spawned)


def test_process_functions_follow_yield_from_chains():
    graph = graph_of(DRIVER_SRC)
    procs = graph.process_functions()
    # ``run`` is spawned; ``tick`` is reached through ``yield from``.
    assert any(q.endswith("Worker.run") for q in procs)
    assert any(q.endswith("Worker.tick") for q in procs)


def test_production_tree_identifies_sim_processes():
    result = lint_paths([os.path.join(REPO_ROOT, "src", "repro")])
    assert result.stats["generators"] > 50
    assert result.stats["process_functions"] > 5


# -- SIM101 yield-stale-write ------------------------------------------------

SIM101_POS = '''
class Node:
    def __init__(self, sim):
        self.inflight = 0
        self.sim = sim
    def pump(self):
        count = self.inflight
        yield self.sim.timeout(1.0)
        self.inflight = count + 1
'''

SIM101_NEG_REREAD = '''
class Node:
    def __init__(self, sim):
        self.inflight = 0
        self.sim = sim
    def pump(self):
        count = self.inflight
        yield self.sim.timeout(1.0)
        count = self.inflight
        self.inflight = count + 1
'''

SIM101_NEG_NO_YIELD_BETWEEN = '''
class Node:
    def __init__(self, sim):
        self.inflight = 0
        self.sim = sim
    def pump(self):
        yield self.sim.timeout(1.0)
        count = self.inflight
        self.inflight = count + 1
'''


def test_sim101_flags_stale_write_across_yield():
    assert codes(SIM101_POS) == ["yield-stale-write"]


def test_sim101_reread_after_yield_is_clean():
    assert codes(SIM101_NEG_REREAD) == []


def test_sim101_read_and_write_after_yield_is_clean():
    assert codes(SIM101_NEG_NO_YIELD_BETWEEN) == []


def test_sim101_flags_stale_write_inside_loop():
    src = '''
class Node:
    def __init__(self, sim):
        self.credits = 8
        self.sim = sim
    def pump(self):
        while True:
            avail = self.credits
            yield self.sim.timeout(1.0)
            self.credits = avail - 1
'''
    assert "yield-stale-write" in codes(src)


# -- SIM102 iter-mutation-hazard ---------------------------------------------

SIM102_POS = '''
class Pool:
    def __init__(self, sim):
        self.jobs = set()
        self.sim = sim
    def admit(self, j):
        self.jobs.add(j)
    def drain(self):
        for j in self.jobs:
            yield self.sim.timeout(1.0)
'''

SIM102_NEG_SNAPSHOT = '''
class Pool:
    def __init__(self, sim):
        self.jobs = set()
        self.sim = sim
    def admit(self, j):
        self.jobs.add(j)
    def drain(self):
        for j in list(self.jobs):
            yield self.sim.timeout(1.0)
'''


def test_sim102_flags_iteration_across_yield_with_mutator():
    assert "iter-mutation-hazard" in codes(SIM102_POS)


def test_sim102_snapshot_iteration_is_clean():
    assert codes(SIM102_NEG_SNAPSHOT) == []


def test_sim102_quiet_without_yield_in_loop():
    src = SIM102_POS.replace(
        "            yield self.sim.timeout(1.0)",
        "            j.touch()\n        yield self.sim.timeout(1.0)")
    assert "iter-mutation-hazard" not in codes(src)


# -- SIM201 set-order-dependence ---------------------------------------------

# The fluid-network completion handler as it looked *before* the
# Flow.seq fix: completed flows collected from a set and their events
# succeeded in set-iteration order.  SimCheck exists to flag this.
SIM201_PREFIX_FLOW = '''
class Computation:
    def __init__(self):
        self.flows = set()

class FluidNetwork:
    def _on_completion(self, comp, eps):
        done = [f for f in comp.flows if f.remaining <= eps]
        for f in done:
            f.event.succeed_later(f)
'''

# ...and with the committed fix (sort by start-order sequence number).
SIM201_FIXED_FLOW = '''
class Computation:
    def __init__(self):
        self.flows = set()

class FluidNetwork:
    def _on_completion(self, comp, eps):
        done = [f for f in comp.flows if f.remaining <= eps]
        done.sort(key=lambda f: f.seq)
        for f in done:
            f.event.succeed_later(f)
'''


def test_sim201_flags_the_prefix_flow_completion_pattern():
    assert codes(SIM201_PREFIX_FLOW) == ["set-order-dependence"]


def test_sim201_sorted_flow_completion_is_clean():
    assert codes(SIM201_FIXED_FLOW) == []


def test_sim201_flags_direct_set_iteration_into_schedule():
    src = '''
class Arrivals:
    def kick(self, sim, waiting):
        pending = set(waiting)
        for ev in pending:
            sim.schedule(ev)
'''
    assert codes(src) == ["set-order-dependence"]


def test_sim201_sorted_iteration_is_clean():
    src = '''
class Arrivals:
    def kick(self, sim, waiting):
        pending = set(waiting)
        for ev in sorted(pending, key=lambda e: e.seq):
            sim.schedule(ev)
'''
    assert codes(src) == []


def test_sim201_set_iteration_without_sink_is_clean():
    src = '''
def total(sizes):
    acc = 0.0
    for s in set(sizes):
        acc += s
    return acc
'''
    assert codes(src) == []


# -- SIM202 id-order-dependence ----------------------------------------------

def test_sim202_flags_id_sort_key():
    assert codes('''
def order(flows):
    return sorted(flows, key=id)
''') == ["id-order-dependence"]


def test_sim202_flags_id_value_into_sink():
    assert codes('''
def tag(tracer, flow):
    tracer.record("flow.start", flow=id(flow))
''') == ["id-order-dependence"]


def test_sim202_stable_key_is_clean():
    assert codes('''
def order(flows):
    return sorted(flows, key=lambda f: f.seq)
''') == []


# -- SIM203 unseeded-rng-flow ------------------------------------------------

SIM203_POS = '''
import random

class Arrivals:
    def run(self, sim):
        rng = random.Random()
        while True:
            delay = rng.expovariate(1.0)
            sim.schedule(delay)
            yield delay
'''

SIM203_NEG_SEEDED = '''
import random

class Arrivals:
    def run(self, sim, seed):
        rng = random.Random(seed)
        while True:
            delay = rng.expovariate(1.0)
            sim.schedule(delay)
            yield delay
'''


def test_sim203_flags_unseeded_rng_draw_into_schedule():
    assert codes(SIM203_POS) == ["unseeded-rng-flow"]


def test_sim203_seeded_rng_is_clean():
    assert codes(SIM203_NEG_SEEDED) == []


def test_sim203_flags_global_random_draw_into_sink():
    assert codes('''
import random

def jitter(sim):
    sim.schedule(random.uniform(0.0, 1.0))
''') == ["unseeded-rng-flow"]


# -- SIM301 span-unbalanced --------------------------------------------------

def test_sim301_flags_discarded_span():
    assert codes('''
def work(tracer):
    tracer.span("phase", job="j1")
''') == ["span-unbalanced"]


def test_sim301_with_scoped_span_is_clean():
    assert codes('''
def work(tracer):
    with tracer.span("phase", job="j1"):
        pass
''') == []


def test_sim301_returned_span_is_a_handoff():
    assert codes('''
def make(tracer):
    return tracer.span("phase")
''') == []


def test_sim301_flags_assigned_but_never_entered_span():
    assert codes('''
def work(tracer):
    sp = tracer.span("phase")
    sp.annotate(x=1)
''') == ["span-unbalanced"]


def test_sim301_manual_enter_with_finally_exit_is_clean():
    assert codes('''
def work(tracer):
    sp = tracer.span("phase")
    sp.__enter__()
    try:
        pass
    finally:
        sp.__exit__(None, None, None)
''') == []


def test_sim301_manual_enter_without_finally_is_flagged():
    assert codes('''
def work(tracer):
    sp = tracer.span("phase")
    sp.__enter__()
    sp.__exit__(None, None, None)
''') == ["span-unbalanced"]


def test_sim301_self_stored_span_with_exiting_method_is_clean():
    # The migration pipeline's cross-method lifetime: open() enters the
    # run span on self, close() exits it.
    assert codes('''
class Pipeline:
    def open(self, tracer):
        self._run_span = tracer.span("pipeline.run")
        self._run_span.__enter__()
    def close(self):
        self._run_span.__exit__(None, None, None)
''') == []


def test_sim301_self_stored_span_never_exited_is_flagged():
    assert codes('''
class Pipeline:
    def open(self, tracer):
        self._run_span = tracer.span("pipeline.run")
        self._run_span.__enter__()
''') == ["span-unbalanced"]


# -- suppressions -----------------------------------------------------------

def test_simcheck_honors_inline_suppression():
    src = SIM201_PREFIX_FLOW.replace(
        "        for f in done:",
        "        for f in done:  # repro: noqa[SIM201]")
    assert codes(src) == []


def test_simcheck_flags_unused_suppression():
    src = "x = 1  # repro: noqa[SIM101]\n"
    assert codes(src) == ["unused-suppression"]


def test_production_tree_is_simcheck_clean():
    """src/repro has no call-graph (SIM) or suppression (MET) findings."""
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    findings = [f for f in lint_paths([pkg]).findings
                if f.rule_id.startswith(("SIM", "MET"))]
    assert findings == [], "\n".join(f.render() for f in findings)


# -- docs catalog sync -------------------------------------------------------

def test_every_rule_id_documented_in_static_analysis_docs():
    doc = os.path.join(REPO_ROOT, "docs", "static-analysis.md")
    with open(doc, "r", encoding="utf-8") as fh:
        text = fh.read()
    missing = [rule_id for rule_id in RULES if rule_id not in text]
    assert missing == [], (
        f"rule ids registered but absent from docs/static-analysis.md: "
        f"{missing}")


def test_docs_mention_no_retired_rule_ids():
    doc = os.path.join(REPO_ROOT, "docs", "static-analysis.md")
    with open(doc, "r", encoding="utf-8") as fh:
        text = fh.read()
    documented = set(re.findall(r"\b(?:LNT|SIM|MET)\d{3}\b", text))
    stale = documented - set(RULES)
    assert stale == set(), (
        f"docs/static-analysis.md documents unregistered rule ids: "
        f"{sorted(stale)}")
