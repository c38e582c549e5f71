"""A run holds its live state, not its history.

A finished run must leave nothing for the cyclic collector (completed
flows and their events, finished processes and their generators are
freed by reference counting alone), and the simulator's process registry
must hold exactly the processes that have not terminated.
"""

import gc
import hashlib

import numpy as np
import pytest

from repro import Scenario
from repro.cluster.osproc import OSProcess
from repro.experiments import FIG4, FIG7
from repro.simulate import Process


@pytest.mark.parametrize("run", [FIG4["LU.C"], FIG7["LU.C"]["cr_pvfs"]],
                         ids=["migrate", "cr_pvfs"])
def test_run_leaves_no_cyclic_garbage(run):
    sc = run.scenario()
    assert_no_cyclic_garbage(lambda: run.drive(sc))


def test_record_data_migration_leaves_no_cyclic_garbage():
    """The migrated ranks' source processes are killed and dropped; their
    segments, drawn or not, go with them by reference counting."""
    sc = Scenario.build(app="LU.C", nprocs=8, n_compute=2, iterations=10,
                        record_data=True)
    assert_no_cyclic_garbage(lambda: sc.run_migration("node1", at=2.0))


def _unread_process():
    return OSProcess.synthetic("r0", "n0", 8_000_000, record_data=True,
                               rng=np.random.default_rng(1))


def test_dropped_unread_record_data_process_leaves_no_cyclic_garbage():
    """Each segment holds the process's pending draw; the draw must not
    hold the segments back, or an unread process dropped without kill()
    is a cycle."""

    def drop():
        proc = _unread_process()
        assert all(seg._draw is not None for seg in proc.segments)
        del proc
        return True

    assert_no_cyclic_garbage(drop)


def test_dropped_segments_are_still_drawn_in_stream_order():
    """Reading the heap of a dropped process draws the dropped text and
    data segments first, so the heap's bytes are those every other
    read order gives (digests taken before the draw held its segments
    weakly)."""
    proc = _unread_process()
    heap = proc.segments[2]
    assert heap.name == "heap"
    del proc
    digest = hashlib.sha256(heap.data.tobytes()).hexdigest()
    assert digest == ("47c2e2117977f6a2803b1715ffe12f92"
                      "05f9807f833a3efbb1bfb47ec41f3284")
    whole = hashlib.sha256()
    for seg in _unread_process().segments:
        whole.update(seg.data.tobytes())
    assert whole.hexdigest() == ("58aa82baaa2732fbc07596798fcf58ac"
                                 "1caddec903e087365f3faea0fcb4134f")


def assert_no_cyclic_garbage(body):
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = body()
        unreachable = gc.collect()
        saved = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert result is not None
    kinds = sorted({type(obj).__name__ for obj in saved})
    assert unreachable == 0, f"cyclic garbage of kinds {kinds}"
    assert saved == []


def test_registry_holds_exactly_the_live_processes():
    run = FIG4["LU.C"]
    sc = run.scenario()
    run.drive(sc)
    sim = sc.sim
    registered = sim.live_processes()
    assert registered, "a migrated job keeps running ranks"
    assert all(proc.is_alive for proc in registered)
    assert len(set(map(id, registered))) == len(registered)
    every = [obj for obj in gc.get_objects()
             if isinstance(obj, Process) and obj.sim is sim]
    alive = {id(proc) for proc in every if proc.is_alive}
    assert {id(proc) for proc in registered} == alive
