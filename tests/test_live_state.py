"""A run holds its live state, not its history.

A finished run must leave nothing for the cyclic collector (completed
flows and their events, finished processes and their generators are
freed by reference counting alone), and the simulator's process registry
must hold exactly the processes that have not terminated.
"""

import gc

import pytest

from repro import Scenario
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
