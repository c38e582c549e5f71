"""Tests for the baseline transports and the migration trigger policy."""

import pytest

from repro import MigrationPhase, Scenario
from repro.cluster import FailureInjector, HealthMonitor


def small_scenario(**kw):
    defaults = dict(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                    iterations=8)
    defaults.update(kw)
    return Scenario.build(**defaults)


# ----------------------------------------------------------------- baselines
@pytest.mark.parametrize("transport", ["tcp", "ipoib", "staging"])
def test_baseline_transport_completes(transport):
    sc = small_scenario(transport=transport)
    report = sc.run_migration("node1", at=0.5)
    victims_bytes = report.bytes_migrated
    assert victims_bytes > 0
    assert report.transport == transport
    # App still finishes.
    sc.sim.run(until=sc.job.completion())
    assert all(rk.osproc.app_state["iteration"] == 8 for rk in sc.job.ranks)


def test_rdma_transport_fastest_migration_phase():
    """The paper's Sec. III-B argument: RDMA beats the socket paths and the
    naive staging path for Phase 2.

    Runs at 32 ranks / 4 nodes so the per-node image volume (~300 MB) stays
    inside the target's page cache — at larger per-node volumes every
    transport converges to the target disk's writeback rate and the wire
    differences (correctly) wash out.
    """
    phase2 = {}
    for transport in ("rdma", "tcp", "ipoib", "staging"):
        sc = small_scenario(transport=transport, app="LU.C", nprocs=32,
                            n_compute=4)
        report = sc.run_migration("node1", at=0.5)
        phase2[transport] = report.phase_seconds[MigrationPhase.MIGRATION]
    assert phase2["rdma"] < phase2["ipoib"] < phase2["tcp"]
    assert phase2["rdma"] < phase2["staging"]


def test_unknown_transport_rejected():
    """A bad name fails the build itself, not the migration seconds into
    the simulated run."""
    with pytest.raises(ValueError, match="unknown transport 'pigeon'"):
        small_scenario(transport="pigeon")


def test_unknown_restart_mode_rejected():
    with pytest.raises(ValueError, match="unknown restart mode 'tape'"):
        small_scenario(restart_mode="tape")


# ------------------------------------------------------------------- trigger
def test_user_trigger_fires_migration():
    sc = small_scenario()
    sc.trigger.request("node1", reason="maintenance")
    sc.sim.run(until=sc.job.completion())
    assert len(sc.trigger.fired) == 1
    assert sc.trigger.fired[0].reason == "maintenance"


def test_health_alarm_drives_proactive_migration():
    """End-to-end proactive path: sensor drift -> monitor prediction ->
    FTB alarm -> migration away from the deteriorating node, completing
    before the hard failure."""
    sc = small_scenario(iterations=2000)  # long enough to outlive the ramp
    injector = FailureInjector(sc.sim, sc.cluster.rng)
    monitor = HealthMonitor(sc.sim, injector, sc.cluster.compute,
                            interval=5.0, window=6, horizon=400.0)
    from repro.core import MigrationTrigger

    trigger = MigrationTrigger(sc.framework, monitor=monitor)
    injector.inject(sc.cluster.node("node1"), at=30.0, ramp=300.0)
    sc.sim.run(until=500.0)
    assert len(trigger.fired) == 1
    report = trigger.fired[0]
    assert report.source == "node1"
    assert report.reason.startswith("health:")
    # The migration completed before the node hard-failed at t=330.
    assert report.started_at + report.total_seconds < 330.0
    assert not sc.job.ranks_on("node1")


def test_trigger_dedups_concurrent_alarms():
    sc = small_scenario()
    sc.trigger._in_flight.add("node1")
    from repro.cluster.health import HealthEvent

    sc.trigger.on_health_alarm(HealthEvent("node1", "cpu_temp", 1.0, 5.0, 80.0))
    sc.sim.run(until=2.0)
    assert sc.trigger.fired == []


def test_trigger_records_failures():
    sc = small_scenario(n_spare=0)
    sc.trigger.request("node1")
    sc.sim.run(until=sc.job.completion())
    assert len(sc.trigger.failed_triggers) == 1
    assert "spare" in sc.trigger.failed_triggers[0]
