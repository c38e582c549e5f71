"""Tests for the live (pre-copy) migration baseline."""

import pytest

from repro import Scenario
from repro.core import LiveMigrationStrategy, MigrationError


def scenario(**kw):
    defaults = dict(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                    iterations=10)
    defaults.update(kw)
    return Scenario.build(**defaults)


def run_live(sc, source="node1", dirty_rate=0.0, **kw):
    strat = LiveMigrationStrategy(sc.framework, **kw)

    def drive(sim):
        yield sim.timeout(0.5)
        return (yield from strat.migrate(source, dirty_rate=dirty_rate))

    return sc.sim.run(until=sc.sim.spawn(drive(sc.sim)))


def test_zero_dirty_rate_single_round_tiny_downtime():
    sc = scenario()
    report = run_live(sc, dirty_rate=0.0)
    assert report.rounds == 1
    assert report.converged
    assert report.residual_bytes == 0.0
    expected = sum(r.osproc.image_bytes
                   for r in sc.job.ranks_on("spare0"))
    assert report.precopy_bytes == pytest.approx(expected)
    # Downtime excludes the bulk copy entirely.
    assert report.downtime_seconds < 0.5
    assert report.downtime_seconds < report.total_seconds / 2


def test_ranks_relocated_and_app_completes():
    sc = scenario(iterations=12)
    run_live(sc, dirty_rate=0.0)
    assert not sc.job.ranks_on("node1")
    assert len(sc.job.ranks_on("spare0")) == 4
    sc.sim.run(until=sc.job.completion())
    assert all(r.osproc.app_state["iteration"] == 12 for r in sc.job.ranks)


def test_high_dirty_rate_fails_to_converge():
    """NPB-like regime: re-dirty faster than the wire drains."""
    sc = scenario()
    report = run_live(sc, dirty_rate=2e9, max_rounds=4)
    assert report.rounds == 4
    assert not report.converged
    # Residual is essentially the whole image: downtime ~ stop-and-copy.
    victims_bytes = sum(r.osproc.image_bytes
                        for r in sc.job.ranks_on("spare0"))
    assert report.residual_bytes == pytest.approx(victims_bytes, rel=0.01)
    # And pre-copy traffic was pure waste (>= 4x the image).
    assert report.precopy_bytes >= 3.9 * victims_bytes


def test_dirty_rate_tradeoff_monotone():
    downtimes, totals = [], []
    for rate in (0.0, 1e8, 2e9):
        sc = scenario()
        r = run_live(sc, dirty_rate=rate)
        downtimes.append(r.downtime_seconds)
        totals.append(r.total_seconds)
    assert downtimes == sorted(downtimes)  # more dirtying -> more downtime
    assert totals[0] < totals[2]           # and more total traffic time


def test_validation():
    sc = scenario()
    with pytest.raises(ValueError):
        LiveMigrationStrategy(sc.framework, max_rounds=0)
    with pytest.raises(ValueError):
        LiveMigrationStrategy(sc.framework, stop_fraction=1.5)
    strat = LiveMigrationStrategy(sc.framework)

    def drive(sim):
        with pytest.raises(MigrationError):
            yield from strat.migrate("login")
        return True

    assert sc.sim.run(until=sc.sim.spawn(drive(sc.sim))) is True


def test_occupied_target_rejected_like_the_framework():
    """A live migration onto a node that already hosts ranks fails with
    the framework's own error, and moves nothing."""
    sc = Scenario.build(app="LU.C", nprocs=64, n_compute=8, n_spare=1,
                        iterations=10)
    strat = LiveMigrationStrategy(sc.framework)
    errors = {}
    for name, migrate in (("live", strat.migrate),
                          ("framework", sc.framework.migrate)):
        def drive(sim, migrate=migrate):
            yield sim.timeout(0.5)
            yield from migrate("node3", target="node4")

        with pytest.raises(MigrationError) as exc:
            sc.sim.run(until=sc.sim.spawn(drive(sc.sim)))
        errors[name] = str(exc.value)
    assert errors["live"] == errors["framework"] == \
        "target node4 already hosts ranks"
    assert len(sc.job.ranks_on("node3")) == 8
    assert len(sc.job.ranks_on("node4")) == 8
