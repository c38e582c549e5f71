"""Tests for the batch scheduler and the throughput contrast."""

import numpy as np
import pytest

from repro.sched import BatchJobSpec, BatchScheduler, JobState
from repro.simulate import Simulator


def make(policy="reactive", n_nodes=8, n_spares=1, mtbf=1e12, **kw):
    sim = Simulator()
    sched = BatchScheduler(sim, n_nodes, n_spares, policy=policy,
                           node_mtbf=mtbf,
                           rng=np.random.default_rng(kw.pop("seed", 0)), **kw)
    return sim, sched


def spec(name="j", n_nodes=4, work=3600.0, submit=0.0, **kw):
    return BatchJobSpec(name=name, n_nodes=n_nodes, work_seconds=work,
                        submit_time=submit, **kw)


# ---------------------------------------------------------------- basics
def test_single_job_runs_to_completion_no_failures():
    sim, sched = make()
    r = sched.submit(spec(work=3600.0, checkpoint_interval=1000.0,
                          checkpoint_cost=20.0))
    sim.run(until=10_000)
    assert r.state is JobState.COMPLETED
    # 3 checkpoints (at 1000, 2000, 3000) + work.
    assert r.completed_at == pytest.approx(3600.0 + 3 * 20.0)
    assert r.n_rollbacks == 0


def test_fcfs_queueing_when_cluster_full():
    sim, sched = make(n_nodes=4, n_spares=0)
    a = sched.submit(spec("a", n_nodes=4, work=1000.0,
                          checkpoint_interval=1e9))
    b = sched.submit(spec("b", n_nodes=4, work=1000.0, submit=1.0,
                          checkpoint_interval=1e9))
    sim.run(until=5_000)
    assert a.state is JobState.COMPLETED
    assert b.state is JobState.COMPLETED
    assert b.started_at >= a.completed_at
    assert b.queue_wait == pytest.approx(a.completed_at - 1.0, rel=0.01)


def test_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        BatchScheduler(sim, 4, 0, policy="magic")
    with pytest.raises(ValueError):
        BatchScheduler(sim, 4, 0, coverage=2.0)
    with pytest.raises(ValueError):
        BatchJobSpec("x", 0, 100.0, 0.0)
    with pytest.raises(ValueError):
        BatchJobSpec("x", 1, -5.0, 0.0)


# ---------------------------------------------------------------- failures
def test_reactive_failure_rolls_back_and_requeues():
    sim, sched = make(policy="reactive", mtbf=2000.0 * 4, seed=3,
                      repair_time=100.0)
    r = sched.submit(spec(work=4000.0, checkpoint_interval=500.0,
                          checkpoint_cost=10.0, restart_cost=30.0))
    sim.run(until=200_000)
    assert r.state is JobState.COMPLETED
    assert r.n_rollbacks >= 1
    assert r.n_requeues == r.n_rollbacks
    assert r.n_migrations == 0
    # Useful work conserved exactly.
    assert r.useful_done == pytest.approx(4000.0)


def test_proactive_full_coverage_never_rolls_back():
    sim, sched = make(policy="proactive", coverage=1.0, mtbf=1500.0 * 4,
                      seed=5)
    r = sched.submit(spec(work=6000.0, checkpoint_interval=1000.0,
                          checkpoint_cost=10.0, migration_cost=6.3))
    sim.run(until=100_000)
    assert r.state is JobState.COMPLETED
    assert r.n_rollbacks == 0
    assert r.n_migrations >= 1
    # Turnaround = work + checkpoints + migrations only.
    expected = 6000.0 + 5 * 10.0 + r.n_migrations * 6.3
    assert r.turnaround == pytest.approx(expected, rel=0.01)


def test_proactive_beats_reactive_turnaround_under_failures():
    """The paper's Intro claim at cluster level: same failure trace energy,
    proactive policy completes the workload sooner."""

    def run(policy):
        sim, sched = make(policy=policy, coverage=0.9, n_nodes=8,
                          n_spares=1, mtbf=6 * 3600.0, seed=11,
                          repair_time=3600.0)
        jobs = [sched.submit(spec(f"j{i}", n_nodes=4,
                                  work=4 * 3600.0, submit=i * 600.0,
                                  checkpoint_interval=1800.0))
                for i in range(6)]
        sim.run(until=10 * 24 * 3600.0)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        return sched

    reactive = run("reactive")
    proactive = run("proactive")
    assert proactive.mean_turnaround() < reactive.mean_turnaround()
    total_rollbacks_r = sum(j.n_rollbacks for j in reactive.records)
    total_rollbacks_p = sum(j.n_rollbacks for j in proactive.records)
    assert total_rollbacks_p < total_rollbacks_r


def test_metrics_helpers():
    sim, sched = make()
    sched.submit(spec(work=100.0, checkpoint_interval=1e9))
    sim.run(until=1000.0)
    assert len(sched.completed()) == 1
    assert 0 < sched.utilization() < 1
    assert 0 < sched.goodput() <= sched.utilization() + 1e-9
    assert sched.throughput_jobs_per_day() > 0
    assert sched.mean_turnaround() == pytest.approx(100.0)


def test_goodput_lower_than_busy_under_rollbacks():
    sim, sched = make(policy="reactive", mtbf=1200.0 * 4, seed=2,
                      repair_time=50.0)
    sched.submit(spec(work=5000.0, checkpoint_interval=800.0,
                      checkpoint_cost=10.0))
    sim.run(until=500_000)
    assert sched.goodput() < sched.utilization()


def test_scheduler_weibull_mode_runs():
    sim = Simulator()
    sched = BatchScheduler(sim, 8, 1, policy="proactive", coverage=0.8,
                           node_mtbf=4 * 3600.0, failure_shape=0.7,
                           rng=np.random.default_rng(4))
    job = sched.submit(BatchJobSpec("w", 4, 8 * 3600.0, 0.0,
                                    checkpoint_interval=1800.0))
    sim.run(until=10 * 24 * 3600.0)
    assert job.useful_done == pytest.approx(8 * 3600.0)


def test_scheduler_failure_shape_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        BatchScheduler(sim, 4, 0, failure_shape=-1.0)
