"""Ablation — cluster throughput: reactive CR vs proactive migration.

The paper's introduction motivates the whole design with a cluster-level
claim: reactive CR aborts the entire job on one node failure and resubmits
it "to go through the lengthy queuing latency.  As a consequence, the
throughput of the computer cluster as a whole degrades significantly."

This bench runs a two-week synthetic workload (jobs arriving continuously
on a 32+2-node cluster with realistic node MTBF) under the two policies,
using the per-operation costs measured by the node-level simulator
(CR(PVFS) checkpoint/restart, one migration), and reports mean turnaround,
queue wait, rollbacks and jobs/day.
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.sched import BatchJobSpec, BatchScheduler
from repro.simulate import Simulator

HORIZON_DAYS = 14.0
N_NODES, N_SPARES = 32, 2
NODE_MTBF_H = 24.0  # aggressive but in range for 2010-era commodity parts
N_JOBS = 60

# Per-operation costs measured at node level (see EXPERIMENTS.md).
CKPT_COST, RESTART_COST, MIGRATION_COST = 26.5, 12.0, 6.3


def run_policy(policy: str, coverage: float = 0.9):
    sim = Simulator()
    sched = BatchScheduler(sim, N_NODES, N_SPARES, policy=policy,
                           coverage=coverage,
                           node_mtbf=NODE_MTBF_H * 3600.0,
                           repair_time=6 * 3600.0,
                           rng=np.random.default_rng(2010))
    arrival_rng = np.random.default_rng(7)
    t = 0.0
    for i in range(N_JOBS):
        t += float(arrival_rng.exponential(3600.0))  # ~1 job/h offered load
        work = float(arrival_rng.uniform(2, 10) * 3600.0)
        nodes = int(arrival_rng.choice([4, 8, 16]))
        sched.submit(BatchJobSpec(
            name=f"job{i}", n_nodes=nodes, work_seconds=work,
            submit_time=t, checkpoint_interval=1800.0,
            checkpoint_cost=CKPT_COST, restart_cost=RESTART_COST,
            migration_cost=MIGRATION_COST))
    sim.run(until=HORIZON_DAYS * 86400.0)
    return sched


@pytest.fixture(scope="module")
def results():
    return {"reactive CR": run_policy("reactive"),
            "proactive migration": run_policy("proactive", coverage=0.9)}


def test_bench_cluster_throughput(benchmark, results):
    benchmark.pedantic(run_policy, args=("reactive",), rounds=1, iterations=1)

    rows = {}
    for label, sched in results.items():
        done = sched.completed()
        rows[label] = {
            "jobs done": float(len(done)),
            "mean turnaround (h)": sched.mean_turnaround() / 3600.0,
            "mean queue wait (h)": float(np.mean(
                [j.queue_wait for j in done])) / 3600.0,
            "rollbacks": float(sum(j.n_rollbacks for j in sched.records)),
            "migrations": float(sum(j.n_migrations for j in sched.records)),
            "busy %": 100 * sched.utilization(),
            "goodput %": 100 * sched.goodput(),
        }
    print()
    print(render_table(
        f"Ablation — cluster throughput over {HORIZON_DAYS:.0f} days "
        f"({N_NODES}+{N_SPARES} nodes, node MTBF {NODE_MTBF_H:.0f} h)",
        rows, unit="mixed", digits=1))

    reactive, proactive = results["reactive CR"], results["proactive migration"]
    # The paper's claim: throughput and responsiveness degrade under
    # reactive CR relative to proactive migration.
    assert len(proactive.completed()) >= len(reactive.completed())
    assert proactive.mean_turnaround() < reactive.mean_turnaround()
    assert (sum(j.n_rollbacks for j in proactive.records)
            < sum(j.n_rollbacks for j in reactive.records))


def test_bench_throughput_conserves_work(results):
    for sched in results.values():
        for job in sched.completed():
            assert job.useful_done == pytest.approx(job.spec.work_seconds,
                                                    rel=1e-9)
