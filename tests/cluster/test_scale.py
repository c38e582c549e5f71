"""Cluster-scale scenario: racks, spares, the borrowing ring, the failure loop.

The heavy determinism claims live in ``tests/test_determinism.py``;
here the model itself is checked — jobs finish under failures, a spare
comes from the job's own rack at once or from the nearest rack around
the ring after timed hops, a closed ring is a timed denial, and every
record a run emits validates against the schema.
"""

import pytest

from repro.cluster import ClusterScale
from repro.sched.jobs import BatchJobSpec
from repro.simulate import Tracer
from repro.simulate.schema import layers_covered, validate_trace

HOP = 0.5


def _ring(**kw):
    """Four racks, one idle-failure job on rack00, half-second hops."""
    spec = BatchJobSpec(name="J000", n_nodes=4, work_seconds=600.0,
                        submit_time=0.0)
    cs = ClusterScale(n_nodes=128, job_specs=[spec], node_mtbf=1e12,
                      inter_rack_latency=HOP, seed=0, **kw)
    for rack in cs.racks:
        rack.spares.clear()
    return cs, cs.jobs[0]


def _acquire(cs, job):
    """Run one spare acquisition -> (spare, granting rack, time taken)."""
    def body():
        start = cs.sim.now
        spare, owner = yield from cs._acquire_spare(job)
        return spare, owner, cs.sim.now - start

    return cs.sim.run(until=cs.sim.spawn(body()))


def test_cluster_needs_a_full_rack():
    with pytest.raises(ValueError, match="at least one full rack"):
        ClusterScale(n_nodes=16, n_jobs=1, nodes_per_rack=32)


def test_own_rack_spare_is_local_and_immediate():
    cs, job = _ring()
    spare_node = cs.racks[0].nodes[-1]
    cs.racks[0].spares.append(spare_node)
    cs.racks[1].spares.append(cs.racks[1].nodes[-1])
    spare, owner, took = _acquire(cs, job)
    assert spare is spare_node
    assert owner is job.rack
    assert took == 0.0
    assert cs.spare_requests == 0
    assert cs.remote_grants == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_borrowed_spare_comes_from_nearest_rack_after_k_plus_one_hops(k):
    cs, job = _ring()
    for rack in cs.racks[k:]:
        rack.spares.append(rack.nodes[-1])
    nearest = cs.racks[k]
    spare, owner, took = _acquire(cs, job)
    assert owner is nearest
    assert spare.name == nearest.nodes[-1].name
    assert spare.rack is job.rack  # relocated hardware joins the job's rack
    assert took == pytest.approx((k + 1) * HOP)
    assert nearest.spares == []
    assert all(len(r.spares) == 1 for r in cs.racks[k + 1:])
    assert (cs.spare_requests, cs.remote_grants, cs.spare_denials) == (1, 1, 0)


def test_denial_costs_the_full_ring_plus_the_return_hop():
    cs, job = _ring()
    spare, owner, took = _acquire(cs, job)
    assert spare is None and owner is None
    # Three hops visit every other rack, one more returns the denial.
    assert took == pytest.approx(len(cs.racks) * HOP)
    assert (cs.spare_requests, cs.remote_grants, cs.spare_denials) == (1, 0, 1)


def test_run_completes_all_jobs_and_borrows_across_racks():
    cs = ClusterScale(n_nodes=256, n_jobs=16, seed=0)
    res = cs.run()
    assert res["jobs_completed"] == 16
    assert res["checkpoints"] > 0
    assert res["makespan"] > 0
    # One backplane spans every rack head: the Job Manager hears every
    # alarm directly.
    assert res["ftb_alarms_at_jm"] == res["failures"] > 0
    # Spares were borrowed over the ring and restarts landed remotely.
    assert res["remote_grants"] == res["migrations_remote"] > 0
    assert res["remote_restarts"] == res["migrations_remote"]
    assert (res["spare_requests"]
            == res["remote_grants"] + res["spare_denials"])
    # Both recovery styles occurred (a reactive failure that lands a
    # spare counts a rollback *and* a migration, so the counters
    # overlap rather than partitioning the failures).
    assert 0 < res["rollbacks"] <= res["failures"]
    assert res["migrations_local"] > 0


def test_run_is_once_only():
    cs = ClusterScale(n_nodes=128, n_jobs=4, seed=0)
    cs.run()
    with pytest.raises(RuntimeError, match="already"):
        cs.run()


def test_trace_validates_and_covers_cluster_layers():
    tracer = Tracer()
    cs = ClusterScale(n_nodes=128, n_jobs=8, nodes_per_rack=16, seed=0,
                      trace=tracer)
    res = cs.run()
    assert validate_trace(tracer.records) == []
    assert {"cluster", "ftb", "network"} <= layers_covered(tracer.records)
    rack_names = {r.name for r in cs.racks}
    restarts = list(tracer.of_kind("cluster.spare.restart"))
    assert len(restarts) == res["remote_restarts"] > 0
    for rec in restarts:
        assert {rec.get("src"), rec.get("dst")} <= rack_names
        assert rec.get("src") != rec.get("dst")


def test_no_spares_still_completes_via_repair_wait():
    # No provisioned spares: early failures must ride out the repair
    # (or be denied by the ring); only repaired nodes ever re-enter the
    # pool.  Jobs still finish.
    cs = ClusterScale(n_nodes=128, n_jobs=4, nodes_per_rack=32,
                      spares_per_rack=0, seed=0, repair_time=120.0)
    res = cs.run()
    assert res["jobs_completed"] == 4
    if res["failures"]:
        assert res["spare_denials"] > 0
