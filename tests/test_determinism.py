"""Determinism: the simulated outcome is a function of the seed alone.

The Fig. 4 LU.C migration must replay the committed baseline trace
(``benchmarks/baseline_traces/migration_LU.C_file.jsonl.gz``) record for
record, down to the last bit of every float — with or without a
telemetry probe attached.  That pin catches a trace change across
commits, not only between two runs of the same tree.  The Fig. 7
CR(PVFS) checkpoint+restart, where 64 writers share large max-min
components, is pinned the same way by a digest of its trace.

The cluster-scale scenario's contract is run-to-run stability: the same
seed replays the same JSONL and the same counters on every run, in a
scenario that borrows spares across racks and denies some requests.
"""

import hashlib
import json
import os
from itertools import count

import repro.blcr.image as blcr_image
import repro.cluster.osproc as osproc
import repro.core.buffer_manager as buffer_manager
import repro.ftb.events as ftb_events
import repro.mpi.transport as transport
import repro.network.qp as qp
from repro.analysis import open_trace_text
from repro.scenario import Scenario
from repro.simulate import Tracer

#: The pinned Fig. 4 trace (LU.C, 64 ranks, file restart), as written by
#: ``repro bench --update-baselines``.
PINNED_FIG4_TRACE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "baseline_traces", "migration_LU.C_file.jsonl.gz")

#: The Fig. 4 cycle the pinned trace records.
FIG4_TOTAL_S = 6.092014

#: SHA-256 of the Fig. 7 LU.C CR(PVFS) checkpoint+restart trace: one
#: sorted-key JSON line per record, ``fluid.recompute`` records dropped
#: (how many refills a run takes is solver work, not simulated outcome).
FIG7_CR_PVFS_TRACE_SHA256 = (
    "cab22ead057e8de42ae76e65fcb1ee539dca70a0cfd473bfb9ff27850704b7ea")
FIG7_CR_PVFS_RECORDS = 25769
FIG7_CR_PVFS_CYCLE_S = 26.91683


def _reset_global_counters(monkeypatch):
    """Rewind the process-global allocation counters (QP numbers, image
    ids, PIDs, ...) so back-to-back runs in one interpreter label their
    objects identically.  The ids are allocation bookkeeping, not
    simulation state — but they appear in trace fields, so byte-exact
    comparison needs them pinned."""
    monkeypatch.setattr(qp.QueuePair, "_ids", count())
    monkeypatch.setattr(ftb_events, "_seq", count())
    monkeypatch.setattr(blcr_image, "_image_ids", count(start=1))
    monkeypatch.setattr(transport, "_wr_ids", count())
    monkeypatch.setattr(osproc, "_pids", count(start=1000))
    monkeypatch.setattr(buffer_manager, "_chunk_seq", count())


def _fig4_records(monkeypatch, telemetry=False):
    """Run Fig. 4 LU.C file mode -> (total seconds, JSON-normalised records).

    Records go through a JSON round trip (tuples become lists) so they
    compare equal to rows read back from the pinned ``.jsonl.gz``.
    """
    _reset_global_counters(monkeypatch)
    tracer = Tracer()
    sc = Scenario.build(app="LU.C", nprocs=64, n_compute=8, n_spare=1,
                        iterations=40, seed=0, trace=tracer)
    if telemetry:
        from repro.simulate import TelemetryProbe
        sc.sim.attach_probe(TelemetryProbe())
    report = sc.run_migration("node3", at=5.0)
    records = [json.loads(json.dumps(rec.as_dict(), default=str))
               for rec in tracer.records]
    return report.total_seconds, records


def _assert_matches_pin(records):
    with open_trace_text(PINNED_FIG4_TRACE) as fh:
        pinned = [json.loads(line) for line in fh if line.strip()]
    for i, (got, want) in enumerate(zip(records, pinned)):
        assert got == want, f"trace diverges from the pin at record {i}"
    assert len(records) == len(pinned)


def test_fig4_trace_matches_pinned_artifact(monkeypatch):
    """The Fig. 4 LU.C migration replays the committed baseline trace
    record for record."""
    total, records = _fig4_records(monkeypatch)
    assert round(total, 6) == FIG4_TOTAL_S
    _assert_matches_pin(records)


def test_trace_is_identical_with_telemetry_enabled(monkeypatch):
    """The telemetry probe is pure observation: stripping its own records
    recovers the pinned probe-less trace exactly."""
    total, records = _fig4_records(monkeypatch, telemetry=True)
    assert round(total, 6) == FIG4_TOTAL_S
    kept = [rec for rec in records if rec["kind"] != "telemetry.sample"]
    assert len(kept) < len(records), "probe must actually have sampled"
    _assert_matches_pin(kept)


def test_fig7_cr_pvfs_trace_matches_pinned_digest(monkeypatch):
    """The Fig. 7 LU.C CR(PVFS) checkpoint and restart replay the pinned
    trace digest, with every float in its exact repr."""
    _reset_global_counters(monkeypatch)
    tracer = Tracer()
    sc = Scenario.build(app="LU.C", nprocs=64, n_compute=8, n_spare=1,
                        iterations=40, seed=0, with_pvfs=True, trace=tracer)
    strategy = sc.cr_strategy("pvfs")

    def drive(sim):
        yield sim.timeout(5.0)
        ckpt = yield from strategy.checkpoint()
        restart = yield from strategy.restart()
        return ckpt, restart

    ckpt, restart = sc.sim.run(until=sc.sim.spawn(drive(sc.sim)))
    cycle = ckpt.total_seconds + restart.restart_seconds
    assert round(cycle, 6) == FIG7_CR_PVFS_CYCLE_S
    digest = hashlib.sha256()
    kept = 0
    for rec in tracer.records:
        if rec.kind == "fluid.recompute":
            continue
        kept += 1
        digest.update(json.dumps(rec.as_dict(), sort_keys=True,
                                 default=str).encode() + b"\n")
    assert kept == FIG7_CR_PVFS_RECORDS
    assert digest.hexdigest() == FIG7_CR_PVFS_TRACE_SHA256


def _cluster_trace_jsonl(monkeypatch):
    """One seeded cluster-scale run -> (results dict, trace JSONL)."""
    from repro.cluster import ClusterScale

    _reset_global_counters(monkeypatch)
    tracer = Tracer()
    cs = ClusterScale(n_nodes=256, n_jobs=16, seed=0, trace=tracer)
    results = cs.run()
    lines = "\n".join(json.dumps(rec.as_dict(), sort_keys=True)
                      for rec in tracer.records)
    return results, lines


def test_cluster_trace_is_stable_across_runs(monkeypatch):
    """Back-to-back cluster runs replay identically: same counters, same
    trace bytes, with spares borrowed over the rack ring and denied."""
    res_a, lines_a = _cluster_trace_jsonl(monkeypatch)
    res_b, lines_b = _cluster_trace_jsonl(monkeypatch)
    assert res_a == res_b
    assert lines_a == lines_b
    assert res_a["jobs_completed"] == 16
    assert res_a["failures"] > 0
    assert res_a["remote_restarts"] > 0
    assert res_a["spare_denials"] > 0
