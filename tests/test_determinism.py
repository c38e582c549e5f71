"""Determinism: the simulated outcome is a function of the seed alone.

The Fig. 4 LU.C migration must replay the committed baseline trace
(``benchmarks/baseline_traces/migration_LU.C_file.jsonl.gz``) record for
record, down to the last bit of every float — with or without a
telemetry probe attached.  That pin catches a trace change across
commits, not only between two runs of the same tree.  The Fig. 7
CR(PVFS) checkpoint+restart, where 64 writers share large max-min
components, is pinned the same way by a digest of its trace, and so are
the pipelined memory restart, every baseline transport into each
restart mode's sink, and the Fig. 7 CR(ext3) cycle.

The cluster-scale scenario's contract is run-to-run stability: the same
seed replays the same JSONL and the same counters on every run, in a
scenario that borrows spares across racks and denies some requests.
"""

import hashlib
import json
import os

import pytest

from repro.analysis import first_difference, open_trace_text
from repro.experiments import FIG4, FIG7, PIPELINE, Run
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
    "b58ab480d442df2679b9e542736d1cfa9341ddb6647c9b5d94b59198acaff32f")
FIG7_CR_PVFS_RECORDS = 25741
FIG7_CR_PVFS_CYCLE_S = 26.91683

#: The same digest for the LU.C migration with the pipelined memory
#: restart (Sec. VI): the Fig. 4 pin covers only the file restart over
#: the RDMA buffer pool.
PIPELINE_MEMORY_TRACE_SHA256 = (
    "bb19d79a12065a3bb779ebb0eae71d6a0b60148ebadd50df02fa252e9cb803c3")
PIPELINE_MEMORY_RECORDS = 11735
PIPELINE_MEMORY_CYCLE_S = 1.782784

#: ``(cycle seconds, records kept, SHA-256)`` of runs whose checkpoint
#: bytes reach a sink the pins above do not cover: each baseline
#: transport (through the source's local disk for staging, over a
#: socket for tcp and ipoib) into each restart mode's sink, and the
#: Fig. 7 CR cycle through the node-local ext3 files.
PINNED_DIGESTS = {
    "staging": (Run(transport="staging"), (
        12.314102, 9105,
        "b113186ac9da45951906678f75cb49663a02927c9fb4e8149ae0db97e57e08a9")),
    "tcp": (Run(transport="tcp"), (
        7.160705, 9049,
        "e7958a15eceb4f4aa10a20a93116591592f0bc013ded903aed647bcd16d25875")),
    "ipoib": (Run(transport="ipoib"), (
        6.163645, 8873,
        "85e68ff903afacc7cf6779c94776fe5b1c449ba7457f64bbf18537bf55e10158")),
    "tcp-memory": (Run(transport="tcp", restart_mode="memory"), (
        2.851938, 8639,
        "1633b1df201a65dcb1159188f5c22ce410fe04923f674157b354d6d2fea49e7f")),
    "staging-memory": (Run(transport="staging", restart_mode="memory"), (
        7.994584, 8951,
        "31431d4d99f05ba1a9ff76b1c37d5ab02e1c6ff091cd4c9fc86e654dddeafd69")),
    "cr_ext3": (FIG7["LU.C"]["cr_ext3"], (
        13.37163, 18671,
        "3d918d1049cd99ac908d1734c93cff11d92db3d640ed9f7ce709be3df847be84")),
}

def _fig4_records(telemetry=False):
    """Run Fig. 4 LU.C file mode -> (total seconds, JSON-normalised records).

    Records go through a JSON round trip (tuples become lists) so they
    compare equal to rows read back from the pinned ``.jsonl.gz``.
    """
    tracer = Tracer()
    run = FIG4["LU.C"]
    sc = run.scenario(trace=tracer)
    if telemetry:
        from repro.simulate import TelemetryProbe
        sc.sim.attach_probe(TelemetryProbe())
    report = run.drive(sc)
    records = [json.loads(json.dumps(rec.as_dict(), default=str))
               for rec in tracer.records]
    return report.total_seconds, records


def _assert_matches_pin(records):
    """Telemetry samples aside, ``records`` equal the pin's; a failure
    names the first differing record (A = the pin, B = this run)."""
    with open_trace_text(PINNED_FIG4_TRACE) as fh:
        pinned = [json.loads(line) for line in fh if line.strip()]
    moved = first_difference(pinned, records)
    assert moved is None, f"trace differs from the pin at {moved}"


def test_fig4_trace_matches_pinned_artifact():
    """The Fig. 4 LU.C migration replays the committed baseline trace
    record for record."""
    total, records = _fig4_records()
    assert round(total, 6) == FIG4_TOTAL_S
    _assert_matches_pin(records)


def test_trace_is_identical_with_telemetry_enabled():
    """The telemetry probe is pure observation: its own records aside,
    the probed trace is the pinned probe-less trace exactly."""
    total, records = _fig4_records(telemetry=True)
    assert round(total, 6) == FIG4_TOTAL_S
    assert any(rec["kind"] == "telemetry.sample" for rec in records), \
        "probe must actually have sampled"
    _assert_matches_pin(records)


def test_fig4_trace_is_identical_when_run_twice_in_one_process():
    """Ids come from the simulation that allocates them (QP numbers from
    the fabric, descriptor seqs from the session, ...), so a second
    traced run in the same interpreter replays the first record for
    record."""
    _, first = _fig4_records()
    _, second = _fig4_records()
    moved = first_difference(first, second)
    assert moved is None, f"second run differs at {moved}"


def _digest(tracer):
    """``(records kept, SHA-256)`` of a trace: one sorted-key JSON line
    per record, ``fluid.recompute`` records dropped."""
    digest = hashlib.sha256()
    kept = 0
    for rec in tracer.records:
        if rec.kind == "fluid.recompute":
            continue
        kept += 1
        digest.update(json.dumps(rec.as_dict(), sort_keys=True,
                                 default=str).encode() + b"\n")
    return kept, digest.hexdigest()


def test_fig7_cr_pvfs_trace_matches_pinned_digest():
    """The Fig. 7 LU.C CR(PVFS) checkpoint and restart, driven by
    ``Scenario.run_cr_cycle``, replay the pinned trace digest, with every
    float in its exact repr."""
    tracer = Tracer()
    run = FIG7["LU.C"]["cr_pvfs"]
    ckpt, restart = run.scenario(trace=tracer).run_cr_cycle("pvfs")
    cycle = ckpt.total_seconds + restart.restart_seconds
    assert round(cycle, 6) == FIG7_CR_PVFS_CYCLE_S
    assert _digest(tracer) == (FIG7_CR_PVFS_RECORDS,
                               FIG7_CR_PVFS_TRACE_SHA256)


def _run_digest(run):
    """Drive one run traced -> (cycle seconds, kept, SHA-256)."""
    tracer = Tracer()
    result = run.drive(run.scenario(trace=tracer))
    if run.cr is None:
        cycle = result.total_seconds
    else:
        ckpt, restart = result
        cycle = ckpt.total_seconds + restart.restart_seconds
    return (round(cycle, 6),) + _digest(tracer)


def test_pipelined_memory_restart_trace_matches_pinned_digest():
    """The memory sink restarts each process inside Phase 2 as its image
    completes; that interleaving replays the pinned digest."""
    assert _run_digest(PIPELINE["memory"]) == (
        PIPELINE_MEMORY_CYCLE_S, PIPELINE_MEMORY_RECORDS,
        PIPELINE_MEMORY_TRACE_SHA256)


@pytest.mark.parametrize("name", list(PINNED_DIGESTS))
def test_run_trace_matches_pinned_digest(name):
    """Each baseline transport into either sink, and the CR(ext3) cycle,
    replay their pinned digests."""
    run, pinned = PINNED_DIGESTS[name]
    assert _run_digest(run) == pinned


def _cluster_trace_jsonl():
    """One seeded cluster-scale run -> (results dict, trace JSONL)."""
    from repro.cluster import ClusterScale

    tracer = Tracer()
    cs = ClusterScale(n_nodes=256, n_jobs=16, seed=0, trace=tracer)
    results = cs.run()
    lines = "\n".join(json.dumps(rec.as_dict(), sort_keys=True)
                      for rec in tracer.records)
    return results, lines


def test_cluster_trace_is_stable_across_runs():
    """Back-to-back cluster runs replay identically: same counters, same
    trace bytes, with spares borrowed over the rack ring and denied."""
    res_a, lines_a = _cluster_trace_jsonl()
    res_b, lines_b = _cluster_trace_jsonl()
    assert res_a == res_b
    assert lines_a == lines_b
    assert res_a["jobs_completed"] == 16
    assert res_a["failures"] > 0
    assert res_a["remote_restarts"] > 0
    assert res_a["spare_denials"] > 0
