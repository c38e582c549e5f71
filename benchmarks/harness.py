"""Benchmark regression harness: pinned results in BENCH_*.json artifacts.

Each bench replays one of the paper's measurements (Fig. 4 phase
breakdown, Fig. 6 ranks/node sweep, Fig. 7 migration-vs-CR, Table I data
movement) or a kernel/cluster workload on the seeded simulator and emits
a schema-versioned JSON artifact holding its ``title``, its ``results``
(sim-time numbers and counts, deterministic for a fixed seed) and the
``wall_seconds`` the bench took.

``run_benches`` compares every numeric leaf of ``results`` with the
committed ``benchmarks/baselines.json`` and reports each one that
differs — the contract behind the CI ``bench-regression`` job and the
``repro bench`` subcommand.  The simulator is deterministic and every
result is rounded before it is pinned (6 decimals; 4 for speedups), so
the comparison is exact.  Benches run untraced; ``--update-baselines``
also pins the trace of the Fig. 4 LU.C run, which
``repro explain <pinned trace> <run_id>`` diffs against a recorded run
when a pin moves.

The runs themselves are defined in :mod:`repro.experiments`; each bench
here is a view of their results.  How far they are from the paper is
``repro validate``'s question, where the time went is ``repro report``'s,
and wall time is ``python -m bench``'s.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis import (
    atomic_write,
    speedup,
    write_jsonl,
)
from repro.experiments import FIG4, FIG6, FIG7, PIPELINE, TABLE1, Run, fig7_row
from repro.obs import start_clock, stop_clock
from repro.simulate import Tracer

__all__ = ["BENCH_SCHEMA_VERSION", "BENCHES", "PINNED_RUN", "PINNED_TRACE",
           "run_bench", "run_benches", "compare_to_baselines",
           "flatten_results", "default_baselines_path",
           "baseline_trace_path"]

BENCH_SCHEMA_VERSION = 1

#: The run whose trace ``--update-baselines`` pins: the Fig. 4 LU.C
#: migration with a file restart.
PINNED_RUN = FIG4["LU.C"]
#: Where that trace lives, relative to the baselines file.
PINNED_TRACE = os.path.join("baseline_traces",
                            "migration_LU.C_file.jsonl.gz")


def default_baselines_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "baselines.json")


def baseline_trace_path(baselines_path: Optional[str] = None) -> str:
    """The pinned trace next to ``baselines_path`` (default: the
    committed baselines)."""
    root = os.path.dirname(os.path.abspath(
        baselines_path or default_baselines_path()))
    return os.path.join(root, PINNED_TRACE)


# -- building blocks ---------------------------------------------------------

#: ``(result, kernel counters)`` of the runs simulated so far in one
#: :func:`run_benches` call, keyed by run; ``None`` outside a call.  The
#: benches share runs (the LU.C.64 file-mode migration alone feeds fig4,
#: fig6 ppn8, fig7, table1 and pipeline) and a seeded run is
#: deterministic, so each distinct run is simulated once per call.
_memo: Optional[Dict[Run, Tuple[Any, Dict[str, float]]]] = None


def _memoizing(fn: Callable) -> Callable:
    """Cache :func:`_result` runs while ``fn`` runs; drop them after."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _memo
        _memo = {}
        try:
            return fn(*args, **kwargs)
        finally:
            _memo = None

    return wrapper


def _simulate(run: Run, trace=None) -> Tuple[Any, Dict[str, float]]:
    """``run``'s result and its simulator's kernel counters."""
    sc = run.scenario(trace=trace)
    out = run.drive(sc)
    sim = sc.sim
    return out, {"events_processed": sim.events_processed,
                 "events_cancelled": sim.events_cancelled,
                 "final_time": sim.now}


def _simulated(run: Run) -> Tuple[Any, Dict[str, float]]:
    """:func:`_simulate` unless this call has simulated ``run`` already."""
    if _memo is not None and run in _memo:
        return _memo[run]
    entry = _simulate(run)
    if _memo is not None:
        _memo[run] = entry
    return entry


def _result(run: Run) -> Any:
    return _simulated(run)[0]


# -- the benches -------------------------------------------------------------

def _phases(report) -> Dict[str, float]:
    return {k: round(v, 6)
            for k, v in report.as_row().items()}


def _migrations(title: str, runs: Dict[str, Run]) -> Dict[str, Any]:
    return {"title": title,
            "results": {key: _phases(_result(run))
                        for key, run in runs.items()}}


def bench_fig4() -> Dict[str, Any]:
    """Fig. 4: migration phase breakdown, 64 ranks on 8 nodes, per app."""
    return _migrations("Fig. 4 — migration phase breakdown (64 ranks)", FIG4)


def bench_fig6() -> Dict[str, Any]:
    """Fig. 6: LU.C ranks/node sweep on 8 compute nodes."""
    return _migrations("Fig. 6 — migration scalability (LU.C, ranks/node)",
                       {f"ppn{ppn}": run for ppn, run in FIG6.items()})


def bench_fig7() -> Dict[str, Any]:
    """Fig. 7: one migration cycle vs full CR to ext3 and to PVFS."""
    results = {}
    for app, runs in FIG7.items():
        row = fig7_row({kind: _result(run) for kind, run in runs.items()})
        # Pinning precision: speedups to 4 decimals, seconds to 6.
        results[app] = {k: round(v, 4) if k.startswith("speedup")
                        else {kk: round(vv, 6) for kk, vv in v.items()}
                        for k, v in row.items()}
    return {"title": "Fig. 7 — migration vs checkpoint/restart",
            "results": results}


def bench_table1() -> Dict[str, Any]:
    """Table I: MB moved by migration vs dumped by CR, per app (exact)."""
    results = {}
    for app, runs in TABLE1.items():
        report = _result(runs["migration"])
        ckpt, _ = _result(runs["cr"])
        results[app] = {"migration_mb": round(report.bytes_migrated / 1e6, 6),
                        "cr_mb": round(ckpt.bytes_written / 1e6, 6)}
    return {"title": "Table I — amount of data movement (MB)",
            "results": results}


def bench_pipeline() -> Dict[str, Any]:
    """File-barrier vs pipelined memory restart on the Fig. 4 workload.

    Runs the same LU.C.64 migration twice — once with the Phase-3 file
    barrier (write every image, then restart) and once with the memory
    sink (restart each rank as soon as its image reassembles) — and
    reports the per-mode phase breakdown plus the memory-mode speedup.
    """
    reports = {mode: _result(run) for mode, run in PIPELINE.items()}
    results: Dict[str, Any] = {mode: _phases(report)
                               for mode, report in reports.items()}
    results["memory_speedup"] = round(
        speedup(reports["file"].total_seconds,
                reports["memory"].total_seconds), 4)
    return {"title": "Pipelined restart — file barrier vs memory sink "
                     "(LU.C, 64 ranks)",
            "results": results}


def _kernel_sweep() -> Dict[str, float]:
    """Kernel counters of the untraced Fig. 6 ranks/node sweep."""
    processed = cancelled = 0
    final_time = 0.0
    for run in FIG6.values():
        kernel = _simulated(run)[1]
        processed += kernel["events_processed"]
        cancelled += kernel["events_cancelled"]
        final_time += kernel["final_time"]
    return {"events_processed": float(processed),
            "events_cancelled": float(cancelled),
            "final_time": round(final_time, 6)}


def _kernel_churn() -> Dict[str, float]:
    """Synthetic kernel-churn workload: timer races + store ping-pong.

    Every ``fast | slow`` race leaves a losing timeout that the kernel
    must drop as a cancelled straggler, so this workload pins the lazy
    cancellation machinery, not just raw dispatch.  Fully deterministic:
    delays come from small modular arithmetic, no RNG.
    """
    from repro.simulate.core import Simulator
    from repro.simulate.resources import Store

    sim = Simulator()
    n_workers, n_rounds = 64, 40

    def racer(i: int):
        for r in range(n_rounds):
            fast = sim.timeout(((i * 7 + r) % 5) + 1.0)
            slow = sim.timeout(((i * 3 + r) % 5) + 7.0)
            yield fast | slow
        return i

    ping: Store = Store(sim)
    pong: Store = Store(sim)

    def pinger():
        for r in range(n_workers * 4):
            ping.put(r)
            got = yield pong.get()
            assert got == r

    def ponger():
        for _ in range(n_workers * 4):
            got = yield ping.get()
            pong.put(got)

    for i in range(n_workers):
        sim.spawn(racer(i), name=f"racer-{i}")
    sim.spawn(pinger(), name="pinger")
    sim.spawn(ponger(), name="ponger")
    sim.run()
    return {"events_processed": float(sim.events_processed),
            "events_cancelled": float(sim.events_cancelled),
            "final_time": round(sim.now, 6)}


def bench_events_per_sec() -> Dict[str, Any]:
    """Kernel event counts: the Fig. 6 sweep and a synthetic churn.

    Pins events processed and cancelled and the final sim time of each
    workload.  The family keeps its name, but events per second are wall
    time, which ``python -m bench`` measures.
    """
    return {"title": "Kernel event counts — Fig. 6 sweep and churn",
            "results": {"fig6_sweep": _kernel_sweep(),
                        "churn": _kernel_churn()}}


def _cluster_run(n_nodes: int, n_jobs: int, title: str) -> Dict[str, Any]:
    """One seeded cluster-scale run with every scenario counter pinned."""
    from repro.cluster.scale import ClusterScale

    cs = ClusterScale(n_nodes=n_nodes, n_jobs=n_jobs, seed=0)
    return {"title": title,
            "results": {k: float(v) for k, v in cs.run().items()}}


def bench_cluster_scale() -> Dict[str, Any]:
    """Cluster-scale family: 1000 nodes / 50 jobs, failure-driven
    migration with spares borrowed around the rack ring."""
    return _cluster_run(1000, 50, "Cluster scale — 1000 nodes / 50 jobs")


def bench_cluster_smoke() -> Dict[str, Any]:
    """CI-sized cluster scenario: 256 nodes / 16 jobs, the same counters
    as ``cluster_scale`` at a fraction of the work."""
    return _cluster_run(256, 16, "Cluster smoke — 256 nodes / 16 jobs")


BENCHES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "fig4": bench_fig4,
    "fig6": bench_fig6,
    "fig7": bench_fig7,
    "table1": bench_table1,
    "pipeline": bench_pipeline,
    "events_per_sec": bench_events_per_sec,
    "cluster_scale": bench_cluster_scale,
    "cluster_smoke": bench_cluster_smoke,
}


# -- artifacts and baselines -------------------------------------------------

def run_bench(name: str) -> Dict[str, Any]:
    """Run one bench; returns the full artifact dict (not yet written)."""
    fn = BENCHES[name]
    t0 = start_clock()
    body = fn()
    artifact = {"schema_version": BENCH_SCHEMA_VERSION, "name": name}
    artifact.update(body)
    artifact["wall_seconds"] = round(stop_clock(t0), 3)
    return artifact


def flatten_results(obj: Any, prefix: str = "") -> Dict[str, float]:
    """Dotted-key map of every numeric leaf under ``results``."""
    out: Dict[str, float] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(flatten_results(value,
                                       f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    return out


def compare_to_baselines(measured: Dict[str, Dict[str, float]],
                         baselines: Dict[str, Any]) -> List[str]:
    """Regression messages (empty == clean).

    ``measured`` is ``{bench name: flattened results}``; ``baselines`` is
    the parsed ``baselines.json``.  Every pinned value must be reproduced
    exactly: the simulator is deterministic and results are rounded
    before they are pinned, so any difference is a change in what the
    simulation computes.  Keys present in the baseline but missing from
    the measurement are regressions too (a silently dropped result must
    not pass).  Extra measured keys are informational only, so adding
    outputs does not require a lockstep baseline update.
    """
    problems: List[str] = []
    for bench, expected in baselines.get("benches", {}).items():
        got = measured.get(bench)
        if got is None:
            continue  # bench not run this invocation
        for key, base in expected.items():
            if key not in got:
                problems.append(f"{bench}: baseline key {key!r} missing "
                                f"from results")
            elif got[key] != base:
                problems.append(
                    f"{bench}: {key} = {got[key]!r} drifted "
                    f"{got[key] - base:+.6g} from baseline {base!r}")
    return problems


@_memoizing
def run_benches(names: Optional[List[str]] = None, out_dir: str = ".",
                baselines_path: Optional[str] = None,
                update_baselines: bool = False,
                progress_cb: Optional[Callable[[str], None]] = None
                ) -> Tuple[List[str], List[str], str]:
    """Run benches, write ``BENCH_<name>.json``, diff against baselines.

    Returns ``(artifact paths, regression messages, summary text)``.
    ``progress_cb`` (if given) is called with each bench's name just
    before it runs — the CLI's ``--progress`` heartbeat.  With
    ``update_baselines`` the results are pinned instead of diffed, and
    :data:`PINNED_RUN`'s trace is pinned at :func:`baseline_trace_path`.
    """
    names = list(names) if names else list(BENCHES)
    unknown = [n for n in names if n not in BENCHES]
    if unknown:
        raise ValueError(f"unknown benches {unknown}; "
                         f"available: {sorted(BENCHES)}")
    baselines_path = baselines_path or default_baselines_path()
    os.makedirs(out_dir, exist_ok=True)

    tracer = None
    if update_baselines:
        # Traced here and memoized: the benches that share the pinned
        # run reuse it rather than simulate it again untraced.
        tracer = Tracer()
        _memo[PINNED_RUN] = _simulate(PINNED_RUN, trace=tracer)

    paths: List[str] = []
    measured: Dict[str, Dict[str, float]] = {}
    lines: List[str] = []
    for name in names:
        if progress_cb is not None:
            progress_cb(name)
        artifact = run_bench(name)
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        with atomic_write(path) as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True, default=str)
        paths.append(path)
        measured[name] = flatten_results(artifact["results"])
        lines.append(f"{name:<8} wrote {path} "
                     f"({len(measured[name])} results, "
                     f"{artifact['wall_seconds']:.1f}s wall)")

    regressions: List[str] = []
    if tracer is not None:
        benches: Dict[str, Any] = {}
        if os.path.exists(baselines_path):
            with open(baselines_path, "r", encoding="utf-8") as fh:
                benches = json.load(fh).get("benches", {})
        benches.update({n: {k: v for k, v in sorted(m.items())}
                        for n, m in measured.items()})
        doc = {"schema_version": BENCH_SCHEMA_VERSION,
               "benches": {k: benches[k] for k in sorted(benches)}}
        with atomic_write(baselines_path) as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        lines.append(f"updated baselines: {baselines_path}")
        pin = baseline_trace_path(baselines_path)
        os.makedirs(os.path.dirname(pin), exist_ok=True)
        n_rows = write_jsonl(tracer, pin)
        lines.append(f"pinned baseline trace: {pin} ({n_rows} records)")
    elif os.path.exists(baselines_path):
        with open(baselines_path, "r", encoding="utf-8") as fh:
            baselines = json.load(fh)
        regressions = compare_to_baselines(measured, baselines)
        if regressions:
            lines.append(f"REGRESSIONS ({len(regressions)}):")
            lines.extend(f"  {msg}" for msg in regressions)
        else:
            lines.append(f"all results match {baselines_path}")
    else:
        lines.append(f"no baselines at {baselines_path} "
                     f"(run with --update-baselines to create)")
    return paths, regressions, "\n".join(lines)
