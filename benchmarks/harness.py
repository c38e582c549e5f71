"""Benchmark regression harness: machine-readable BENCH_*.json artifacts.

Each bench replays one of the paper's measurements (Fig. 4 phase
breakdown, Fig. 6 ranks/node sweep, Fig. 7 migration-vs-CR, Table I data
movement) on the seeded simulator and emits a schema-versioned JSON
artifact containing

* ``results`` — the sim-time numbers (deterministic for a fixed seed),
* ``paper_deltas`` — measured / paper-reference ratios,
* ``critical_path`` — per-phase per-component blame from the causal
  profiler, plus the dominant component,
* ``wall_seconds`` — how long the bench itself took to run.

``run_benches`` additionally compares every numeric leaf of ``results``
with the committed ``benchmarks/baselines.json`` and reports each one that
differs — the contract behind the CI ``bench-regression`` job and the
``repro bench`` subcommand.  The simulator is deterministic and every
result is rounded before it is pinned (6 decimals; 4 for speedups), so
the comparison is exact.

The runs themselves are defined in :mod:`repro.experiments`; each bench
here is a view of their results.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis import (
    atomic_write,
    build_span_dag,
    critical_path,
    diff_traces,
    dominant_component,
    migration_phase_breakdown,
    read_jsonl,
    render_explanation,
    speedup,
    write_jsonl,
)
from repro.experiments import (
    FIG4,
    FIG6,
    FIG7,
    PIPELINE,
    STORES,
    TABLE1,
    Run,
    fig7_row,
)
from repro.simulate import Tracer

from .paper_reference import (
    FIG4_TOTAL_S,
    FIG6_TOTAL_S,
    FIG7 as FIG7_PAPER,
    HEADLINE_SPEEDUP_EXT3,
    HEADLINE_SPEEDUP_PVFS,
    TABLE1_MB,
)

__all__ = ["BENCH_SCHEMA_VERSION", "BENCHES",
           "EXPLAIN_SCENARIOS", "run_bench", "run_benches",
           "compare_to_baselines", "flatten_results",
           "default_baselines_path", "baseline_trace_path"]

BENCH_SCHEMA_VERSION = 1


def default_baselines_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "baselines.json")


# -- building blocks ---------------------------------------------------------

#: Results of the runs simulated so far in one :func:`run_benches` call,
#: keyed by run; ``None`` outside a call.  The benches share runs (the
#: LU.C.64 file-mode migration alone feeds fig4, fig6 ppn8, fig7, table1
#: and pipeline) and a seeded run is deterministic, so each distinct run
#: is simulated once per call.
_memo: Optional[Dict[Run, Tuple[Any, Optional[Tracer]]]] = None


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


def _result(run: Run) -> Tuple[Any, Optional[Tracer]]:
    """``run``'s result, and its trace if it is a migration: the
    critical-path blame is read off migration traces only."""
    if _memo is not None and run in _memo:
        return _memo[run]
    tracer = Tracer() if run.cr is None else None
    out = (run.execute(trace=tracer), tracer)
    if _memo is not None:
        _memo[run] = out
    return out


def _blame(tracer: Tracer) -> Tuple[Dict[str, Dict[str, float]],
                                    Dict[str, float]]:
    cp = critical_path(build_span_dag(tracer))
    blame = {phase: {comp: round(sec, 6) for comp, sec in comps.items()}
             for phase, comps in cp.blame().items()}
    name, sec = dominant_component(cp)
    return blame, {"component": name, "seconds": round(sec, 6),
                   "share": round(sec / max(cp.total, 1e-12), 4)}


def _delta(measured: float, paper: float) -> Dict[str, float]:
    return {"measured": round(measured, 6), "paper": paper,
            "ratio": round(measured / paper, 4) if paper else float("inf")}


# -- the benches -------------------------------------------------------------

def _artifact(title: str, rows: Dict[Any, Tuple[Dict[str, Any], Any, Tracer]],
              paper: Optional[Dict[Any, Any]] = None) -> Dict[str, Any]:
    """A bench body from ``{key: (results, paper deltas, migration trace)}``:
    each key's results and deltas, and the critical-path blame of its
    trace."""
    blames = {key: _blame(tracer) for key, (_, _, tracer) in rows.items()}
    body = {"title": title,
            "results": {key: row for key, (row, _, _) in rows.items()},
            "critical_path": {key: blame for key, (blame, _) in blames.items()},
            "dominant": {key: dom for key, (_, dom) in blames.items()}}
    if paper is not None:
        body["paper_reference"] = paper
        body["paper_deltas"] = {key: d for key, (_, d, _) in rows.items()}
    return body


def _phases(report) -> Dict[str, float]:
    return {k: round(v, 6)
            for k, v in migration_phase_breakdown(report).items()}


def _migrations(runs: Dict[str, Run], paper_totals: Dict[str, float]
                ) -> Dict[str, Tuple[Dict, Dict, Tracer]]:
    rows = {}
    for key, run in runs.items():
        report, tracer = _result(run)
        rows[key] = (_phases(report),
                     {"total": _delta(report.total_seconds,
                                      paper_totals[key])}, tracer)
    return rows


def bench_fig4() -> Dict[str, Any]:
    """Fig. 4: migration phase breakdown, 64 ranks on 8 nodes, per app."""
    return _artifact("Fig. 4 — migration phase breakdown (64 ranks)",
                     _migrations(FIG4, FIG4_TOTAL_S),
                     FIG4_TOTAL_S)


def bench_fig6() -> Dict[str, Any]:
    """Fig. 6: LU.C ranks/node sweep on 8 compute nodes."""
    runs = {f"ppn{ppn}": run for ppn, run in FIG6.items()}
    paper = {f"ppn{ppn}": total for ppn, total in FIG6_TOTAL_S.items()}
    return _artifact("Fig. 6 — migration scalability (LU.C, ranks/node)",
                     _migrations(runs, paper), paper)


def bench_fig7() -> Dict[str, Any]:
    """Fig. 7: one migration cycle vs full CR to ext3 and to PVFS."""
    rows = {}
    for app, runs in FIG7.items():
        row = fig7_row({kind: _result(run)[0] for kind, run in runs.items()})
        # Pinning precision: speedups to 4 decimals, seconds to 6.
        row = {k: round(v, 4) if k.startswith("speedup")
               else {kk: round(vv, 6) for kk, vv in v.items()}
               for k, v in row.items()}
        ref = FIG7_PAPER.get(app, {})
        deltas = {f"ckpt_{store}": _delta(
                      row[f"cr_{store}"]["Checkpoint(Migration)"],
                      ref[f"ckpt_{store}"])
                  for store in STORES if f"ckpt_{store}" in ref}
        if app == "LU.C":
            deltas["speedup_pvfs"] = _delta(row["speedup_pvfs"],
                                            HEADLINE_SPEEDUP_PVFS)
            deltas["speedup_ext3"] = _delta(row["speedup_ext3"],
                                            HEADLINE_SPEEDUP_EXT3)
        rows[app] = (row, deltas, _result(runs["migration"])[1])
    return _artifact("Fig. 7 — migration vs checkpoint/restart", rows,
                     FIG7_PAPER)


def bench_table1() -> Dict[str, Any]:
    """Table I: MB moved by migration vs dumped by CR, per app (exact)."""
    rows = {}
    for app, runs in TABLE1.items():
        report, tracer = _result(runs["migration"])
        (ckpt, _), _ = _result(runs["cr"])
        mig_mb = report.bytes_migrated / 1e6
        cr_mb = ckpt.bytes_written / 1e6
        rows[app] = (
            {"migration_mb": round(mig_mb, 6), "cr_mb": round(cr_mb, 6)},
            {"migration_mb": _delta(mig_mb, TABLE1_MB[app]["migration"]),
             "cr_mb": _delta(cr_mb, TABLE1_MB[app]["cr"])},
            tracer)
    return _artifact("Table I — amount of data movement (MB)", rows,
                     TABLE1_MB)


def bench_pipeline() -> Dict[str, Any]:
    """File-barrier vs pipelined memory restart on the Fig. 4 workload.

    Runs the same LU.C.64 migration twice — once with the Phase-3 file
    barrier (write every image, then restart) and once with the memory
    sink (restart each rank as soon as its image reassembles) — and
    reports the per-mode phase breakdown plus the memory-mode speedup.
    """
    reports = {mode: _result(run) for mode, run in PIPELINE.items()}
    body = _artifact("Pipelined restart — file barrier vs memory sink "
                     "(LU.C, 64 ranks)",
                     {mode: (_phases(report), None, tracer)
                      for mode, (report, tracer) in reports.items()})
    body["results"]["memory_speedup"] = round(
        speedup(reports["file"][0].total_seconds,
                reports["memory"][0].total_seconds), 4)
    return body


def _kernel_sweep() -> Tuple[Dict[str, float], float]:
    """Untraced Fig. 6 ranks/node sweep.

    Returns deterministic kernel counters (pinnable) and the wall time of
    the simulation runs alone (build excluded — scenario assembly is not
    what this family measures).
    """
    processed = cancelled = 0
    final_time = 0.0
    wall = 0.0
    for run in FIG6.values():
        sc = run.scenario()
        t0 = time.perf_counter()
        run.drive(sc)
        wall += time.perf_counter() - t0
        processed += sc.sim.events_processed
        cancelled += sc.sim.events_cancelled
        final_time += sc.sim.now
    return ({"events_processed": float(processed),
             "events_cancelled": float(cancelled),
             "final_time": round(final_time, 6)}, wall)


def _kernel_churn() -> Tuple[Dict[str, float], float]:
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
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return ({"events_processed": float(sim.events_processed),
             "events_cancelled": float(sim.events_cancelled),
             "final_time": round(sim.now, 6)}, wall)


def bench_events_per_sec() -> Dict[str, Any]:
    """Kernel throughput family: Fig. 6 sweep + synthetic churn.

    The deterministic counters (events processed / cancelled, final sim
    time) go under ``results`` and are pinned in the baselines.
    Wall-clock throughput goes under ``throughput`` (outside the diffed
    section: wall time is hardware-dependent, not a regression).
    """
    results: Dict[str, Any] = {}
    throughput: Dict[str, Any] = {}
    for workload, runner in (("fig6_sweep", _kernel_sweep),
                             ("churn", _kernel_churn)):
        counts, wall = runner()
        results[workload] = counts
        throughput[workload] = {
            "wall_seconds": round(wall, 4),
            "events_per_sec": round(counts["events_processed"]
                                    / max(wall, 1e-9)),
        }
    return {"title": "Kernel throughput — events/sec",
            "results": results, "throughput": throughput}


def _cluster_run(n_nodes: int, n_jobs: int, title: str) -> Dict[str, Any]:
    """One seeded cluster-scale run: every scenario counter pinned, wall
    time under ``throughput`` (informational, never diffed)."""
    from repro.cluster.scale import ClusterScale

    cs = ClusterScale(n_nodes=n_nodes, n_jobs=n_jobs, seed=0)
    t0 = time.perf_counter()
    counters = {k: float(v) for k, v in cs.run().items()}
    wall = time.perf_counter() - t0
    return {"title": title, "results": counters,
            "throughput": {
                "wall_seconds": round(wall, 4),
                "events_per_sec": round(counters["events_processed"]
                                        / max(wall, 1e-9)),
            }}


def bench_cluster_scale() -> Dict[str, Any]:
    """Cluster-scale family: 1000 nodes / 50 jobs, failure-driven
    migration with spares borrowed around the rack ring."""
    return _cluster_run(1000, 50, "Cluster scale — 1000 nodes / 50 jobs")


def bench_cluster_smoke() -> Dict[str, Any]:
    """CI-sized cluster scenario: 256 nodes / 16 jobs.

    The ``cluster-scale-smoke`` CI job runs exactly this family; it pins
    the same counters as ``cluster_scale`` at a fraction of the work.
    """
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


#: Canonical traced run behind each migration bench.  When a bench
#: regresses, the regression explainer replays this run and diffs its
#: trace against the pinned baseline trace — the kernel-throughput family
#: has no span trace, so it is absent here and never explained.
EXPLAIN_SCENARIOS: Dict[str, Run] = {
    bench: FIG4["LU.C"]
    for bench in ("fig4", "fig6", "fig7", "table1", "pipeline")}


def baseline_trace_path(bench: str,
                        baselines_path: Optional[str] = None
                        ) -> Optional[str]:
    """Where the bench's pinned baseline trace lives (``None``: no trace).

    Traces are keyed by canonical run, not bench name — benches sharing
    one run share one pinned ``.jsonl.gz`` next to the baselines file,
    under ``baseline_traces/``.
    """
    run = EXPLAIN_SCENARIOS.get(bench)
    if run is None:
        return None
    root = os.path.dirname(os.path.abspath(
        baselines_path or default_baselines_path()))
    return os.path.join(root, "baseline_traces",
                        f"migration_{run.app}_{run.restart_mode}.jsonl.gz")


def _explain_headline(text: str) -> str:
    for line in text.splitlines():
        if line.startswith("dominant delta component:"):
            return line
    return "(no dominant delta component)"


def _explain_regressions(regressed: List[str], out_dir: str,
                         baselines_path: str,
                         lines: List[str]) -> List[str]:
    """Render ``EXPLAIN_<bench>.md`` for each regressed bench with a
    pinned baseline trace; returns the paths written.

    The canonical run is replayed at most once (benches sharing a run
    share the replay), and the diff's headline is appended to the summary
    so CI logs name the guilty component without opening the artifact.
    """
    written: List[str] = []
    for bench in regressed:
        pin = baseline_trace_path(bench, baselines_path)
        if pin is None:
            continue
        if not os.path.exists(pin):
            lines.append(f"  explain {bench}: no pinned baseline trace at "
                         f"{pin} (re-run with --update-baselines)")
            continue
        _, tracer = _result(EXPLAIN_SCENARIOS[bench])
        try:
            diff = diff_traces(read_jsonl(pin), tracer,
                               label_a="pinned baseline",
                               label_b="current")
        except ValueError as exc:
            lines.append(f"  explain {bench}: diff failed ({exc})")
            continue
        text = render_explanation(diff)
        path = os.path.join(out_dir, f"EXPLAIN_{bench}.md")
        with atomic_write(path) as fh:
            fh.write(text)
        written.append(path)
        lines.append(f"  explain {bench}: {_explain_headline(text)} "
                     f"-> {path}")
    return written


# -- artifacts and baselines -------------------------------------------------

def run_bench(name: str) -> Dict[str, Any]:
    """Run one bench; returns the full artifact dict (not yet written)."""
    fn = BENCHES[name]
    t0 = time.perf_counter()
    body = fn()
    artifact = {"schema_version": BENCH_SCHEMA_VERSION, "name": name}
    artifact.update(body)
    artifact["wall_seconds"] = round(time.perf_counter() - t0, 3)
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
    before it runs — the CLI's ``--progress`` heartbeat.
    """
    names = list(names) if names else list(BENCHES)
    unknown = [n for n in names if n not in BENCHES]
    if unknown:
        raise ValueError(f"unknown benches {unknown}; "
                         f"available: {sorted(BENCHES)}")
    baselines_path = baselines_path or default_baselines_path()
    os.makedirs(out_dir, exist_ok=True)

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
    if update_baselines:
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
        pins = sorted({p for p in (baseline_trace_path(n, baselines_path)
                                   for n in names) if p is not None})
        for pin in pins:
            os.makedirs(os.path.dirname(pin), exist_ok=True)
            bench = next(n for n in names
                         if baseline_trace_path(n, baselines_path) == pin)
            _, tracer = _result(EXPLAIN_SCENARIOS[bench])
            n_rows = write_jsonl(tracer, pin)
            lines.append(f"pinned baseline trace: {pin} ({n_rows} records)")
    elif os.path.exists(baselines_path):
        with open(baselines_path, "r", encoding="utf-8") as fh:
            baselines = json.load(fh)
        regressions = compare_to_baselines(measured, baselines)
        if regressions:
            lines.append(f"REGRESSIONS ({len(regressions)}):")
            lines.extend(f"  {msg}" for msg in regressions)
            # Regression messages lead with "<bench>: ", so the set of
            # regressed benches falls out of the messages themselves.
            regressed = sorted({msg.split(":", 1)[0] for msg in regressions
                                if ":" in msg})
            paths.extend(_explain_regressions(regressed, out_dir,
                                              baselines_path, lines))
        else:
            lines.append(f"all results match {baselines_path}")
    else:
        lines.append(f"no baselines at {baselines_path} "
                     f"(run with --update-baselines to create)")
    return paths, regressions, "\n".join(lines)
