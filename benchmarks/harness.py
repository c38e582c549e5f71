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

``run_benches`` additionally diffs every numeric leaf of ``results``
against the committed ``benchmarks/baselines.json`` and reports
regressions beyond a relative tolerance — the contract behind the CI
``bench-regression`` job and the ``repro bench`` subcommand.  Because
the simulator is deterministic, the default tolerance is tight; it
exists to absorb float-accumulation drift across platforms, not noise.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis import (
    atomic_write,
    build_span_dag,
    critical_path,
    cr_cycle_breakdown,
    diff_traces,
    dominant_component,
    migration_cycle_breakdown,
    migration_phase_breakdown,
    read_jsonl,
    render_explanation,
    speedup,
    write_jsonl,
)
from repro.scenario import Scenario
from repro.simulate import Tracer

from .paper_reference import (
    FIG4_TOTAL_S,
    FIG6_TOTAL_S,
    FIG7,
    HEADLINE_SPEEDUP_EXT3,
    HEADLINE_SPEEDUP_PVFS,
    TABLE1_MB,
)

__all__ = ["BENCH_SCHEMA_VERSION", "ABS_TOLERANCE_FLOOR", "BENCHES",
           "EXPLAIN_SCENARIOS", "run_bench", "run_benches",
           "compare_to_baselines", "flatten_results",
           "default_baselines_path", "baseline_trace_path"]

BENCH_SCHEMA_VERSION = 1
DEFAULT_REL_TOLERANCE = 0.05
#: Baselines with |value| at or below this are compared by absolute delta:
#: relative drift against a (near-)zero pin is numerically meaningless.
ABS_TOLERANCE_FLOOR = 1e-9


def default_baselines_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "baselines.json")


# -- building blocks ---------------------------------------------------------

#: Results of the scenarios simulated so far in one :func:`run_benches` call,
#: keyed by function name and bound arguments; ``None`` outside a call.
#: The benches share scenarios (LU.C.64 file mode alone feeds fig4, fig6
#: ppn8, fig7, table1 and pipeline) and a seeded run is deterministic, so
#: each distinct scenario is simulated once per call.
_memo: Optional[Dict[tuple, Any]] = None


def _memoizing(fn: Callable) -> Callable:
    """Cache :func:`_memoized` scenarios while ``fn`` runs; drop them after."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _memo
        _memo = {}
        try:
            return fn(*args, **kwargs)
        finally:
            _memo = None

    return wrapper


def _memoized(fn: Callable) -> Callable:
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _memo is None:
            return fn(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (fn.__name__,) + tuple(bound.arguments.values())
        if key not in _memo:
            _memo[key] = fn(*args, **kwargs)
        return _memo[key]

    return wrapper


@_memoized
def _traced_migration(app: str, nprocs: int = 64, n_compute: int = 8,
                      seed: int = 0,
                      restart_mode: str = "file") -> Tuple[Any, Tracer]:
    tracer = Tracer()
    sc = Scenario.build(app=app, nprocs=nprocs, n_compute=n_compute,
                        n_spare=1, iterations=40, seed=seed, trace=tracer,
                        restart_mode=restart_mode)
    report = sc.run_migration("node3", at=5.0)
    return report, tracer


@_memoized
def _cr_cycle(app: str, dest: str, seed: int = 0):
    sc = Scenario.build(app=app, nprocs=64, n_compute=8, n_spare=1,
                        iterations=40, seed=seed, with_pvfs=True)
    strategy = sc.cr_strategy(dest)

    def drive(sim):
        yield sim.timeout(5.0)
        ckpt = yield from strategy.checkpoint()
        restart = yield from strategy.restart()
        return ckpt, restart

    return sc.sim.run(until=sc.sim.spawn(drive(sc.sim)))


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

def bench_fig4(restart_mode: str = "file") -> Dict[str, Any]:
    """Fig. 4: migration phase breakdown, 64 ranks on 8 nodes, per app."""
    results: Dict[str, Any] = {}
    deltas: Dict[str, Any] = {}
    blames: Dict[str, Any] = {}
    dominants: Dict[str, Any] = {}
    for app in ("LU.C", "BT.C", "SP.C"):
        report, tracer = _traced_migration(app, restart_mode=restart_mode)
        results[app] = {k: round(v, 6)
                        for k, v in migration_phase_breakdown(report).items()}
        deltas[app] = {"total": _delta(report.total_seconds,
                                       FIG4_TOTAL_S[app])}
        blames[app], dominants[app] = _blame(tracer)
    return {"title": "Fig. 4 — migration phase breakdown (64 ranks)",
            "results": results, "paper_reference": FIG4_TOTAL_S,
            "paper_deltas": deltas, "critical_path": blames,
            "dominant": dominants}


def bench_fig6(restart_mode: str = "file") -> Dict[str, Any]:
    """Fig. 6: LU.C ranks/node sweep on 8 compute nodes."""
    results: Dict[str, Any] = {}
    deltas: Dict[str, Any] = {}
    blames: Dict[str, Any] = {}
    dominants: Dict[str, Any] = {}
    for ppn, paper_total in FIG6_TOTAL_S.items():
        report, tracer = _traced_migration("LU.C", nprocs=8 * ppn,
                                           restart_mode=restart_mode)
        key = f"ppn{ppn}"
        results[key] = {k: round(v, 6)
                        for k, v in migration_phase_breakdown(report).items()}
        deltas[key] = {"total": _delta(report.total_seconds, paper_total)}
        blames[key], dominants[key] = _blame(tracer)
    return {"title": "Fig. 6 — migration scalability (LU.C, ranks/node)",
            "results": results,
            "paper_reference": {f"ppn{k}": v
                                for k, v in FIG6_TOTAL_S.items()},
            "paper_deltas": deltas, "critical_path": blames,
            "dominant": dominants}


def bench_fig7(restart_mode: str = "file") -> Dict[str, Any]:
    """Fig. 7: one migration cycle vs full CR to ext3 and to PVFS."""
    results: Dict[str, Any] = {}
    deltas: Dict[str, Any] = {}
    blames: Dict[str, Any] = {}
    dominants: Dict[str, Any] = {}
    for app in ("LU.C", "BT.C"):
        report, tracer = _traced_migration(app, restart_mode=restart_mode)
        row: Dict[str, Any] = {
            "migration": {k: round(v, 6)
                          for k, v in migration_cycle_breakdown(report).items()}}
        for dest in ("ext3", "pvfs"):
            ckpt, restart = _cr_cycle(app, dest)
            row[f"cr_{dest}"] = {
                k: round(v, 6)
                for k, v in cr_cycle_breakdown(ckpt, restart).items()}
            cycle = ckpt.total_seconds + restart.restart_seconds
            row[f"speedup_{dest}"] = round(
                speedup(cycle, report.total_seconds), 4)
        results[app] = row
        blames[app], dominants[app] = _blame(tracer)
        app_deltas = {}
        ref = FIG7.get(app, {})
        if "ckpt_ext3" in ref:
            app_deltas["ckpt_ext3"] = _delta(
                row["cr_ext3"]["Checkpoint(Migration)"], ref["ckpt_ext3"])
        if "ckpt_pvfs" in ref:
            app_deltas["ckpt_pvfs"] = _delta(
                row["cr_pvfs"]["Checkpoint(Migration)"], ref["ckpt_pvfs"])
        if app == "LU.C":
            app_deltas["speedup_pvfs"] = _delta(row["speedup_pvfs"],
                                                HEADLINE_SPEEDUP_PVFS)
            app_deltas["speedup_ext3"] = _delta(row["speedup_ext3"],
                                                HEADLINE_SPEEDUP_EXT3)
        deltas[app] = app_deltas
    return {"title": "Fig. 7 — migration vs checkpoint/restart",
            "results": results, "paper_reference": FIG7,
            "paper_deltas": deltas, "critical_path": blames,
            "dominant": dominants}


def bench_table1(restart_mode: str = "file") -> Dict[str, Any]:
    """Table I: MB moved by migration vs dumped by CR, per app (exact)."""
    results: Dict[str, Any] = {}
    deltas: Dict[str, Any] = {}
    blames: Dict[str, Any] = {}
    dominants: Dict[str, Any] = {}
    for app in ("LU.C", "BT.C", "SP.C"):
        report, tracer = _traced_migration(app, restart_mode=restart_mode)
        ckpt, _ = _cr_cycle(app, "ext3")
        mig_mb = report.bytes_migrated / 1e6
        cr_mb = ckpt.bytes_written / 1e6
        results[app] = {"migration_mb": round(mig_mb, 6),
                        "cr_mb": round(cr_mb, 6)}
        deltas[app] = {
            "migration_mb": _delta(mig_mb, TABLE1_MB[app]["migration"]),
            "cr_mb": _delta(cr_mb, TABLE1_MB[app]["cr"]),
        }
        blames[app], dominants[app] = _blame(tracer)
    return {"title": "Table I — amount of data movement (MB)",
            "results": results, "paper_reference": TABLE1_MB,
            "paper_deltas": deltas, "critical_path": blames,
            "dominant": dominants}


def bench_pipeline(restart_mode: str = "file") -> Dict[str, Any]:
    """File-barrier vs pipelined memory restart on the Fig. 4 workload.

    Runs the same LU.C.64 migration twice — once with the Phase-3 file
    barrier (write every image, then restart) and once with the memory
    sink (restart each rank as soon as its image reassembles) — and
    reports the per-mode phase breakdown plus the memory-mode speedup.
    The ``restart_mode`` argument is ignored: this bench always runs
    both modes, that comparison *is* the measurement.
    """
    del restart_mode
    results: Dict[str, Any] = {}
    blames: Dict[str, Any] = {}
    dominants: Dict[str, Any] = {}
    totals: Dict[str, float] = {}
    for mode in ("file", "memory"):
        report, tracer = _traced_migration("LU.C", restart_mode=mode)
        results[mode] = {k: round(v, 6)
                         for k, v in migration_phase_breakdown(report).items()}
        totals[mode] = report.total_seconds
        blames[mode], dominants[mode] = _blame(tracer)
    results["memory_speedup"] = round(
        speedup(totals["file"], totals["memory"]), 4)
    return {"title": "Pipelined restart — file barrier vs memory sink "
                     "(LU.C, 64 ranks)",
            "results": results, "critical_path": blames,
            "dominant": dominants}


def _kernel_sweep() -> Tuple[Dict[str, float], float]:
    """Untraced Fig. 6 ranks/node sweep.

    Returns deterministic kernel counters (pinnable) and the wall time of
    the simulation runs alone (build excluded — scenario assembly is not
    what this family measures).
    """
    processed = cancelled = 0
    final_time = 0.0
    wall = 0.0
    for ppn in (1, 2, 4, 8):
        sc = Scenario.build(app="LU.C", nprocs=8 * ppn, n_compute=8,
                            n_spare=1, iterations=40, seed=0)
        t0 = time.perf_counter()
        sc.run_migration("node3", at=5.0)
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


def bench_events_per_sec(restart_mode: str = "file") -> Dict[str, Any]:
    """Kernel throughput family: Fig. 6 sweep + synthetic churn.

    The deterministic counters (events processed / cancelled, final sim
    time) go under ``results`` and are pinned in the baselines.
    Wall-clock throughput goes under ``throughput`` (outside the diffed
    section: wall time is hardware-dependent, not a regression).
    """
    del restart_mode
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


def bench_cluster_scale(restart_mode: str = "file") -> Dict[str, Any]:
    """Cluster-scale family: 1000 nodes / 50 jobs, failure-driven
    migration with spares borrowed around the rack ring."""
    del restart_mode
    return _cluster_run(1000, 50, "Cluster scale — 1000 nodes / 50 jobs")


def bench_cluster_smoke(restart_mode: str = "file") -> Dict[str, Any]:
    """CI-sized cluster scenario: 256 nodes / 16 jobs.

    The ``cluster-scale-smoke`` CI job runs exactly this family; it pins
    the same counters as ``cluster_scale`` at a fraction of the work.
    """
    del restart_mode
    return _cluster_run(256, 16, "Cluster smoke — 256 nodes / 16 jobs")


BENCHES: Dict[str, Callable[..., Dict[str, Any]]] = {
    "fig4": bench_fig4,
    "fig6": bench_fig6,
    "fig7": bench_fig7,
    "table1": bench_table1,
    "pipeline": bench_pipeline,
    "events_per_sec": bench_events_per_sec,
    "cluster_scale": bench_cluster_scale,
    "cluster_smoke": bench_cluster_smoke,
}


#: Canonical traced scenario behind each migration bench, as
#: ``(app, restart_mode)``.  When a bench regresses, the regression
#: explainer replays this scenario and diffs its trace against the
#: pinned baseline trace — the kernel-throughput family has no span
#: trace, so it is absent here and never explained.
EXPLAIN_SCENARIOS: Dict[str, Tuple[str, str]] = {
    "fig4": ("LU.C", "file"),
    "fig6": ("LU.C", "file"),
    "fig7": ("LU.C", "file"),
    "table1": ("LU.C", "file"),
    "pipeline": ("LU.C", "file"),
}


def baseline_trace_path(bench: str,
                        baselines_path: Optional[str] = None
                        ) -> Optional[str]:
    """Where the bench's pinned baseline trace lives (``None``: no trace).

    Traces are keyed by canonical scenario, not bench name — benches
    sharing one scenario share one pinned ``.jsonl.gz`` next to the
    baselines file, under ``baseline_traces/``.
    """
    scenario = EXPLAIN_SCENARIOS.get(bench)
    if scenario is None:
        return None
    app, mode = scenario
    root = os.path.dirname(os.path.abspath(
        baselines_path or default_baselines_path()))
    return os.path.join(root, "baseline_traces",
                        f"migration_{app}_{mode}.jsonl.gz")


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

    The canonical scenario is replayed at most once per distinct pinned
    trace (benches sharing a scenario share the replay), and the diff's
    headline is appended to the summary so CI logs name the guilty
    component without opening the artifact.
    """
    written: List[str] = []
    replays: Dict[str, Any] = {}
    for bench in regressed:
        pin = baseline_trace_path(bench, baselines_path)
        if pin is None:
            continue
        if not os.path.exists(pin):
            lines.append(f"  explain {bench}: no pinned baseline trace at "
                         f"{pin} (re-run with --update-baselines)")
            continue
        if pin not in replays:
            app, mode = EXPLAIN_SCENARIOS[bench]
            _, tracer = _traced_migration(app, restart_mode=mode)
            replays[pin] = tracer
        try:
            diff = diff_traces(read_jsonl(pin), replays[pin],
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

def run_bench(name: str, restart_mode: str = "file") -> Dict[str, Any]:
    """Run one bench; returns the full artifact dict (not yet written)."""
    fn = BENCHES[name]
    t0 = time.perf_counter()
    body = fn(restart_mode=restart_mode)
    artifact = {"schema_version": BENCH_SCHEMA_VERSION, "name": name,
                "restart_mode": restart_mode}
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
                         baselines: Dict[str, Any],
                         tolerance: Optional[float] = None) -> List[str]:
    """Regression messages (empty == clean).

    ``measured`` is ``{bench name: flattened results}``; ``baselines`` is
    the parsed ``baselines.json``.  Keys present in the baseline but
    missing from the measurement are regressions too (a silently dropped
    result must not pass).  Extra measured keys are informational only,
    so adding outputs does not require a lockstep baseline update.
    """
    tol = tolerance if tolerance is not None else baselines.get(
        "default_rel_tolerance", DEFAULT_REL_TOLERANCE)
    problems: List[str] = []
    for bench, expected in baselines.get("benches", {}).items():
        got = measured.get(bench)
        if got is None:
            continue  # bench not run this invocation
        for key, base in expected.items():
            if key not in got:
                problems.append(f"{bench}: baseline key {key!r} missing "
                                f"from results")
                continue
            value = got[key]
            diff = value - base
            if abs(base) <= ABS_TOLERANCE_FLOOR:
                # Near-zero baseline: a relative delta is meaningless —
                # dividing by ~0 either explodes on harmless float dust or
                # silently passes everything.  Compare absolutely instead.
                if abs(diff) > ABS_TOLERANCE_FLOOR:
                    problems.append(
                        f"{bench}: {key} = {value:.6g} moved off "
                        f"near-zero baseline {base:.6g} "
                        f"(|delta| {abs(diff):.3g} > absolute floor "
                        f"{ABS_TOLERANCE_FLOOR:g})")
                continue
            drift = diff / abs(base)
            if abs(drift) > tol:
                problems.append(
                    f"{bench}: {key} = {value:.6g} drifted "
                    f"{drift:+.1%} from baseline {base:.6g} "
                    f"(tolerance {tol:.1%})")
    return problems


@_memoizing
def run_benches(names: Optional[List[str]] = None, out_dir: str = ".",
                baselines_path: Optional[str] = None,
                update_baselines: bool = False,
                tolerance: Optional[float] = None,
                restart_mode: str = "file",
                progress_cb: Optional[Callable[[str], None]] = None
                ) -> Tuple[List[str], List[str], str]:
    """Run benches, write ``BENCH_<name>.json``, diff against baselines.

    Returns ``(artifact paths, regression messages, summary text)``.
    A ``restart_mode`` other than ``"file"`` changes what the migration
    benches measure, so their artifacts are written but the baselines
    diff (calibrated for file mode) is skipped with a note.
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
        artifact = run_bench(name, restart_mode=restart_mode)
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        with atomic_write(path) as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True, default=str)
        paths.append(path)
        measured[name] = flatten_results(artifact["results"])
        lines.append(f"{name:<8} wrote {path} "
                     f"({len(measured[name])} results, "
                     f"{artifact['wall_seconds']:.1f}s wall)")

    regressions: List[str] = []
    if restart_mode != "file" and not update_baselines:
        lines.append(f"restart_mode={restart_mode}: baselines diff skipped "
                     f"(baselines are calibrated for file mode)")
    elif update_baselines:
        benches: Dict[str, Any] = {}
        if os.path.exists(baselines_path):
            with open(baselines_path, "r", encoding="utf-8") as fh:
                benches = json.load(fh).get("benches", {})
        benches.update({n: {k: v for k, v in sorted(m.items())}
                        for n, m in measured.items()})
        doc = {"schema_version": BENCH_SCHEMA_VERSION,
               "default_rel_tolerance": DEFAULT_REL_TOLERANCE,
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
            app, mode = EXPLAIN_SCENARIOS[bench]
            _, tracer = _traced_migration(app, restart_mode=mode)
            n_rows = write_jsonl(tracer, pin)
            lines.append(f"pinned baseline trace: {pin} ({n_rows} records)")
    elif os.path.exists(baselines_path):
        with open(baselines_path, "r", encoding="utf-8") as fh:
            baselines = json.load(fh)
        regressions = compare_to_baselines(measured, baselines, tolerance)
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
            lines.append(f"all results within tolerance of {baselines_path}")
    else:
        lines.append(f"no baselines at {baselines_path} "
                     f"(run with --update-baselines to create)")
    return paths, regressions, "\n".join(lines)
