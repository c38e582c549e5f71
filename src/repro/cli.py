"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro migrate   --app LU.C --source node3
    python -m repro compare   --app BT.C
    python -m repro scale     --ppn 1 2 4 8
    python -m repro interval  --mtbf-hours 6 --coverage 0.9
    python -m repro observe   --app LU.C --out-dir ./obs
    python -m repro critical-path --app LU.C
    python -m repro bench     --out-dir ./bench-out
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional

import numpy as np

from .analysis import (
    atomic_write,
    build_span_dag,
    cr_cycle_breakdown,
    critical_path,
    daly_interval,
    diff_traces,
    dominant_component,
    effective_mtbf,
    extract_phases,
    migration_cycle_breakdown,
    migration_phase_breakdown,
    read_jsonl,
    render_blame,
    render_explanation,
    render_table,
    render_timeline,
    render_waterfall,
    simulate_policy,
    speedup,
    summarize_trace,
    telemetry_series,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
    write_openmetrics,
)
from .obs import (
    ProgressReporter,
    RunManifest,
    diff_runs,
    list_runs,
    load_manifest,
    render_run_report,
    report_to_html,
    resolve_runs_dir,
    start_clock,
    stop_clock,
    trace_artifact,
    write_manifest,
)
from .params import NPB_TABLE
from .scenario import Scenario
from .simulate.metrics import MetricsRegistry
from .simulate.telemetry import TelemetryProbe
from .simulate.trace import Tracer

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RDMA-based job migration framework — reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--app", default="LU.C", choices=sorted(NPB_TABLE),
                       help="NPB application (default LU.C)")
        p.add_argument("--nprocs", type=int, default=64)
        p.add_argument("--nodes", type=int, default=8)
        p.add_argument("--seed", type=int, default=0)

    def registry_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--runs-dir", default=None, metavar="DIR",
                       help="run-registry directory (default: "
                            "$REPRO_RUNS_DIR or ./runs)")
        p.add_argument("--no-manifest", action="store_true",
                       help="do not record this run in the run registry")
        p.add_argument("--progress", action="store_true",
                       help="print a wall-clock heartbeat to stderr while "
                            "the run is in flight")

    mig = sub.add_parser("migrate", help="one migration cycle + timeline")
    common(mig)
    registry_flags(mig)
    mig.add_argument("--source", default="node3")
    mig.add_argument("--transport", default="rdma",
                     choices=["rdma", "ipoib", "tcp", "staging"])
    mig.add_argument("--restart-mode", default="file",
                     choices=["file", "memory"])
    mig.add_argument("--trace-out", default=None, metavar="PATH",
                     help="also export the run's trace as JSONL (feed to "
                          "`repro sanitize --from-jsonl`)")

    cmp_ = sub.add_parser("compare",
                          help="migration vs CR(ext3) vs CR(PVFS) (Fig. 7)")
    common(cmp_)
    registry_flags(cmp_)
    cmp_.add_argument("--restart-mode", default="file",
                      choices=["file", "memory"],
                      help="migration restart path: file barrier or "
                           "pipelined memory restart")

    scale = sub.add_parser("scale", help="ranks/node sweep (Fig. 6)")
    scale.add_argument("--ppn", type=int, nargs="+", default=[1, 2, 4, 8])
    scale.add_argument("--seed", type=int, default=0)

    interval = sub.add_parser(
        "interval", help="checkpoint-interval extension study (Sec. VI)")
    interval.add_argument("--mtbf-hours", type=float, default=6.0)
    interval.add_argument("--coverage", type=float, nargs="+",
                          default=[0.0, 0.5, 0.9])
    interval.add_argument("--work-days", type=float, default=7.0)

    obs = sub.add_parser(
        "observe",
        help="run one traced migration and export trace.json / "
             "trace.jsonl / metrics.json")
    common(obs)
    obs.add_argument("--source", default="node3")
    obs.add_argument("--transport", default="rdma",
                     choices=["rdma", "ipoib", "tcp", "staging"])
    obs.add_argument("--restart-mode", default="file",
                     choices=["file", "memory"])
    obs.add_argument("--out-dir", default=".",
                     help="directory for the exported artifacts")

    cp = sub.add_parser(
        "critical-path",
        help="critical-path analysis of one traced migration "
             "(waterfall + per-component blame)")
    common(cp)
    cp.add_argument("--source", default="node3")
    cp.add_argument("--transport", default="rdma",
                    choices=["rdma", "ipoib", "tcp", "staging"])
    cp.add_argument("--restart-mode", default="file",
                    choices=["file", "memory"])
    cp.add_argument("--from-jsonl", default=None, metavar="PATH",
                    help="analyze an exported trace.jsonl instead of "
                         "running a simulation")
    cp.add_argument("--root", default=None,
                    help="span name to analyze (default: migration)")
    cp.add_argument("--width", type=int, default=48,
                    help="waterfall bar width")

    bench = sub.add_parser(
        "bench",
        help="run the benchmark harness: write BENCH_*.json and diff "
             "against benchmarks/baselines.json")
    registry_flags(bench)
    bench.add_argument("--out-dir", default=".",
                       help="directory for BENCH_<name>.json artifacts")
    bench.add_argument("--only", "--family", nargs="+", default=None,
                       metavar="NAME", dest="only",
                       help="subset of benches (fig4 fig6 fig7 table1 "
                            "pipeline events_per_sec); --family is an "
                            "alias")
    bench.add_argument("--baselines", default=None, metavar="PATH",
                       help="baselines file (default: "
                            "benchmarks/baselines.json)")
    bench.add_argument("--update-baselines", action="store_true",
                       help="rewrite the baselines from this run instead "
                            "of diffing")
    bench.add_argument("--tolerance", type=float, default=None,
                       help="relative tolerance override")
    bench.add_argument("--restart-mode", default="file",
                       choices=["file", "memory"],
                       help="restart path for the migration benches; "
                            "non-file runs skip the baselines diff")
    bench.add_argument("--profile-out", default=None, metavar="PATH",
                       help="also run the benches under cProfile and "
                            "write the aggregated stats (pstats dump) "
                            "there, with a .txt top-function summary "
                            "next to it")

    san = sub.add_parser(
        "sanitize",
        help="run the protocol sanitizer over a bench scenario (or an "
             "exported trace.jsonl); non-zero exit on any violation")
    san.add_argument("--scenario", default="fig4",
                     choices=["fig4", "fig6", "fig7", "pipeline"],
                     help="bench scenario to replay under the checker")
    san.add_argument("--from-jsonl", default=None, metavar="PATH",
                     help="check an exported trace.jsonl instead of "
                          "running simulations (no live-state checks)")
    san.add_argument("--inject", default=None, metavar="FAULT",
                     help="inject a named fault into every sub-run "
                          "(see `repro sanitize --list-faults`)")
    san.add_argument("--list-faults", action="store_true",
                     help="list injectable faults and exit")
    san.add_argument("--seed", type=int, default=0)
    san.add_argument("--format", default="text", choices=["text", "json"])
    san.add_argument("--max-report", type=int, default=20,
                     help="cap on rendered violations (text format)")

    lint = sub.add_parser(
        "lint",
        help="static AST lint: emit sites vs TRACE_SCHEMA, wall-clock "
             "calls, unused imports; non-zero exit on any finding")
    lint.add_argument("paths", nargs="*", default=None, metavar="PATH",
                      help="files/directories to lint (default: the "
                           "installed repro package sources)")
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"])
    lint.add_argument("--no-emitter-coverage", action="store_true",
                      help="skip the schema emitter-coverage cross-check")

    simc = sub.add_parser(
        "simcheck",
        help="interprocedural static analysis: yield-point races, "
             "set/id/RNG order nondeterminism, unbalanced spans; "
             "non-zero exit on non-baselined findings")
    simc.add_argument("paths", nargs="*", default=None, metavar="PATH",
                      help="files/directories to analyze (default: the "
                           "installed repro package sources)")
    simc.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"])
    simc.add_argument("--baseline", default=None, metavar="PATH",
                      help="findings baseline to diff against (default: "
                           "benchmarks/simcheck_baseline.json when it "
                           "exists)")
    simc.add_argument("--no-baseline", action="store_true",
                      help="report every finding, ignoring any baseline")
    simc.add_argument("--write-baseline", action="store_true",
                      help="rewrite the baseline from this run's findings "
                           "and exit 0")
    simc.add_argument("--disable", action="append", default=[],
                      metavar="RULE",
                      help="disable a rule by id or slug (repeatable)")
    simc.add_argument("--sarif-out", default=None, metavar="PATH",
                      help="additionally write a SARIF 2.1.0 document "
                           "here (for CI code-scanning upload)")

    rep = sub.add_parser(
        "report",
        help="render a self-contained run report: waterfall, blame, "
             "timeline and telemetry sparklines (markdown or HTML)")
    common(rep)
    registry_flags(rep)
    rep.add_argument("--source", default="node3")
    rep.add_argument("--transport", default="rdma",
                     choices=["rdma", "ipoib", "tcp", "staging"])
    rep.add_argument("--restart-mode", default="file",
                     choices=["file", "memory"])
    rep.add_argument("--from-run", default=None, metavar="RUN_ID",
                     help="render from a recorded run's manifest/artifacts "
                          "instead of simulating")
    rep.add_argument("--out", default=None, metavar="PATH",
                     help="write the markdown report here (default: stdout)")
    rep.add_argument("--html", default=None, metavar="PATH",
                     help="also write a self-contained HTML rendering")
    rep.add_argument("--openmetrics", default=None, metavar="PATH",
                     help="also write an OpenMetrics text snapshot of the "
                          "final metric state")
    rep.add_argument("--telemetry-interval", type=float, default=0.25,
                     metavar="SECONDS",
                     help="probe sampling cadence in sim seconds "
                          "(default 0.25)")

    exp = sub.add_parser(
        "explain",
        help="differential trace analysis of two runs: span-tree deltas, "
             "critical-path blame shifts, telemetry diffs")
    exp.add_argument("a", metavar="RUN_A",
                     help="baseline: a recorded run id or a trace "
                          ".jsonl/.jsonl.gz path")
    exp.add_argument("b", metavar="RUN_B",
                     help="candidate: a recorded run id or a trace "
                          ".jsonl/.jsonl.gz path")
    exp.add_argument("--runs-dir", default=None, metavar="DIR",
                     help="run-registry directory for run-id arguments "
                          "(default: $REPRO_RUNS_DIR or ./runs)")
    exp.add_argument("--root", default=None,
                     help="cycle span to attribute end-to-end time to "
                          "(default: migration)")
    exp.add_argument("--top", type=int, default=12,
                     help="rows per delta table (default 12)")
    exp.add_argument("--out", default=None, metavar="PATH",
                     help="write the markdown explanation here "
                          "(default: stdout)")

    runs = sub.add_parser(
        "runs", help="run registry: list recorded runs, show one, or diff "
                     "two without re-running (with archived traces, adds "
                     "the trace-level explanation)")
    runs.add_argument("action", choices=["list", "show", "diff"])
    runs.add_argument("ids", nargs="*", metavar="RUN_ID",
                      help="one id for show, two for diff")
    runs.add_argument("--runs-dir", default=None, metavar="DIR",
                      help="run-registry directory (default: "
                           "$REPRO_RUNS_DIR or ./runs)")

    sub.add_parser("validate",
                   help="re-measure headline numbers and diff vs the paper")
    return parser


def _trace_file_error(path: str) -> Optional[str]:
    """One-line error for a missing or empty ``--from-jsonl`` file."""
    if not os.path.exists(path):
        return f"error: trace file not found: {path}"
    if os.path.getsize(path) == 0:
        return f"error: trace file is empty: {path}"
    return None


def _out_path_error(path: str, flag: str) -> Optional[str]:
    """One-line error when an output *file* path cannot be written.

    Checked up front, before the (possibly minutes-long) simulation runs,
    so a typo'd path fails in milliseconds with exit code 2 instead of
    discarding a finished run.
    """
    if os.path.isdir(path):
        return f"error: {flag} path is a directory: {path}"
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"error: {flag} directory does not exist: {parent}"
    if not os.access(parent, os.W_OK):
        return f"error: {flag} directory is not writable: {parent}"
    if os.path.exists(path) and not os.access(path, os.W_OK):
        return f"error: {flag} file is not writable: {path}"
    return None


def _out_dir_error(path: str, flag: str) -> Optional[str]:
    """Like :func:`_out_path_error` for output *directories* (creatable)."""
    if os.path.isfile(path):
        return f"error: {flag} path is a file, not a directory: {path}"
    probe = os.path.abspath(path)
    while not os.path.isdir(probe):
        nxt = os.path.dirname(probe)
        if nxt == probe:
            break
        probe = nxt
    if not os.access(probe, os.W_OK):
        return f"error: {flag} directory is not writable: {probe}"
    return None


#: argparse dest names that are run plumbing, not experiment configuration
#: — excluded from the manifest's config dict (and hence its hash).
_NON_CONFIG_ARGS = frozenset({
    "command", "runs_dir", "no_manifest", "progress", "from_run",
    "trace_out", "profile_out", "out", "html", "openmetrics", "out_dir",
    "baselines", "update_baselines",
})


def _run_config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k not in _NON_CONFIG_ARGS}


def _record_run(args, command: str, results: dict,
                artifacts: List[str], wall_seconds: float,
                lines: List[str]) -> Optional[RunManifest]:
    """Write this run's manifest (unless ``--no-manifest``); note it."""
    if getattr(args, "no_manifest", False):
        return None
    manifest = RunManifest.new(command, _run_config(args),
                               seed=getattr(args, "seed", None))
    manifest.wall_seconds = wall_seconds
    manifest.results = results
    manifest.artifacts = [os.path.abspath(a) for a in artifacts]
    path = write_manifest(manifest, getattr(args, "runs_dir", None))
    lines.append(f"recorded run {manifest.run_id} ({path})")
    return manifest


def _cmd_migrate(args):
    if args.trace_out:
        err = _out_path_error(args.trace_out, "--trace-out")
        if err is not None:
            return err, 2
    tracer = Tracer()
    sc = Scenario.build(app=args.app, nprocs=args.nprocs,
                        n_compute=args.nodes, n_spare=1, iterations=40,
                        seed=args.seed, transport=args.transport,
                        restart_mode=args.restart_mode, trace=tracer)
    reporter = None
    if args.progress:
        reporter = ProgressReporter(label="migrate")
        sc.sim.attach_probe(TelemetryProbe(on_sample=reporter.on_sample))
    t0 = start_clock()
    report = sc.run_migration(args.source, at=5.0)
    wall = stop_clock(t0)
    if reporter is not None:
        reporter.done(f"{sc.sim.events_processed} events")
    phases = migration_phase_breakdown(report)
    lines = [render_table(
        f"Migration {args.source} -> {report.target} ({args.app}.{args.nprocs}, "
        f"{args.transport}/{args.restart_mode})",
        {"phases": phases})]
    lines.append(render_timeline(extract_phases(tracer), title="phase timeline"))
    lines.append(f"data migrated: {report.bytes_migrated / 1e6:.1f} MB in "
                 f"{report.chunks_transferred} chunks")
    artifacts: List[str] = []
    if args.trace_out:
        n_rows = write_jsonl(tracer, args.trace_out)
        lines.append(f"wrote {args.trace_out} ({n_rows} records)")
        artifacts.append(args.trace_out)
    _record_run(args, "migrate",
                {"phases": phases,
                 "total_seconds": report.total_seconds,
                 "bytes_migrated": report.bytes_migrated,
                 "chunks_transferred": report.chunks_transferred},
                artifacts, wall, lines)
    return "\n".join(lines)


def _cmd_compare(args) -> str:
    reporter = ProgressReporter(label="compare") if args.progress else None
    t0 = start_clock()
    mig_sc = Scenario.build(app=args.app, nprocs=args.nprocs,
                            n_compute=args.nodes, n_spare=1,
                            iterations=40, seed=args.seed,
                            restart_mode=args.restart_mode)
    if reporter is not None:
        mig_sc.sim.attach_probe(TelemetryProbe(on_sample=reporter.on_sample))
    source = f"node{args.nodes - 1}"
    migration = mig_sc.run_migration(source, at=5.0)
    rows = {"Migration": migration_cycle_breakdown(migration)}
    for dest in ("ext3", "pvfs"):
        if reporter is not None:
            reporter.tick(detail=f"CR({dest})")
        sc = Scenario.build(app=args.app, nprocs=args.nprocs,
                            n_compute=args.nodes, n_spare=1,
                            iterations=40, seed=args.seed,
                            with_pvfs=True)
        strategy = sc.cr_strategy(dest)

        def drive(sim, strategy=strategy):
            yield sim.timeout(5.0)
            ckpt = yield from strategy.checkpoint()
            restart = yield from strategy.restart()
            return ckpt, restart

        ckpt, restart = sc.sim.run(until=sc.sim.spawn(drive(sc.sim)))
        rows[f"CR({dest})"] = cr_cycle_breakdown(ckpt, restart)
    wall = stop_clock(t0)
    if reporter is not None:
        reporter.done()
    out = [render_table(
        f"Failure handling, {args.app}.{args.nprocs}, "
        f"restart={args.restart_mode} (Fig. 7)", rows)]
    speedups = {}
    for dest in ("ext3", "pvfs"):
        s = speedup(rows[f"CR({dest})"]["Total"], migration.total_seconds)
        speedups[dest] = s
        out.append(f"speedup over CR({dest}): {s:.2f}x")
    _record_run(args, "compare",
                {"cycles": rows, "speedup": speedups,
                 "migration_total_seconds": migration.total_seconds},
                [], wall, out)
    return "\n".join(out)


def _cmd_scale(args) -> str:
    rows = {}
    for ppn in args.ppn:
        sc = Scenario.build(app="LU.C", nprocs=8 * ppn,
                            n_compute=8, n_spare=1, iterations=40,
                            seed=args.seed)
        report = sc.run_migration("node3", at=5.0)
        rows[f"{ppn} ranks/node"] = migration_phase_breakdown(report)
    return render_table("Migration scalability, LU.C on 8 nodes (Fig. 6)",
                        rows)


def _cmd_interval(args) -> str:
    mtbf = args.mtbf_hours * 3600.0
    # Fixed representative costs (LU.C.64 on PVFS, from EXPERIMENTS.md).
    delta, restart, mig = 14.6, 11.9, 6.1
    rows = {}
    for cov in args.coverage:
        tau = daly_interval(delta, effective_mtbf(mtbf, cov))
        out = simulate_policy(args.work_days * 86400.0, delta, restart,
                              mtbf, cov, mig,
                              policy="cr+migration" if cov else "cr-only",
                              rng=np.random.default_rng(42))
        rows[f"coverage {int(cov * 100)}%"] = {
            "interval (min)": tau / 60.0,
            "checkpoints": float(out.n_checkpoints),
            "rollbacks": float(out.n_rollbacks),
            "migrations": float(out.n_migrations),
            "efficiency %": 100 * out.efficiency,
        }
    return render_table(
        f"Checkpoint-interval extension (MTBF {args.mtbf_hours:g} h, "
        f"{args.work_days:g}-day job)", rows, unit="mixed", digits=1)


def _cmd_observe(args):
    """One fully observed migration: spans + metrics, exported to disk."""
    err = _out_dir_error(args.out_dir, "--out-dir")
    if err is not None:
        return err, 2
    tracer = Tracer()
    registry = MetricsRegistry()
    sc = Scenario.build(app=args.app, nprocs=args.nprocs,
                        n_compute=args.nodes, n_spare=1, iterations=40,
                        seed=args.seed, transport=args.transport,
                        restart_mode=args.restart_mode, trace=tracer,
                        metrics=registry)
    report = sc.run_migration(args.source, at=5.0)
    os.makedirs(args.out_dir, exist_ok=True)
    trace_json = os.path.join(args.out_dir, "trace.json")
    trace_jsonl = os.path.join(args.out_dir, "trace.jsonl")
    metrics_json = os.path.join(args.out_dir, "metrics.json")
    n_events = write_chrome_trace(tracer, trace_json, metrics=registry)
    n_rows = write_jsonl(tracer, trace_jsonl)
    n_metrics = write_metrics(registry, metrics_json)
    lines = [
        f"Observed migration {args.source} -> {report.target} "
        f"({args.app}.{args.nprocs}, {args.transport}/{args.restart_mode})",
        summarize_trace(tracer, registry),
        f"wrote {trace_json} ({n_events} events, load in "
        f"ui.perfetto.dev or chrome://tracing)",
        f"wrote {trace_jsonl} ({n_rows} records)",
        f"wrote {metrics_json} ({n_metrics} instruments)",
    ]
    return "\n".join(lines)


def _cmd_critical_path(args):
    """Causal profile of one migration: waterfall + blame + dominant."""
    if args.from_jsonl:
        err = _trace_file_error(args.from_jsonl)
        if err is not None:
            return err, 2
        tracer = read_jsonl(args.from_jsonl)
        header = f"Critical path of {args.from_jsonl}"
    else:
        tracer = Tracer()
        sc = Scenario.build(app=args.app, nprocs=args.nprocs,
                            n_compute=args.nodes, n_spare=1,
                            iterations=40, seed=args.seed,
                            transport=args.transport,
                            restart_mode=args.restart_mode,
                            trace=tracer)
        report = sc.run_migration(args.source, at=5.0)
        header = (f"Critical path: migration {args.source} -> "
                  f"{report.target} ({args.app}.{args.nprocs}, "
                  f"{args.transport}/{args.restart_mode})")
    cp = critical_path(build_span_dag(tracer), root=args.root)
    name, seconds = dominant_component(cp)
    return "\n".join([
        header,
        render_waterfall(cp, width=args.width),
        "",
        render_blame(cp.blame()),
        "",
        f"dominant component: {name} ({seconds:.3f}s, "
        f"{seconds / max(cp.total, 1e-12):.0%} of the critical path)",
    ])


def _cmd_bench(args):
    """Benchmark harness: BENCH_*.json artifacts + baseline diff."""
    try:
        from benchmarks.harness import run_benches
    except ImportError as exc:
        raise SystemExit(
            f"cannot import benchmarks.harness ({exc}); run from the "
            "repository root so the benchmarks/ package is importable")
    if args.profile_out:
        err = _out_path_error(args.profile_out, "--profile-out")
        if err is not None:
            return err, 2
    err = _out_dir_error(args.out_dir, "--out-dir")
    if err is not None:
        return err, 2
    reporter = ProgressReporter(label="bench") if args.progress else None
    progress_cb = None
    if reporter is not None:
        def progress_cb(name: str) -> None:
            reporter.tick(detail=f"bench {name}")
    if args.profile_out:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
    t0 = start_clock()
    paths, regressions, text = run_benches(
        names=args.only, out_dir=args.out_dir,
        baselines_path=args.baselines,
        update_baselines=args.update_baselines,
        tolerance=args.tolerance,
        restart_mode=args.restart_mode,
        progress_cb=progress_cb)
    wall = stop_clock(t0)
    if args.profile_out:
        profiler.disable()
        profiler.dump_stats(args.profile_out)
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats("cumulative").print_stats(40)
        summary_path = args.profile_out + ".txt"
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        text += (f"\nprofile: {args.profile_out} "
                 f"(summary: {summary_path})")
    if reporter is not None:
        reporter.done(f"{len(paths)} bench artifact(s)")
    extra: List[str] = []
    _record_run(args, "bench",
                {"regressions": len(regressions),
                 "benches": len(paths)},
                list(paths), wall, extra)
    if extra:
        text += "\n" + "\n".join(extra)
    return text, (1 if regressions else 0)


def _cmd_sanitize(args):
    """Protocol sanitizer: run a scenario (or replay a JSONL) checked."""
    import json as _json

    from .sanitize import FAULTS, check_jsonl, sanitize_scenario

    if args.list_faults:
        lines = [f"{name}: {doc}" for name, doc in sorted(FAULTS.items())]
        return "\n".join(lines)
    if args.inject is not None and args.inject not in FAULTS:
        return (f"unknown fault {args.inject!r}; choose from "
                f"{sorted(FAULTS)}"), 2
    if args.from_jsonl:
        err = _trace_file_error(args.from_jsonl)
        if err is not None:
            return err, 2
        result = check_jsonl(args.from_jsonl)
    else:
        result = sanitize_scenario(args.scenario, seed=args.seed,
                                   fault=args.inject)
    violations = result.violations
    code = 0 if result.clean else 1
    if args.format == "json":
        payload = {
            "scenario": result.scenario,
            "fault": args.inject,
            "records": result.n_records,
            "runs": [{"name": r.name, "records": r.n_records,
                      "violations": len(r.violations)} for r in result.runs],
            "clean": result.clean,
            "violations": [
                {"rule": v.rule, "time": v.time, "message": v.message,
                 "doc": v.doc,
                 "record": (v.record.as_dict() if v.record is not None
                            else None)}
                for v in violations],
        }
        return _json.dumps(payload, indent=2, default=str), code
    lines = [f"sanitize {result.scenario}: {len(result.runs)} run(s), "
             f"{result.n_records} records checked"]
    for run in result.runs:
        verdict = "clean" if not run.violations else \
            f"{len(run.violations)} violation(s)"
        lines.append(f"  {run.name}: {run.n_records} records, {verdict}")
    for v in violations[:args.max_report]:
        lines.append(v.render())
    if len(violations) > args.max_report:
        lines.append(f"... and {len(violations) - args.max_report} more")
    lines.append("PASS: no invariant violations" if code == 0
                 else f"FAIL: {len(violations)} invariant violation(s)")
    return "\n".join(lines), code


def _cmd_lint(args):
    """Static AST lint of emit sites, wall-clock calls, unused imports."""
    import json as _json

    from .sanitize import lint_paths, sarif_json

    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    findings = lint_paths(paths,
                          check_emitter_coverage=not args.no_emitter_coverage)
    code = 0 if not findings else 1
    if args.format == "sarif":
        return sarif_json(findings, "repro-lint"), code
    if args.format == "json":
        return _json.dumps({"paths": paths, "clean": not findings,
                            "findings": [f.as_dict() for f in findings]},
                           indent=2), code
    lines = [f.render() for f in findings]
    lines.append(f"{len(findings)} finding(s) in {len(paths)} path(s)"
                 if findings else "lint clean")
    return "\n".join(lines), code


_DEFAULT_SIMCHECK_BASELINE = os.path.join("benchmarks",
                                          "simcheck_baseline.json")


def _cmd_simcheck(args):
    """Interprocedural determinism / yield-point race analysis."""
    import json as _json

    from .sanitize import sarif_json, simcheck_paths, write_baseline

    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    baseline_path = None
    if not args.no_baseline and not args.write_baseline:
        baseline_path = args.baseline
        if baseline_path is None \
                and os.path.exists(_DEFAULT_SIMCHECK_BASELINE):
            baseline_path = _DEFAULT_SIMCHECK_BASELINE
        if baseline_path is not None \
                and not os.path.exists(baseline_path):
            return f"error: baseline not found: {baseline_path}", 2
    result = simcheck_paths(paths, baseline_path=baseline_path,
                            disabled=args.disable)
    if args.write_baseline:
        target = args.baseline or _DEFAULT_SIMCHECK_BASELINE
        n = write_baseline(result.findings, target)
        return f"wrote {target} ({n} grandfathered finding(s))", 0
    code = 0 if result.clean else 1
    if args.sarif_out:
        err = _out_path_error(args.sarif_out, "--sarif-out")
        if err is not None:
            return err, 2
        with open(args.sarif_out, "w", encoding="utf-8") as fh:
            fh.write(sarif_json(result.findings, "repro-simcheck"))
            fh.write("\n")
    if args.format == "sarif":
        return sarif_json(result.findings, "repro-simcheck"), code
    if args.format == "json":
        return _json.dumps({
            "paths": paths,
            "baseline": baseline_path,
            "clean": result.clean,
            "stats": result.stats,
            "findings": [f.as_dict() for f in result.findings],
            "suppressed": len(result.suppressed),
            "baselined": len(result.matched_baseline),
            "expired": [e.as_dict() for e in result.expired],
        }, indent=2), code
    lines = [f.render() for f in result.findings]
    for entry in result.expired:
        lines.append(f"{entry.path}: baseline entry {entry.fingerprint} "
                     f"({entry.rule}) no longer matches any finding — "
                     f"remove it (baselines only shrink)")
    stats = result.stats
    summary = (f"{stats.get('modules', 0)} module(s), "
               f"{stats.get('functions', 0)} function(s), "
               f"{stats.get('generators', 0)} generator(s), "
               f"{stats.get('process_functions', 0)} sim process(es)")
    if result.clean:
        tail = []
        if result.matched_baseline:
            tail.append(f"{len(result.matched_baseline)} baselined")
        if result.suppressed:
            tail.append(f"{len(result.suppressed)} suppressed")
        lines.append(f"simcheck clean: {summary}"
                     + (f" ({', '.join(tail)})" if tail else ""))
    else:
        lines.append(f"simcheck: {len(result.findings)} finding(s), "
                     f"{len(result.expired)} expired baseline entr(ies) — "
                     f"{summary}")
    return "\n".join(lines), code


def _cmd_validate(args) -> str:
    from .validation import render_validation, run_validation

    return render_validation(run_validation())


def _cmd_report(args):
    """Self-contained run report: live simulation or a recorded run."""
    for path, flag in ((args.out, "--out"), (args.html, "--html"),
                       (args.openmetrics, "--openmetrics")):
        if path:
            err = _out_path_error(path, flag)
            if err is not None:
                return err, 2

    if args.from_run:
        if args.openmetrics:
            return ("error: --openmetrics needs a live run (a recorded "
                    "manifest has no metrics registry to snapshot)"), 2
        try:
            manifest = load_manifest(args.from_run, args.runs_dir)
        except (OSError, ValueError, TypeError) as exc:
            return f"error: cannot load run {args.from_run!r}: {exc}", 2
        records: list = []
        series = None
        trace_path = trace_artifact(manifest)
        if trace_path is not None:
            replay = read_jsonl(trace_path)
            records = list(replay)
            series = telemetry_series(replay)
        extra_sections = []
        for a in manifest.artifacts:
            base = os.path.basename(a)
            if base.startswith("EXPLAIN_") and base.endswith(".md") \
                    and os.path.exists(a):
                with open(a, encoding="utf-8") as fh:
                    extra_sections.append(
                        (f"Regression explanation — "
                         f"{base[len('EXPLAIN_'):-len('.md')]}",
                         fh.read()))
        text = render_run_report(
            manifest=manifest, records=records, telemetry=series,
            title=f"Run report — {manifest.run_id}",
            extra_sections=extra_sections)
        registry = None
        probe = None
    else:
        tracer = Tracer()
        registry = MetricsRegistry()
        reporter = ProgressReporter(label="report") if args.progress else None
        probe = TelemetryProbe(
            interval=args.telemetry_interval,
            on_sample=reporter.on_sample if reporter is not None else None)
        sc = Scenario.build(app=args.app, nprocs=args.nprocs,
                            n_compute=args.nodes, n_spare=1,
                            iterations=40, seed=args.seed,
                            transport=args.transport,
                            restart_mode=args.restart_mode,
                            trace=tracer, metrics=registry)
        sc.sim.attach_probe(probe)
        t0 = start_clock()
        mig = sc.run_migration(args.source, at=5.0)
        wall = stop_clock(t0)
        if reporter is not None:
            reporter.done(f"{sc.sim.events_processed} events, "
                          f"{probe.samples_taken} samples")
        manifest = None
        if not args.no_manifest:
            manifest = RunManifest.new("report", _run_config(args),
                                       seed=args.seed)
            manifest.wall_seconds = wall
            manifest.results = {
                "phases": migration_phase_breakdown(mig),
                "total_seconds": mig.total_seconds,
                "bytes_migrated": mig.bytes_migrated,
                "telemetry_samples": probe.samples_taken,
            }
            path = write_manifest(manifest, args.runs_dir)
            run_dir = os.path.dirname(path)
            trace_path = os.path.join(run_dir, "trace.jsonl.gz")
            write_jsonl(tracer, trace_path)
            manifest.artifacts = [os.path.abspath(trace_path)]
            for p in (args.out, args.html, args.openmetrics):
                if p:
                    manifest.artifacts.append(os.path.abspath(p))
            write_manifest(manifest, args.runs_dir, overwrite=True)
        text = render_run_report(
            manifest=manifest, records=tracer, telemetry=probe,
            metrics_summary=registry.as_dict(),
            title=f"Run report — migration {args.source} -> {mig.target} "
                  f"({args.app}.{args.nprocs}, "
                  f"{args.transport}/{args.restart_mode})")

    notes: List[str] = []
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text)
        notes.append(f"wrote {args.out}")
    if args.html:
        with atomic_write(args.html) as fh:
            fh.write(report_to_html(text))
        notes.append(f"wrote {args.html}")
    if args.openmetrics and registry is not None:
        labels = ({"run_id": manifest.run_id} if manifest is not None
                  else None)
        n = write_openmetrics(args.openmetrics, metrics=registry,
                              telemetry=probe, labels=labels)
        notes.append(f"wrote {args.openmetrics} ({n} samples)")
    if args.out:
        return "\n".join(notes)
    return text + ("\n" + "\n".join(notes) if notes else "")


def _resolve_trace_source(value: str, runs_dir: Optional[str]):
    """``(error, label, tracer)`` for an explain argument.

    A path that exists on disk is read as a trace export (gzip sniffed);
    anything else is treated as a run id whose manifest must carry an
    archived trace artifact.
    """
    if os.path.isfile(value):
        err = _trace_file_error(value)
        if err is not None:
            return err, None, None
        return None, value, read_jsonl(value)
    try:
        manifest = load_manifest(value, runs_dir)
    except (OSError, ValueError, TypeError):
        return (f"error: {value!r} is neither a trace file nor a "
                f"recorded run id under {resolve_runs_dir(runs_dir)}"), \
            None, None
    path = trace_artifact(manifest)
    if path is None:
        return (f"error: run {value!r} has no archived trace artifact "
                f"(re-run with --trace-out or `repro report`)"), None, None
    return None, manifest.run_id, read_jsonl(path)


def _cmd_explain(args):
    """Differential trace analysis: explain the delta between two runs."""
    if args.out:
        err = _out_path_error(args.out, "--out")
        if err is not None:
            return err, 2
    sides = []
    for value in (args.a, args.b):
        err, label, tracer = _resolve_trace_source(value, args.runs_dir)
        if err is not None:
            return err, 2
        sides.append((label, tracer))
    try:
        diff = diff_traces(sides[0][1], sides[1][1], root=args.root,
                           label_a=sides[0][0], label_b=sides[1][0])
    except ValueError as exc:
        return f"error: {exc}", 2
    text = render_explanation(diff, top=args.top)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text)
        return f"wrote {args.out}"
    return text


def _cmd_runs(args):
    """Run registry: list / show / diff recorded manifests."""
    import json as _json

    if args.action == "list":
        manifests = list_runs(args.runs_dir)
        if not manifests:
            return (f"no runs recorded under "
                    f"{resolve_runs_dir(args.runs_dir)}")
        id_w = max(len(m.run_id) for m in manifests)
        lines = [f"{'run id'.ljust(id_w)}  {'command':<10} "
                 f"{'config':<12} {'seed':>6} {'wall s':>8}"]
        for m in manifests:
            lines.append(f"{m.run_id.ljust(id_w)}  {m.command:<10} "
                         f"{m.config_hash:<12} {str(m.seed):>6} "
                         f"{m.wall_seconds:>8.2f}")
        return "\n".join(lines)
    if args.action == "show":
        if len(args.ids) != 1:
            return "error: `repro runs show` takes exactly one RUN_ID", 2
        try:
            m = load_manifest(args.ids[0], args.runs_dir)
        except (OSError, ValueError, TypeError) as exc:
            return f"error: cannot load run {args.ids[0]!r}: {exc}", 2
        return _json.dumps(m.as_dict(), indent=2, sort_keys=True,
                           default=str)
    if len(args.ids) != 2:
        return "error: `repro runs diff` takes exactly two RUN_IDs", 2
    loaded = []
    for run_id in args.ids:
        try:
            loaded.append(load_manifest(run_id, args.runs_dir))
        except (OSError, ValueError, TypeError) as exc:
            return f"error: cannot load run {run_id!r}: {exc}", 2
    text = diff_runs(loaded[0], loaded[1])
    trace_a = trace_artifact(loaded[0])
    trace_b = trace_artifact(loaded[1])
    if trace_a and trace_b:
        try:
            diff = diff_traces(read_jsonl(trace_a), read_jsonl(trace_b),
                               label_a=loaded[0].run_id,
                               label_b=loaded[1].run_id)
        except ValueError as exc:
            text += f"\n\n(trace-level explanation skipped: {exc})"
        else:
            text += "\n\n" + render_explanation(diff)
    return text


_COMMANDS = {"migrate": _cmd_migrate, "compare": _cmd_compare,
             "scale": _cmd_scale, "interval": _cmd_interval,
             "observe": _cmd_observe, "validate": _cmd_validate,
             "critical-path": _cmd_critical_path, "bench": _cmd_bench,
             "sanitize": _cmd_sanitize, "lint": _cmd_lint,
             "simcheck": _cmd_simcheck,
             "report": _cmd_report, "runs": _cmd_runs,
             "explain": _cmd_explain}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = _COMMANDS[args.command](args)
    text, code = out if isinstance(out, tuple) else (out, 0)
    print(text)
    return code


if __name__ == "__main__":  # pragma: no cover - ``python -m repro`` is canonical
    import sys

    sys.exit(main())
