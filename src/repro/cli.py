"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro run       --app LU.C --source node3
    python -m repro report    <run_id> --out report.md
    python -m repro explain   <run_a> <run_b>
    python -m repro compare   --app BT.C
    python -m repro scale     --ppn 1 2 4 8
    python -m repro interval  --mtbf-hours 6 --coverage 0.9
    python -m repro bench     --out-dir ./bench-out

``run`` is the one command that records a traced migration: it writes
a run directory (manifest, trace, Chrome trace, metrics) and every
analysis (``report``, ``explain``, ``sanitize --from-jsonl``) reads a
recorded run or a trace file.  ``report`` answers where one run's time
went; ``explain`` answers why two runs differ.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Callable, Iterable, List, Optional, Sequence

from .analysis import (
    atomic_write,
    diff_traces,
    extract_phases,
    migration_phase_breakdown,
    read_jsonl,
    render_explanation,
    render_table,
    render_timeline,
    telemetry_series,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from .obs import (
    ProgressReporter,
    RunManifest,
    diff_runs,
    list_runs,
    load_manifest,
    render_run_report,
    resolve_runs_dir,
    start_clock,
    stop_clock,
    trace_artifact,
    write_manifest,
)
from .experiments import (
    FAILURE_AT,
    STORES,
    Run,
    fig6_run,
    fig7_row,
    fig7_runs,
    interval_study,
)
from .mpi.job import MPIJob
from .params import NPB_TABLE
from .pipeline.registry import sink_names, transport_names
from .sanitize.runner import SCENARIOS
from .simulate.metrics import MetricsRegistry
from .simulate.telemetry import DEFAULT_INTERVAL, TelemetryProbe
from .simulate.trace import Tracer
from .workloads import NPBApplication

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

    def runs_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--runs-dir", default=None, metavar="DIR",
                       help="run-registry directory (default: "
                            "$REPRO_RUNS_DIR or ./runs)")

    def progress(p: argparse.ArgumentParser) -> None:
        p.add_argument("--progress", action="store_true",
                       help="print a wall-clock heartbeat to stderr while "
                            "the run is in flight")

    def registry_flags(p: argparse.ArgumentParser) -> None:
        runs_dir(p)
        p.add_argument("--no-manifest", action="store_true",
                       help="do not record this run in the run registry")
        progress(p)

    run = sub.add_parser(
        "run",
        help="one traced migration cycle: phase table + timeline, "
             "recorded as runs/<run_id>/ (manifest, trace.jsonl.gz, "
             "trace.json, metrics.json)")
    common(run)
    run.add_argument("--source", default="node3")
    run.add_argument("--transport", default="rdma",
                     choices=transport_names())
    run.add_argument("--restart-mode", default="file", choices=sink_names())
    runs_dir(run)
    progress(run)

    cmp_ = sub.add_parser("compare",
                          help="migration vs CR(ext3) vs CR(PVFS) (Fig. 7)")
    common(cmp_)
    registry_flags(cmp_)
    cmp_.add_argument("--restart-mode", default="file",
                      choices=sink_names(),
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

    bench = sub.add_parser(
        "bench",
        help="run the benchmark harness: write BENCH_*.json and diff "
             "against benchmarks/baselines.json")
    registry_flags(bench)
    bench.add_argument("--out-dir", default=".",
                       help="directory for BENCH_<name>.json artifacts")
    bench.add_argument("--only", nargs="+", default=None, metavar="NAME",
                       help="subset of benches (fig4 fig6 fig7 table1 "
                            "pipeline events_per_sec cluster_scale "
                            "cluster_smoke)")
    bench.add_argument("--baselines", default=None, metavar="PATH",
                       help="baselines file (default: "
                            "benchmarks/baselines.json)")
    bench.add_argument("--update-baselines", action="store_true",
                       help="rewrite the baselines from this run instead "
                            "of diffing")
    bench.add_argument("--profile-out", default=None, metavar="PATH",
                       help="also run the benches under cProfile and "
                            "write the aggregated stats (pstats dump) "
                            "there, with a .txt top-function summary "
                            "next to it")

    san = sub.add_parser(
        "sanitize",
        help="run the protocol sanitizer over a bench scenario (or a "
             "recorded run's trace); non-zero exit on any violation")
    san.add_argument("--scenario", default="fig4", choices=tuple(SCENARIOS),
                     help="bench scenario to replay under the checker")
    san.add_argument("--from-jsonl", default=None, metavar="RUN|PATH",
                     help="check a recorded run's trace (or a trace "
                          "file) instead of running simulations (no "
                          "live-state checks)")
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
        help="static analysis, one parse per file: emit sites vs "
             "TRACE_SCHEMA, wall-clock and unseeded-RNG calls, unused "
             "imports, unbalanced spans; non-zero exit on any finding")
    lint.add_argument("paths", nargs="*", default=None, metavar="PATH",
                      help="files/directories to lint (default: the "
                           "installed repro package sources)")
    lint.add_argument("--format", default="text", choices=["text", "json"])
    lint.add_argument("--sarif-out", default=None, metavar="PATH",
                      help="additionally write a SARIF 2.1.0 document "
                           "here (for CI code-scanning upload)")

    rep = sub.add_parser(
        "report",
        help="render a recorded run as one markdown report: critical-path "
             "waterfall, blame and dominant component, timeline, "
             "telemetry sparklines and the metrics summary")
    rep.add_argument("run", metavar="RUN",
                     help="a recorded run id or a trace .jsonl/.jsonl.gz path")
    runs_dir(rep)
    rep.add_argument("--out", default=None, metavar="PATH",
                     help="write the markdown report here (default: stdout)")

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
    runs_dir(exp)
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
                     "two manifests' config and results without re-running "
                     "(`repro explain` diffs their traces)")
    runs.add_argument("action", choices=["list", "show", "diff"])
    runs.add_argument("ids", nargs="*", metavar="RUN_ID",
                      help="one id for show, two for diff")
    runs_dir(runs)

    sub.add_parser("validate",
                   help="re-measure headline numbers and diff vs the paper")
    return parser


def _trace_file_error(path: str) -> Optional[str]:
    """One-line error for a missing or empty trace file."""
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


def _shape_error(runs: Iterable[Run]) -> Optional[str]:
    """One-line error when a run's job cannot be laid out on its testbed.

    Applies the rules ``Scenario.build`` does (at least one rank, ranks
    dividing evenly over the compute nodes) to every run before any of
    them simulates, so a bad ``--nprocs``/``--nodes``/``--ppn`` fails at
    once with no run directory reserved.
    """
    for run in runs:
        if run.n_compute < 1:
            return f"error: --nodes must be >= 1, got {run.n_compute}"
        try:
            NPBApplication.named(run.app, run.nprocs)
            MPIJob.block_placement(run.nprocs, [""] * run.n_compute)
        except ValueError as exc:
            return f"error: {exc}"
    return None


#: argparse dest names that are run plumbing, not experiment configuration
#: — excluded from the manifest's config dict (and hence its hash).
_NON_CONFIG_ARGS = frozenset({
    "command", "runs_dir", "no_manifest", "progress", "profile_out",
    "out_dir", "baselines", "update_baselines",
})

#: What ``repro run`` writes into its run directory, next to the manifest.
_RUN_ARTIFACTS = ("trace.jsonl.gz", "trace.json", "metrics.json")


def _run_config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k not in _NON_CONFIG_ARGS}


def _record_run(args, command: str, results: dict, wall_seconds: float,
                lines: List[str], artifacts: Sequence[str] = (),
                export: Optional[Callable[[str], List[str]]] = None) -> None:
    """Write this run's manifest (unless ``--no-manifest``); note it.

    ``export(run_dir)`` writes the run's artifacts into its freshly
    reserved directory and returns their paths.
    """
    if getattr(args, "no_manifest", False):
        return
    manifest = RunManifest.new(command, _run_config(args),
                               seed=getattr(args, "seed", None))
    manifest.wall_seconds = wall_seconds
    manifest.results = results
    manifest.artifacts = [os.path.abspath(a) for a in artifacts]
    path = write_manifest(manifest, args.runs_dir)
    run_dir = os.path.dirname(path)
    if export is not None:
        manifest.artifacts += [os.path.abspath(a)
                               for a in export(run_dir)]
        write_manifest(manifest, args.runs_dir, overwrite=True)
    lines.append(f"recorded run {manifest.run_id} ({run_dir})")


def _cmd_run(args):
    """One traced migration, recorded as the run directory every
    analysis command reads."""
    run = Run(args.app, args.nprocs, restart_mode=args.restart_mode,
              n_compute=args.nodes, transport=args.transport)
    err = (_out_dir_error(resolve_runs_dir(args.runs_dir), "--runs-dir")
           or _shape_error([run]))
    if err is not None:
        return err, 2
    tracer = Tracer()
    registry = MetricsRegistry()
    sc = run.scenario(args.seed, trace=tracer, metrics=registry)
    reporter = ProgressReporter(label="run") if args.progress else None
    probe = TelemetryProbe(
        DEFAULT_INTERVAL,
        on_sample=reporter.on_sample if reporter is not None else None)
    sc.sim.attach_probe(probe)
    t0 = start_clock()
    report = sc.run_migration(args.source, at=FAILURE_AT)
    wall = stop_clock(t0)
    if reporter is not None:
        reporter.done(f"{sc.sim.events_processed} events, "
                      f"{probe.samples_taken} samples")
    phases = migration_phase_breakdown(report)
    lines = [render_table(
        f"Migration {args.source} -> {report.target} ({args.app}.{args.nprocs}, "
        f"{args.transport}/{args.restart_mode})",
        {"phases": phases})]
    lines.append(render_timeline(extract_phases(tracer), title="phase timeline"))
    lines.append(f"data migrated: {report.bytes_migrated / 1e6:.1f} MB in "
                 f"{report.chunks_transferred} chunks")

    def export(run_dir: str) -> List[str]:
        trace_jsonl, trace_json, metrics_json = (
            os.path.join(run_dir, name) for name in _RUN_ARTIFACTS)
        write_jsonl(tracer, trace_jsonl)
        write_chrome_trace(tracer, trace_json)
        write_metrics(registry, metrics_json)
        return [trace_jsonl, trace_json, metrics_json]

    _record_run(args, "run",
                {"phases": phases,
                 "total_seconds": report.total_seconds,
                 "bytes_migrated": report.bytes_migrated,
                 "chunks_transferred": report.chunks_transferred,
                 "telemetry_samples": probe.samples_taken},
                wall, lines, export=export)
    return "\n".join(lines)


def _cmd_compare(args) -> str:
    runs = fig7_runs(args.app, args.nprocs, args.nodes, args.restart_mode)
    err = _shape_error(runs.values())
    if err is not None:
        return err, 2
    reporter = ProgressReporter(label="compare") if args.progress else None
    t0 = start_clock()
    results = {}
    for kind, run in runs.items():
        sc = run.scenario(seed=args.seed)
        if reporter is not None:
            if run.cr is None:
                sc.sim.attach_probe(
                    TelemetryProbe(on_sample=reporter.on_sample))
            else:
                reporter.tick(detail=f"CR({run.cr})")
        results[kind] = run.drive(sc)
    row = fig7_row(results)
    wall = stop_clock(t0)
    if reporter is not None:
        reporter.done()
    rows = {"Migration": row["migration"]}
    rows.update({f"CR({store})": row[f"cr_{store}"] for store in STORES})
    out = [render_table(
        f"Failure handling, {args.app}.{args.nprocs}, "
        f"restart={args.restart_mode} (Fig. 7)", rows)]
    speedups = {store: row[f"speedup_{store}"] for store in STORES}
    out.extend(f"speedup over CR({store}): {s:.2f}x"
               for store, s in speedups.items())
    _record_run(args, "compare",
                {"cycles": rows, "speedup": speedups,
                 "migration_total_seconds": results["migration"].total_seconds},
                wall, out)
    return "\n".join(out)


def _cmd_scale(args):
    runs = {ppn: fig6_run(ppn) for ppn in args.ppn}
    err = _shape_error(runs.values())
    if err is not None:
        return err, 2
    rows = {f"{ppn} ranks/node":
            migration_phase_breakdown(run.execute(seed=args.seed))
            for ppn, run in runs.items()}
    return render_table("Migration scalability, LU.C on 8 nodes (Fig. 6)",
                        rows)


def _cmd_interval(args):
    for flag, value in (("--mtbf-hours", args.mtbf_hours),
                        ("--work-days", args.work_days)):
        if value <= 0:
            return f"error: {flag} must be positive, got {value:g}", 2
    bad = [c for c in args.coverage if not 0 <= c <= 1]
    if bad:
        return f"error: --coverage must be in [0, 1], got {bad[0]:g}", 2
    costs, rows = interval_study(args.coverage, args.mtbf_hours,
                                 args.work_days)
    return "\n".join([
        "costs measured on the Fig. 7 LU.C.64 runs: checkpoint "
        "{:.2f} s, restart {:.2f} s, migration {:.2f} s".format(*costs),
        render_table(
            f"Checkpoint-interval extension (MTBF {args.mtbf_hours:g} h, "
            f"{args.work_days:g}-day job)", rows, unit="mixed", digits=1)])


def _cmd_bench(args):
    """Benchmark harness: BENCH_*.json artifacts + baseline diff."""
    try:
        from benchmarks.harness import BENCHES, run_benches
    except ImportError as exc:
        raise SystemExit(
            f"cannot import benchmarks.harness ({exc}); run from the "
            "repository root so the benchmarks/ package is importable")
    unknown = [name for name in args.only or () if name not in BENCHES]
    if unknown:
        return (f"error: unknown benches {unknown}; "
                f"available: {sorted(BENCHES)}"), 2
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
                wall, extra, artifacts=paths)
    if extra:
        text += "\n" + "\n".join(extra)
    return text, (1 if regressions else 0)


def _cmd_sanitize(args):
    """Protocol sanitizer: run a scenario (or replay a recorded trace)."""
    from .sanitize import FAULTS, check_jsonl, sanitize_scenario

    if args.list_faults:
        lines = [f"{name}: {doc}" for name, doc in sorted(FAULTS.items())]
        return "\n".join(lines)
    if args.inject is not None and args.inject not in FAULTS:
        return (f"unknown fault {args.inject!r}; choose from "
                f"{sorted(FAULTS)}"), 2
    if args.from_jsonl:
        err, _, path = _resolve_trace_source(args.from_jsonl, None)
        if err is not None:
            return err, 2
        result = check_jsonl(path)
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
        return json.dumps(payload, indent=2, default=str), code
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
    """Every static-analysis rule over one parse per file."""
    from .sanitize import lint_paths, sarif_json

    if args.sarif_out:
        err = _out_path_error(args.sarif_out, "--sarif-out")
        if err is not None:
            return err, 2
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        return f"error: no such file or directory: {missing[0]}", 2
    result = lint_paths(paths)
    findings = result.findings
    code = 0 if not findings else 1
    if args.sarif_out:
        with open(args.sarif_out, "w", encoding="utf-8") as fh:
            fh.write(sarif_json(findings))
            fh.write("\n")
    if args.format == "json":
        return json.dumps({"paths": paths, "clean": not findings,
                           "files": len(result.files),
                           "findings": [f.as_dict() for f in findings],
                           "suppressed": len(result.suppressed)},
                          indent=2), code
    summary = f"{len(result.files)} file(s)"
    if result.suppressed:
        summary += f", {len(result.suppressed)} suppressed"
    lines = [f.render() for f in findings]
    lines.append(f"{len(findings)} finding(s): {summary}" if findings
                 else f"lint clean: {summary}")
    return "\n".join(lines), code


def _cmd_validate(args) -> str:
    from .validation import render_validation, run_validation

    return render_validation(run_validation())


def _cmd_report(args):
    """Self-contained report of a recorded run (or a bare trace file)."""
    if args.out:
        err = _out_path_error(args.out, "--out")
        if err is not None:
            return err, 2
    err, manifest, trace_path = _resolve_trace_source(args.run, args.runs_dir)
    if err is not None:
        return err, 2
    replay = read_jsonl(trace_path)
    metrics_summary = None
    for a in manifest.artifacts if manifest is not None else ():
        if os.path.basename(a) == "metrics.json" and os.path.exists(a):
            with open(a, encoding="utf-8") as fh:
                metrics_summary = json.load(fh)
    label = manifest.run_id if manifest is not None else args.run
    text = render_run_report(
        manifest=manifest, records=list(replay),
        telemetry=telemetry_series(replay),
        metrics_summary=metrics_summary,
        title=f"Run report — {label}")
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text)
        return f"wrote {args.out}"
    return text


def _resolve_trace_source(value: str, runs_dir: Optional[str]):
    """``(error, manifest, trace path)`` for an analysis argument.

    An existing file, or any ``.jsonl``/``.jsonl.gz`` name, is a trace
    export (gzip sniffed) with no manifest; anything else is a run id
    whose manifest must carry an archived trace artifact.
    """
    if os.path.isfile(value) or value.endswith((".jsonl", ".jsonl.gz")):
        return _trace_file_error(value), None, value
    try:
        manifest = load_manifest(value, runs_dir)
    except (OSError, ValueError, TypeError):
        return (f"error: {value!r} is neither a trace file nor a "
                f"recorded run id under {resolve_runs_dir(runs_dir)}"), \
            None, None
    path = trace_artifact(manifest)
    if path is None:
        return (f"error: run {value!r} has no archived trace artifact "
                f"(record one with `repro run`)"), None, None
    return None, manifest, path


def _cmd_explain(args):
    """Differential trace analysis: explain the delta between two runs."""
    if args.out:
        err = _out_path_error(args.out, "--out")
        if err is not None:
            return err, 2
    sides = []
    for value in (args.a, args.b):
        err, manifest, path = _resolve_trace_source(value, args.runs_dir)
        if err is not None:
            return err, 2
        sides.append((manifest.run_id if manifest is not None else value,
                      read_jsonl(path)))
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
        return json.dumps(m.as_dict(), indent=2, sort_keys=True,
                           default=str)
    if len(args.ids) != 2:
        return "error: `repro runs diff` takes exactly two RUN_IDs", 2
    loaded = []
    for run_id in args.ids:
        try:
            loaded.append(load_manifest(run_id, args.runs_dir))
        except (OSError, ValueError, TypeError) as exc:
            return f"error: cannot load run {run_id!r}: {exc}", 2
    return diff_runs(loaded[0], loaded[1])


_COMMANDS = {"run": _cmd_run, "compare": _cmd_compare,
             "scale": _cmd_scale, "interval": _cmd_interval,
             "validate": _cmd_validate, "bench": _cmd_bench,
             "sanitize": _cmd_sanitize, "lint": _cmd_lint,
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
