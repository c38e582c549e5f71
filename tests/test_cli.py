"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    assert rc == 0
    return out


SMALL = ("--app", "LU.C", "--nprocs", "8", "--nodes", "2")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One file-mode and one memory-mode ``repro run`` in a shared runs
    dir: ``{"dir", "file", "memory", "out": {mode: stdout}}``."""
    import contextlib
    import io

    runs = tmp_path_factory.mktemp("runs")
    out = {}
    for mode in ("file", "memory"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["run", *SMALL, "--source", "node1",
                         "--restart-mode", mode,
                         "--runs-dir", str(runs)]) == 0
        out[mode] = buf.getvalue()
    file_id, memory_id = sorted(p.name for p in runs.iterdir())
    return {"dir": runs, "file": file_id, "memory": memory_id, "out": out}


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_migrate_command_small(recorded):
    out = recorded["out"]["file"]
    assert "Migration node1 -> spare0" in out
    assert "Job Stall" in out
    assert "phase timeline" in out
    assert "data migrated" in out
    run_dir = recorded["dir"] / recorded["file"]
    assert f"recorded run {recorded['file']} ({run_dir})" in out


def test_migrate_memory_restart(recorded):
    assert "rdma/memory" in recorded["out"]["memory"]


def test_scale_command(capsys):
    out = run_cli(capsys, "scale", "--ppn", "1", "2")
    assert "1 ranks/node" in out
    assert "2 ranks/node" in out


def test_interval_command(capsys):
    out = run_cli(capsys, "interval", "--coverage", "0.0", "0.9",
                  "--work-days", "1")
    assert "coverage 0%" in out
    assert "coverage 90%" in out
    assert "efficiency" in out


def test_compare_command_small(capsys):
    out = run_cli(capsys, "compare", "--app", "LU.C", "--nprocs", "8",
                  "--nodes", "2")
    assert "CR(ext3)" in out
    assert "speedup over CR(ext3)" in out
    assert "speedup over CR(pvfs)" in out


def test_observe_command_exports_artifacts(recorded):
    import gzip
    import json

    run_dir = recorded["dir"] / recorded["file"]
    doc = json.load(open(run_dir / "trace.json"))
    events = doc["traceEvents"]
    assert events, "chrome trace must be non-empty"
    assert {"X", "C", "M"} <= {e["ph"] for e in events}
    with gzip.open(run_dir / "trace.jsonl.gz", "rt") as fh:
        rows = [json.loads(line) for line in fh]
    assert rows and all("kind" in r for r in rows)
    metrics = json.load(open(run_dir / "metrics.json"))
    assert metrics["pool.pull.bytes"]["value"] > 0


def test_report_names_the_critical_path_and_its_dominant_share(capsys,
                                                                  recorded):
    out = run_cli(capsys, "report", recorded["file"],
                  "--runs-dir", str(recorded["dir"]))
    assert "== critical path: migration" in out
    assert "blcr.restart" in out
    assert "phase:Restart" in out
    assert re.search(r"Dominant component: \*\*blcr\.restart\*\* "
                     r"\(\d+\.\d{3}s, \d+% of the critical path\)\.", out)


def _sections(text, *headings):
    """The bodies of the given ``##`` sections, in order."""
    return [text[text.index(h):].split("\n## ", 1)[0] for h in headings]


def test_report_from_run_id_and_trace_file_share_critical_path(capsys,
                                                               recorded):
    by_id = run_cli(capsys, "report", recorded["file"],
                    "--runs-dir", str(recorded["dir"]))
    trace = recorded["dir"] / recorded["file"] / "trace.jsonl.gz"
    by_file = run_cli(capsys, "report", str(trace))
    heads = ("## Phase waterfall", "## Critical-path blame")
    assert _sections(by_id, *heads) == _sections(by_file, *heads)


def test_bench_command_clean_and_regressing(capsys, tmp_path):
    import json

    from benchmarks.harness import BENCH_SCHEMA_VERSION

    base = tmp_path / "baselines.json"
    out = run_cli(capsys, "bench", "--only", "fig6", "--out-dir",
                  str(tmp_path), "--baselines", str(base),
                  "--update-baselines")
    assert "updated baselines" in out
    assert (tmp_path / "BENCH_fig6.json").exists()
    # Clean rerun against the fresh baselines exits 0...
    out = run_cli(capsys, "bench", "--only", "fig6", "--out-dir",
                  str(tmp_path), "--baselines", str(base))
    assert "all results match" in out
    # ...and a tampered baseline makes the same run exit 1.
    doc = json.loads(base.read_text())
    assert doc["schema_version"] == BENCH_SCHEMA_VERSION
    key = next(iter(doc["benches"]["fig6"]))
    doc["benches"]["fig6"][key] *= 2
    base.write_text(json.dumps(doc))
    rc = main(["bench", "--only", "fig6", "--out-dir", str(tmp_path),
               "--baselines", str(base)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REGRESSIONS" in out
    assert "drifted" in out


def test_validate_exits_1_when_a_check_fails(capsys, monkeypatch):
    import repro.validation as validation

    monkeypatch.setattr(validation, "run_validation", lambda: [
        validation.Check("within", 1.0, 1.0, rel_tol=0.1),
        validation.Check("outside", 9.0, 1.0, rel_tol=0.1)])
    rc = main(["validate"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[PASS] within" in out
    assert "[FAIL] outside" in out


def test_bad_app_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--app", "FT.C"])


@pytest.mark.parametrize("argv", [
    ["migrate"], ["observe"],
    ["report", "RUN", "--app", "LU.C"],
    ["critical-path", "RUN", "--source", "node3"],
    ["critical-path", "--from-jsonl", "t.jsonl"],
    ["run", "--no-manifest"],
])
def test_only_run_simulates_a_single_migration(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_compare_memory_restart_mode(capsys):
    out = run_cli(capsys, "compare", "--app", "LU.C", "--nprocs", "8",
                  "--nodes", "2", "--restart-mode", "memory")
    assert "restart=memory" in out
    assert "speedup over CR(ext3)" in out


def test_migrate_trace_out_exports_jsonl(recorded):
    import gzip
    import json

    run_dir = recorded["dir"] / recorded["memory"]
    with gzip.open(run_dir / "trace.jsonl.gz", "rt") as fh:
        rows = [json.loads(line) for line in fh]
    assert any(r["kind"] == "pipeline.run.start" for r in rows)
    assert any(r["kind"] == "telemetry.sample" for r in rows)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["artifacts"] == [
        str(run_dir / name) for name in
        ("trace.jsonl.gz", "trace.json", "metrics.json")]


#: How each analysis names a trace file.
TRACE_ARGV = {"report": ["report"],
              "sanitize": ["sanitize", "--from-jsonl"]}


@pytest.mark.parametrize("command", ["report", "sanitize"])
def test_missing_trace_file_is_one_line_error(capsys, command):
    rc = main(TRACE_ARGV[command] + ["/no/such/trace.jsonl"])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.strip() == "error: trace file not found: /no/such/trace.jsonl"
    assert "Traceback" not in out


@pytest.mark.parametrize("command", ["report", "sanitize"])
def test_empty_trace_file_is_one_line_error(capsys, tmp_path, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(TRACE_ARGV[command] + [str(empty)])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.strip() == f"error: trace file is empty: {empty}"


@pytest.mark.parametrize("argv", [
    ["bench", "--restart-mode", "file"],
    ["bench", "--family", "fig4"],
    ["bench", "--profile-out", "p.pstats"],
    ["simcheck"],
    ["lint", "--format", "sarif"],
    ["lint", "--no-emitter-coverage"],
    ["lint", "--disable", "SIM201"],
    ["lint", "--baseline", "b.json"],
    ["lint", "--no-baseline"],
    ["lint", "--write-baseline"],
    ["critical-path", "RUN"],
    ["report", "RUN", "--html", "x.html"],
])
def test_removed_options_are_parse_errors(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


@pytest.mark.parametrize("argv,message", [
    (["run", "--nprocs", "7", "--nodes", "2"],
     "7 ranks do not divide evenly over 2 nodes"),
    (["compare", "--nprocs", "8", "--nodes", "3"],
     "8 ranks do not divide evenly over 3 nodes"),
    (["run", "--nprocs", "0"], "nprocs must be >= 1"),
    (["scale", "--ppn", "1", "0"], "nprocs must be >= 1"),
    (["run", "--nodes", "0"], "--nodes must be >= 1, got 0"),
    (["interval", "--coverage", "0.5", "1.5"],
     "--coverage must be in [0, 1], got 1.5"),
    (["interval", "--mtbf-hours", "0"],
     "--mtbf-hours must be positive, got 0"),
    (["interval", "--work-days", "-1"],
     "--work-days must be positive, got -1"),
    (["bench", "--only", "fig4", "nope"], "unknown benches ['nope']"),
    (["run", "--nprocs", "8", "--nodes", "2", "--source", "node7"],
     "--source must be a compute node of the run (node0..node1), "
     "got 'node7'"),
    (["run", "--nprocs", "8", "--nodes", "2", "--source", "spare0"],
     "--source must be a compute node of the run"),
])
def test_bad_scenario_arguments_are_one_line_errors(capsys, tmp_path, argv,
                                                    message):
    """Rejected before anything simulates, with no run directory."""
    runs = tmp_path / "runs"
    if argv[0] in ("run", "compare", "bench"):
        argv = argv + ["--runs-dir", str(runs)]
    if argv[0] == "bench":
        argv = argv + ["--out-dir", str(tmp_path / "bench")]
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 2
    assert out.startswith(f"error: {message}")
    assert out.count("\n") == 1
    assert not runs.exists()


def test_choice_lists_come_from_their_owners():
    from benchmarks.harness import BENCHES
    from repro.pipeline.pipeline import SINKS, TRANSPORTS
    from repro.sanitize.runner import SCENARIOS

    def option(command, flag):
        sub = next(a for a in build_parser()._actions
                   if a.dest == "command").choices[command]
        return next(a for a in sub._actions if flag in a.option_strings)

    assert list(option("run", "--transport").choices) == list(TRANSPORTS)
    for command in ("run", "compare"):
        assert list(option(command, "--restart-mode").choices) == list(SINKS)
    assert list(option("sanitize", "--scenario").choices) == list(SCENARIOS)
    assert set(BENCHES) <= set(re.findall(r"\w+", option("bench", "--only").help))


# -- run registry and reports ------------------------------------------------


def _report_body(text):
    """Phase waterfall through the end of the metrics summary."""
    start = text.index("## Phase waterfall")
    end = text.find("## Recorded results")
    return text[start:end if end >= 0 else len(text)].rstrip()


def _run_ids(capsys, runs_dir):
    out = run_cli(capsys, "runs", "list", "--runs-dir", str(runs_dir))
    return [line.split()[0] for line in out.splitlines()[1:]]


def _hand_manifest(runs_dir, restart_mode):
    """Record a manifest with no artifacts, as ``compare`` does."""
    from repro.obs import RunManifest, write_manifest

    manifest = RunManifest.new("compare", {"restart_mode": restart_mode})
    manifest.results = {"phases": {"Restart": 4.4 if restart_mode == "file"
                                   else 0.07}}
    write_manifest(manifest, str(runs_dir))
    return manifest.run_id


def test_migrate_records_a_manifest(capsys, recorded):
    ids = _run_ids(capsys, recorded["dir"])
    assert ids == [recorded["file"], recorded["memory"]]
    assert "-run-" in ids[0]
    show = run_cli(capsys, "runs", "show", ids[0],
                   "--runs-dir", str(recorded["dir"]))
    import json
    doc = json.loads(show)
    assert doc["command"] == "run"
    assert doc["results"]["phases"]["Restart"] > 0
    assert doc["results"]["chunks_transferred"] > 0
    assert doc["results"]["telemetry_samples"] > 0
    assert doc["config"]["restart_mode"] == "file"


def test_no_manifest_flag_skips_recording(capsys, tmp_path):
    out = run_cli(capsys, "compare", *SMALL, "--runs-dir", str(tmp_path),
                  "--no-manifest")
    assert "recorded run" not in out
    out = run_cli(capsys, "runs", "list", "--runs-dir", str(tmp_path))
    assert "no runs recorded" in out


def test_runs_diff_shows_restart_delta_without_rerunning(capsys, recorded):
    out = run_cli(capsys, "runs", "diff", recorded["file"],
                  recorded["memory"], "--runs-dir", str(recorded["dir"]))
    assert "restart_mode: file -> memory" in out
    assert "phases.Restart:" in out
    assert "%" in out


def test_runs_show_and_diff_argument_validation(capsys, tmp_path):
    rc = main(["runs", "show", "--runs-dir", str(tmp_path)])
    assert rc == 2
    assert "exactly one RUN_ID" in capsys.readouterr().out
    rc = main(["runs", "diff", "only-one", "--runs-dir", str(tmp_path)])
    assert rc == 2
    rc = main(["runs", "show", "no-such-run", "--runs-dir", str(tmp_path)])
    out = capsys.readouterr()  # drain the diff error too
    assert rc == 2


def test_report_command_live_renders_sections(capsys, recorded):
    out = run_cli(capsys, "report", recorded["file"],
                  "--runs-dir", str(recorded["dir"]))
    for section in ("## Phase waterfall", "## Critical-path blame",
                    "## Telemetry time-series", "## Metrics summary"):
        assert section in out, section
    # At least four sampled series render as sparkline rows, with units.
    assert out.count("| `kernel.") >= 4
    assert "| `kernel.queue_depth` | events |" in out
    assert "| `pool.pull.bytes` | bytes |" in out


def test_report_matches_live_render(capsys, recorded):
    """``report RUN`` renders what an in-process render of the same run
    does, from the waterfall through the metrics summary."""
    from repro.analysis import telemetry_series
    from repro.experiments import FAILURE_AT, Run
    from repro.obs import render_run_report
    from repro.simulate import MetricsRegistry, TelemetryProbe, Tracer
    from repro.simulate.telemetry import DEFAULT_INTERVAL

    tracer, registry = Tracer(), MetricsRegistry()
    probe = TelemetryProbe(DEFAULT_INTERVAL)
    sc = Run("LU.C", 8, n_compute=2).scenario(0, trace=tracer,
                                               metrics=registry)
    sc.sim.attach_probe(probe)
    sc.run_migration("node1", at=FAILURE_AT)
    live = render_run_report(records=tracer,
                             telemetry=telemetry_series(tracer),
                             metrics_summary=registry.as_dict())
    out = run_cli(capsys, "report", recorded["file"],
                  "--runs-dir", str(recorded["dir"]))
    assert "## Metrics summary" in _report_body(out)
    assert _report_body(out) == _report_body(live)


def test_report_writes_markdown_to_out(capsys, tmp_path, recorded):
    md = tmp_path / "report.md"
    out = run_cli(capsys, "report", recorded["file"],
                  "--runs-dir", str(recorded["dir"]), "--out", str(md))
    # With --out the report goes to the file, stdout gets only the note.
    assert out == f"wrote {md}\n"
    assert "## Phase waterfall" in md.read_text()


def test_report_from_run_rerenders_archived_trace(capsys, recorded):
    out = run_cli(capsys, "report", recorded["file"],
                  "--runs-dir", str(recorded["dir"]))
    assert f"Run report — {recorded['file']}" in out
    assert "## Recorded results" in out
    # A bare trace file renders the same trace evidence, without the
    # manifest's metrics summary.
    trace = recorded["dir"] / recorded["file"] / "trace.jsonl.gz"
    bare = run_cli(capsys, "report", str(trace))
    assert f"Run report — {trace}" in bare
    assert "## Telemetry time-series" in bare
    assert "## Metrics summary" not in bare


def test_report_from_unknown_run_is_one_line_error(capsys, tmp_path):
    rc = main(["report", "no-such-run", "--runs-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.startswith("error: 'no-such-run' is neither a trace file")
    assert "Traceback" not in out


@pytest.mark.parametrize("argv,fragment", [
    (["explain", "a", "b", "--out", "/no/such/dir/e.md"],
     "--out directory does not exist"),
    (["report", "RUN", "--out", "/no/such/dir/r.md"],
     "--out directory does not exist"),
    (["lint", "--sarif-out", "/no/such/dir/s.sarif"],
     "--sarif-out directory does not exist"),
])
def test_unwritable_output_paths_fail_fast_with_exit_2(capsys, argv,
                                                       fragment):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 2
    assert fragment in out
    assert out.strip().startswith("error:")
    assert "Traceback" not in out


def test_output_path_that_is_a_directory_fails_fast(capsys, tmp_path):
    rc = main(["report", "RUN", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "path is a directory" in out


def test_run_runs_dir_that_is_a_file_fails_fast(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["run", *SMALL, "--source", "node1",
               "--runs-dir", str(blocker)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "--runs-dir path is a file, not a directory" in out


# -- differential trace analysis (repro explain) -----------------------------


def test_explain_from_trace_files_mixed_gzip(capsys, tmp_path, recorded):
    import gzip

    gz = recorded["dir"] / recorded["file"] / "trace.jsonl.gz"
    plain = tmp_path / "mem.jsonl"
    with gzip.open(recorded["dir"] / recorded["memory"] / "trace.jsonl.gz",
                   "rt") as fh:
        plain.write_text(fh.read())
    out = run_cli(capsys, "explain", str(gz), str(plain))
    assert "## Differential trace analysis" in out
    assert "dominant delta component: blcr.restart" in out
    assert "### Critical-path blame shifts" in out
    assert "`blcr.restart`" in out


def test_explain_from_run_ids(capsys, recorded):
    id_a, id_b = recorded["file"], recorded["memory"]
    out = run_cli(capsys, "explain", id_a, id_b,
                  "--runs-dir", str(recorded["dir"]))
    assert f"run A: `{id_a}`" in out
    assert f"run B: `{id_b}`" in out
    assert "dominant delta component: blcr.restart" in out


def test_explain_against_itself_and_the_unprobed_pin(capsys, tmp_path,
                                                    recorded):
    """A run against itself moves no component.  A default ``repro run``
    (the pinned Fig. 4 run, with a telemetry probe) against the pin,
    recorded without one: every other record is identical."""
    import os
    import re

    same = run_cli(capsys, "explain", recorded["file"], recorded["file"],
                   "--runs-dir", str(recorded["dir"]))
    assert "no component moved" in same
    assert "dominant delta component" not in same
    assert re.search(r"^records: all \d+ identical \(\d+ telemetry "
                     r"samples not compared\)$", same, re.M)
    pin = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                       "baseline_traces", "migration_LU.C_file.jsonl.gz")
    run_cli(capsys, "run", "--runs-dir", str(tmp_path))
    (run_id,) = [p.name for p in tmp_path.iterdir()]
    out = run_cli(capsys, "explain", pin, run_id,
                  "--runs-dir", str(tmp_path))
    assert re.search(r"^records: all 13802 identical \([1-9]\d* telemetry "
                     r"samples not compared\)$", out, re.M)
    assert "no component moved" in out
    moved = run_cli(capsys, "explain", pin, recorded["file"],
                    "--runs-dir", str(recorded["dir"]))
    assert re.search(r"^first differing record: #\d+ ", moved, re.M)


def test_explain_writes_out_file(capsys, tmp_path, recorded):
    dest = tmp_path / "explain.md"
    out = run_cli(capsys, "explain", recorded["file"], recorded["memory"],
                  "--runs-dir", str(recorded["dir"]), "--out", str(dest))
    assert f"wrote {dest}" in out
    assert "dominant delta component" in dest.read_text()


def test_explain_unknown_source_is_one_line_error(capsys, tmp_path):
    rc = main(["explain", "nope-a", "nope-b",
               "--runs-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.startswith("error: 'nope-a' is neither a trace file")
    assert "Traceback" not in out


def test_explain_run_without_trace_artifact_errors(capsys, tmp_path):
    run_id = _hand_manifest(tmp_path, "file")
    rc = main(["explain", run_id, run_id, "--runs-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "no archived trace artifact" in out
    assert "`repro run`" in out


def test_runs_diff_prints_no_trace_explanation(capsys, recorded):
    """``runs diff`` diffs manifests; ``explain`` is the one trace diff."""
    out = run_cli(capsys, "runs", "diff", recorded["file"],
                  recorded["memory"], "--runs-dir", str(recorded["dir"]))
    assert "restart_mode: file -> memory" in out
    assert "Differential trace analysis" not in out
    assert "dominant delta component" not in out


def test_runs_diff_without_traces_skips_explanation(capsys, tmp_path):
    ids = [_hand_manifest(tmp_path, mode) for mode in ("file", "memory")]
    out = run_cli(capsys, "runs", "diff", *ids, "--runs-dir", str(tmp_path))
    assert "restart_mode: file -> memory" in out
    assert "Differential trace analysis" not in out


def test_report_archives_gzip_trace_and_from_run_reads_it(capsys, recorded):
    archived = recorded["dir"] / recorded["file"] / "trace.jsonl.gz"
    assert archived.read_bytes()[:2] == b"\x1f\x8b"
    out = run_cli(capsys, "report", recorded["file"],
                  "--runs-dir", str(recorded["dir"]))
    assert "## Phase waterfall" in out


def test_progress_heartbeat_goes_to_stderr(capsys, tmp_path):
    rc = main(["run", *SMALL, "--source", "node1", "--progress",
               "--runs-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "done in" in captured.err
    assert "[run" in captured.err
    # stdout stays clean for the phase table and the run note.
    assert "done in" not in captured.out
    assert "recorded run" in captured.out
