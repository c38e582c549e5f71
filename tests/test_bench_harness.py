"""Benchmark regression harness: artifacts, flattening, baseline diffs.

The harness lives in the top-level ``benchmarks`` package (importable
from the repository root, exactly as CI and ``repro bench`` run it).
"""

import json
import os

import pytest

pytest.importorskip("benchmarks.harness",
                    reason="benchmarks package requires repo-root cwd")

from benchmarks.harness import (  # noqa: E402
    BENCH_SCHEMA_VERSION,
    BENCHES,
    PINNED_RUN,
    baseline_trace_path,
    compare_to_baselines,
    default_baselines_path,
    flatten_results,
    run_benches,
)
from repro.analysis import open_trace_text  # noqa: E402


def test_flatten_results_dotted_numeric_leaves():
    nested = {"LU.C": {"Job Stall": 0.5, "Total": 6.0,
                       "deep": {"x": 1}},
              "note": "text ignored", "flag": True}
    flat = flatten_results(nested)
    assert flat == {"LU.C.Job Stall": 0.5, "LU.C.Total": 6.0,
                    "LU.C.deep.x": 1.0}
    assert all(isinstance(v, float) for v in flat.values())
    assert flatten_results({}) == {}


def test_compare_to_baselines_detects_drift_and_missing_keys():
    baselines = {"benches": {"fig4": {"a": 10.0, "b": 2.0, "gone": 1.0},
                             "fig7": {"z": 1.0}}}
    measured = {"fig4": {"a": 10.0, "b": 3.0, "extra": 99.0}}
    problems = compare_to_baselines(measured, baselines)
    # b drifted, 'gone' disappeared, 'extra' is informational only, and
    # fig7 was not run this invocation.
    assert len(problems) == 2
    assert "fig4: b = 3.0 drifted +1 from baseline 2.0" in problems
    assert any("baseline key 'gone' missing" in p for p in problems)
    # Negative drift keeps its sign.
    problems = compare_to_baselines({"fig4": {"a": 5.0, "b": 2.0,
                                              "gone": 1.0}}, baselines)
    assert problems == ["fig4: a = 5.0 drifted -5 from baseline 10.0"]


def test_compare_to_baselines_is_exact():
    """Pins admit no tolerance: the simulator is deterministic, so one
    event more or less in a pinned count is a regression."""
    doc = json.load(open(default_baselines_path()))
    pinned = doc["benches"]["events_per_sec"]
    key = "fig6_sweep.events_processed"
    assert compare_to_baselines({"events_per_sec": pinned}, doc) == []
    for delta in (-1, 1):
        measured = dict(pinned, **{key: pinned[key] + delta})
        assert compare_to_baselines({"events_per_sec": measured}, doc) == [
            f"events_per_sec: {key} = {pinned[key] + delta!r} drifted "
            f"{delta:+d} from baseline {pinned[key]!r}"]


def test_run_benches_rejects_unknown_names(tmp_path):
    with pytest.raises(ValueError, match="unknown benches"):
        run_benches(["nope"], out_dir=str(tmp_path))


def test_bench_artifact_shape_and_baseline_agreement(tmp_path):
    """One real bench end-to-end: artifact schema + clean baseline diff."""
    paths, regressions, summary = run_benches(["fig4"],
                                              out_dir=str(tmp_path))
    assert regressions == [], regressions
    assert len(paths) == 1 and paths[0].endswith("BENCH_fig4.json")
    doc = json.load(open(paths[0]))
    assert doc["schema_version"] == BENCH_SCHEMA_VERSION
    assert doc["name"] == "fig4"
    assert doc["wall_seconds"] > 0
    lu = doc["results"]["LU.C"]
    assert lu["Total"] == pytest.approx(
        sum(v for k, v in lu.items() if k != "Total"))
    assert "all results match" in summary


def test_every_artifact_holds_only_pins(tmp_path):
    """An artifact is the pinned results, named and titled, and the wall
    time of the bench; every bench reproduces its pins untraced."""
    paths, regressions, _ = run_benches(out_dir=str(tmp_path))
    assert regressions == [], regressions
    assert len(paths) == len(BENCHES)
    for path in paths:
        assert set(json.load(open(path))) == {
            "schema_version", "name", "title", "results", "wall_seconds"}


def test_only_pinning_builds_a_tracer(tmp_path, monkeypatch):
    """Benches run untraced; --update-baselines traces the pinned run
    alone."""
    from repro.simulate import Tracer

    built = []
    real_init = Tracer.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Tracer, "__init__", counting_init)
    run_benches(["fig4", "pipeline"], out_dir=str(tmp_path))
    assert built == []
    run_benches(["fig4", "pipeline"], out_dir=str(tmp_path),
                baselines_path=str(tmp_path / "baselines.json"),
                update_baselines=True)
    assert len(built) == 1


def test_update_baselines_writes_merged_doc(tmp_path):
    """--update-baselines merges per-bench keys, keeping other benches."""
    base = tmp_path / "baselines.json"
    base.write_text(json.dumps({
        "schema_version": BENCH_SCHEMA_VERSION,
        "benches": {"fig7": {"keep.me": 1.0}},
    }))
    paths, regressions, summary = run_benches(
        ["fig4"], out_dir=str(tmp_path), baselines_path=str(base),
        update_baselines=True)
    assert regressions == []
    assert "updated baselines" in summary
    doc = json.loads(base.read_text())
    assert doc["schema_version"] == BENCH_SCHEMA_VERSION
    assert set(doc) == {"schema_version", "benches"}
    assert doc["benches"]["fig7"] == {"keep.me": 1.0}  # untouched
    fig4 = doc["benches"]["fig4"]
    assert fig4 and all(isinstance(v, float) for v in fig4.values())
    # A rerun against the fresh baselines is clean by construction.
    _, regressions, _ = run_benches(["fig4"], out_dir=str(tmp_path),
                                    baselines_path=str(base))
    assert regressions == []


def test_single_pinned_trace_path():
    """One trace is pinned, the Fig. 4 LU.C file-restart migration's,
    next to whichever baselines file is in use."""
    from repro.experiments import FIG4

    assert PINNED_RUN == FIG4["LU.C"]
    assert baseline_trace_path() == os.path.join(
        os.path.dirname(default_baselines_path()), "baseline_traces",
        "migration_LU.C_file.jsonl.gz")
    assert os.path.exists(baseline_trace_path())
    assert baseline_trace_path("/x/baselines.json") == (
        "/x/baseline_traces/migration_LU.C_file.jsonl.gz")


def test_update_baselines_pins_canonical_trace(tmp_path):
    base = tmp_path / "baselines.json"
    _, _, summary = run_benches(["fig4"], out_dir=str(tmp_path),
                                baselines_path=str(base),
                                update_baselines=True)
    assert "pinned baseline trace" in summary
    with open(baseline_trace_path(str(base)), "rb") as fh:
        assert fh.read(2) == b"\x1f\x8b"


def test_repinning_a_subset_writes_the_committed_trace(tmp_path):
    """fig6 simulates ppn1, ppn2 and ppn4 as well as the pinned ppn8 run;
    each run allocates its own ids (QP numbers, descriptor seqs, ...), so
    the re-pinned trace matches the committed one."""
    base = tmp_path / "baselines.json"
    run_benches(["fig6"], out_dir=str(tmp_path), baselines_path=str(base),
                update_baselines=True)
    written, committed = (_records(path) for path in (
        baseline_trace_path(str(base)), baseline_trace_path()))
    assert written == committed


def _records(path):
    with open_trace_text(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_run_benches_simulates_each_scenario_once(tmp_path, monkeypatch):
    """fig4 and pipeline both read the LU.C.64 file-mode migration: one
    ``run_benches`` call simulates it once and drops it on return."""
    import benchmarks.harness as harness
    from repro.scenario import Scenario

    builds = []
    real_build = Scenario.build.__func__

    def counting_build(cls, **kwargs):
        builds.append((kwargs["app"], kwargs["nprocs"],
                       kwargs.get("restart_mode")))
        return real_build(cls, **kwargs)

    monkeypatch.setattr(Scenario, "build", classmethod(counting_build))
    _, regressions, _ = run_benches(["fig4", "pipeline"],
                                    out_dir=str(tmp_path))
    assert regressions == []
    assert builds.count(("LU.C", 64, "file")) == 1
    assert harness._memo is None


def test_run_benches_simulates_each_run_once(tmp_path, monkeypatch):
    """The kernel-count sweep reads the Fig. 6 runs that fig6 already
    simulated: one ``run_benches`` call drives each ``Run`` once, and the
    pinned kernel counts still match."""
    from repro.experiments import Run

    drives = []
    real_drive = Run.drive

    def counting_drive(self, sc):
        drives.append(self)
        return real_drive(self, sc)

    monkeypatch.setattr(Run, "drive", counting_drive)
    _, regressions, _ = run_benches(["fig6", "events_per_sec"],
                                    out_dir=str(tmp_path))
    assert regressions == []
    assert len(drives) == len(set(drives)) == 4


def test_committed_baselines_cover_every_bench():
    """The committed baselines.json must have an entry per bench, so the
    CI job actually guards all four artifacts."""
    doc = json.load(open(default_baselines_path()))
    assert doc["schema_version"] == BENCH_SCHEMA_VERSION
    assert set(doc["benches"]) == set(BENCHES)
    for name, flat in doc["benches"].items():
        assert flat, f"bench {name!r} has an empty baseline"
