"""Benchmark regression harness: artifacts, flattening, baseline diffs.

The harness lives in the top-level ``benchmarks`` package (importable
from the repository root, exactly as CI and ``repro bench`` run it).
"""

import json

import pytest

pytest.importorskip("benchmarks.harness",
                    reason="benchmarks package requires repo-root cwd")

from benchmarks.harness import (  # noqa: E402
    BENCH_SCHEMA_VERSION,
    BENCHES,
    EXPLAIN_SCENARIOS,
    baseline_trace_path,
    compare_to_baselines,
    default_baselines_path,
    flatten_results,
    run_benches,
)


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
    baselines = {"default_rel_tolerance": 0.05,
                 "benches": {"fig4": {"a": 10.0, "b": 2.0, "gone": 1.0}}}
    measured = {"fig4": {"a": 10.4, "b": 3.0, "extra": 99.0}}
    problems = compare_to_baselines(measured, baselines)
    # a drifted +4% (within 5%), b drifted +50%, 'gone' disappeared,
    # 'extra' is informational only.
    assert len(problems) == 2
    drift_msg = next(p for p in problems if "b = 3" in p)
    assert "+50.0%" in drift_msg and "tolerance 5.0%" in drift_msg
    assert any("baseline key 'gone' missing" in p for p in problems)
    # Negative drift keeps its sign.
    problems = compare_to_baselines({"fig4": {"a": 5.0, "b": 2.0,
                                              "gone": 1.0}}, baselines)
    assert any("-50.0%" in p for p in problems)


def test_compare_to_baselines_near_zero_uses_absolute_floor():
    """Regression: a near-zero baseline made the relative-drift division
    meaningless (float dust read as a million-percent regression).  Values
    whose baseline sits within the absolute floor are compared by absolute
    delta instead."""
    baselines = {"benches": {"fig4": {"dust": 0.0, "tiny": 1e-12}}}
    # Float dust on a zero baseline passes.
    assert compare_to_baselines({"fig4": {"dust": 2e-10,
                                          "tiny": 0.0}}, baselines) == []
    # A real move off the zero baseline still fails, with the floor named.
    problems = compare_to_baselines({"fig4": {"dust": 0.5,
                                              "tiny": 1e-12}}, baselines)
    assert len(problems) == 1
    assert "absolute floor" in problems[0] and "dust" in problems[0]


def test_compare_to_baselines_tolerance_override_and_unrun_bench():
    baselines = {"benches": {"fig4": {"a": 10.0}, "fig7": {"z": 1.0}}}
    measured = {"fig4": {"a": 10.4}}  # fig7 not run this invocation: OK
    assert compare_to_baselines(measured, baselines) == []
    # Explicit tolerance overrides the baseline default.
    assert len(compare_to_baselines(measured, baselines,
                                    tolerance=0.01)) == 1


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
    for section in ("results", "paper_deltas", "critical_path",
                    "dominant", "paper_reference", "title"):
        assert section in doc, f"artifact missing {section!r}"
    lu = doc["results"]["LU.C"]
    assert lu["Total"] == pytest.approx(
        sum(v for k, v in lu.items() if k != "Total"))
    delta = doc["paper_deltas"]["LU.C"]["total"]
    assert delta["measured"] == pytest.approx(lu["Total"])
    assert delta["ratio"] == pytest.approx(
        delta["measured"] / delta["paper"], abs=1e-3)
    # Fig. 4's headline claim, straight from the causal profiler.
    assert doc["dominant"]["LU.C"]["component"] == "blcr.restart"
    assert doc["dominant"]["LU.C"]["share"] > 0.5
    assert "blcr.restart" in doc["critical_path"]["LU.C"]["phase:Restart"]
    assert "within tolerance" in summary


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
    assert "default_rel_tolerance" in doc
    assert doc["benches"]["fig7"] == {"keep.me": 1.0}  # untouched
    fig4 = doc["benches"]["fig4"]
    assert fig4 and all(isinstance(v, float) for v in fig4.values())
    # A rerun against the fresh baselines is clean by construction.
    _, regressions, _ = run_benches(["fig4"], out_dir=str(tmp_path),
                                    baselines_path=str(base))
    assert regressions == []


def test_baseline_trace_paths_shared_by_scenario(tmp_path):
    base = str(tmp_path / "baselines.json")
    # All migration benches run the same canonical scenario, so they
    # share one pinned trace; the kernel family has none.
    paths = {baseline_trace_path(n, base) for n in EXPLAIN_SCENARIOS}
    assert paths == {str(tmp_path / "baseline_traces" /
                         "migration_LU.C_file.jsonl.gz")}
    assert baseline_trace_path("events_per_sec", base) is None


def test_update_baselines_pins_canonical_trace(tmp_path):
    base = tmp_path / "baselines.json"
    _, _, summary = run_benches(["fig4"], out_dir=str(tmp_path),
                                baselines_path=str(base),
                                update_baselines=True)
    assert "pinned baseline trace" in summary
    pin = baseline_trace_path("fig4", str(base))
    assert pin is not None
    with open(pin, "rb") as fh:
        assert fh.read(2) == b"\x1f\x8b"


def test_regression_renders_explain_artifact(tmp_path):
    base = tmp_path / "baselines.json"
    _, _, _ = run_benches(["fig4"], out_dir=str(tmp_path),
                          baselines_path=str(base), update_baselines=True)
    doc = json.loads(base.read_text())
    key = next(k for k in doc["benches"]["fig4"] if k.endswith("Total"))
    doc["benches"]["fig4"][key] *= 2
    base.write_text(json.dumps(doc))
    paths, regressions, summary = run_benches(
        ["fig4"], out_dir=str(tmp_path), baselines_path=str(base))
    assert regressions
    explain = str(tmp_path / "EXPLAIN_fig4.md")
    assert explain in paths, "explanation must ride along as an artifact"
    text = open(explain).read()
    assert "## Differential trace analysis" in text
    assert "dominant delta component:" in text
    assert "explain fig4: dominant delta component:" in summary


def test_regression_without_pinned_trace_notes_gap(tmp_path):
    base = tmp_path / "baselines.json"
    base.write_text(json.dumps({
        "schema_version": BENCH_SCHEMA_VERSION,
        "benches": {"fig4": {"LU.C.Total": 1e6}},
    }))
    paths, regressions, summary = run_benches(
        ["fig4"], out_dir=str(tmp_path), baselines_path=str(base))
    assert regressions
    assert "no pinned baseline trace" in summary
    assert not [p for p in paths if "EXPLAIN" in p]


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


def test_committed_baselines_cover_every_bench():
    """The committed baselines.json must have an entry per bench, so the
    CI job actually guards all four artifacts."""
    doc = json.load(open(default_baselines_path()))
    assert doc["schema_version"] == BENCH_SCHEMA_VERSION
    assert set(doc["benches"]) == set(BENCHES)
    for name, flat in doc["benches"].items():
        assert flat, f"bench {name!r} has an empty baseline"
