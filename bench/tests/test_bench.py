"""Tests of the benchmark itself; run with ``pytest bench/tests``."""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

from bench import DERIVED, ROOT, load_spec
from bench.compare import compare, verdict
from bench.layers import LAYERS, LayerClock, install
from bench.measure import REFERENCE_PROBE_S, _Loop, measure, probe_s
from bench.workloads import WORKLOADS, Migrate, MigrateBytes

SPEC = load_spec()


@pytest.fixture(scope="module")
def quick_set(tmp_path_factory):
    """One ``bench run --quick``: every workload, untraced then traced.

    Returns the wall time rescaled to the reference host speed, as the
    benchmark rescales its own timings, and the parsed ``bench.json``.
    """
    out = tmp_path_factory.mktemp("quick")
    probes = [probe_s() for _ in range(5)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    probes += [probe_s() for _ in range(5)]
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    slowdown = max(1.0, statistics.median(probes) / REFERENCE_PROBE_S)
    with open(out / "bench.json", encoding="utf-8") as fh:
        return wall / slowdown, json.load(fh)


def test_quick_set_finishes_in_30_s(quick_set):
    wall, doc = quick_set
    assert wall < 30, f"quick set took {wall:.1f} reference-host seconds"
    assert doc["env"]["quick"] is True
    assert sorted(doc["workloads"]) == sorted(WORKLOADS)


def test_wrapped_runs_reproduce_untraced_outputs_on_every_workload(quick_set):
    _, doc = quick_set
    for name, result in doc["workloads"].items():
        assert result["correct"], (name, result["failures"])
        assert result["outputs_sha"], name
        assert result["metrics"]["failed_frac"]["value"] == 0


def test_result_carries_every_declared_metric_with_its_unit(quick_set):
    _, doc = quick_set
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    for name, result in doc["workloads"].items():
        metrics = result["metrics"]
        for m in declared:
            assert metrics[m["name"]]["unit"] == m["unit"], (name, m["name"])
        for timing in ("setup_s", "run_s_p50"):
            assert metrics[timing]["n"] >= 1 and "q1" in metrics[timing]
        assert metrics["peak_rss_mb"]["value"] > 0
    assert "obs_overhead_ratio" in doc["workloads"]["migrate_traced"]["metrics"]
    assert doc["workloads"]["migrate"]["metrics"]["paper_rel_err"]["value"] \
        == pytest.approx(abs(6.092014 / 6.3 - 1), rel=1e-5)


def test_spec_names_workloads_and_layers_the_code_measures():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    layer_metrics = {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.self_s", f"{layer}.share",
                f"{layer}.calls"} <= layer_metrics
    assert not set(DERIVED) & {m["name"] for m in SPEC["end_to_end"]}


def test_layer_self_times_sum_to_the_traced_wall_time():
    loop = _Loop(WORKLOADS["migrate"], LayerClock())
    uninstall = install(loop.clock)
    try:
        sample = loop.attempt(next(WORKLOADS["migrate"].inputs(0)), False)
    finally:
        uninstall()
    assert sample is not None, loop.m.failures
    assert set(sample.self_s) == set(LAYERS)
    total = sum(sample.self_s.values())
    wall = sample.setup_s + sample.run_s
    assert total == pytest.approx(wall, rel=0.02)
    assert sample.self_s["simulate"] > 0 and sample.self_s["network"] > 0
    assert sample.calls["mpi"] > 0


def test_uninstall_restores_every_wrapped_callable():
    from repro.simulate import Simulator

    original = Simulator.run
    uninstall = install(LayerClock())
    assert Simulator.run is not original
    uninstall()
    assert Simulator.run is original


class _WrongBytes(Migrate):
    def observe(self, sc, inp, report, captured):
        outcome = super().observe(sc, inp, report, captured)
        outcome.outputs["moved_mb"] += 1.0
        return outcome


class _HashMismatch(MigrateBytes):
    record_data = False
    min_available_gb = 0.0

    def capture(self, sc, inp):
        return "captured"

    def observe(self, sc, inp, report, captured):
        outcome = Migrate.observe(self, sc, inp, report, captured)
        outcome.outputs.update(segments_before=captured,
                               segments_after="restored")
        return outcome


@pytest.mark.parametrize("doctored", [_WrongBytes(), _HashMismatch()],
                         ids=["wrong-byte-count", "hash-mismatch"])
def test_doctored_output_counts_in_failed_frac(doctored):
    m = measure(doctored, 0, 0.0, quick=True)
    assert not m.correct
    assert m.values["failed_frac"]["value"] == 1.0
    assert m.attempted == len(m.failures) == 2


class _Drifting(Migrate):
    """Outputs change from one run to the next, as a perturbing wrapper would."""

    def __init__(self):
        self.runs = 0

    def observe(self, sc, inp, report, captured):
        self.runs += 1
        outcome = super().observe(sc, inp, report, captured)
        outcome.outputs["run"] = self.runs
        return outcome


def test_traced_pass_flags_changed_outputs():
    m = measure(_Drifting(), 0, 0.0, end_to_end=False, layers=True,
                quick=True)
    assert "a wrapped run changed the simulated outputs" in m.failures


def _metric(value, n=None, q1=None, q3=None):
    m = {"value": value, "unit": "s"}
    if n is not None:
        m.update(n=n, q1=q1, q3=q3)
    return m


def test_verdicts():
    a = _metric(1.0, n=100, q1=0.99, q3=1.01)
    assert verdict(a, _metric(1.05), "lower", 0.1)[0] == "within bound"
    assert verdict(a, _metric(1.2), "lower", 0.1)[0] == "worse"
    assert verdict(a, _metric(0.8), "lower", 0.1)[0] == "better"
    assert verdict(a, _metric(0.8), "higher", 0.1)[0] == "worse"
    noisy = _metric(1.0, n=4, q1=0.7, q3=1.3)
    assert verdict(noisy, _metric(1.2), "lower", 0.1)[0] == "unresolved"
    assert verdict(_metric(3), _metric(3), "lower", 0.0)[0] == "same"
    assert verdict(_metric(3), _metric(4), "lower", 0.0)[0] == "worse"


def test_compare_fails_on_a_higher_failed_frac():
    def doc(failed_frac):
        return {"workloads": {"migrate": {"metrics": {
            "failed_frac": {"value": failed_frac, "unit": "ratio"},
            "run_s_p50": _metric(0.2)}}}}

    rows, failed = compare(doc(0.0), doc(0.0))
    assert not failed and {r[5] for r in rows} == {"same", "within bound"}
    rows, failed = compare(doc(0.0), doc(0.5))
    assert failed
    assert ("migrate", "failed_frac", "0", "0.5", "+inf%", "worse") in rows


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "migrate", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
