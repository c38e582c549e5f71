"""The paired-study driver: one revision against itself, end to end.

Runs ``python -m benchmarks.pair --quick`` with the same committed
revision on both sides, two pairs of two workloads, and checks that the
JSON it writes holds every field: both revisions, each pair's raw values
for every end-to-end metric of ``BENCHMARK.json``, and the per-metric
summary.
"""

import json
import os
import shutil
import subprocess

import pytest

pair = pytest.importorskip("benchmarks.pair",
                           reason="benchmarks package requires repo-root cwd")


def _in_git_checkout() -> bool:
    if shutil.which("git") is None or shutil.which("tar") is None:
        return False
    done = subprocess.run(["git", "rev-parse", "--verify", "HEAD"],
                          cwd=pair.ROOT, capture_output=True)
    return done.returncode == 0


pytestmark = pytest.mark.skipif(not _in_git_checkout(),
                                reason="needs a git checkout with a commit")


def test_quick_study_of_a_revision_against_itself(tmp_path):
    out = tmp_path / "pair.json"
    assert pair.main(["--base", "HEAD", "--head", "HEAD", "--workload",
                      "migrate", "cluster", "--seed", "3", "--pairs", "2",
                      "--seconds", "1", "--quick", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    with open(os.path.join(pair.ROOT, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    assert set(doc) == {"seconds", "quick", "trace", "base", "head",
                        "workloads"}
    assert (doc["seconds"], doc["quick"], doc["trace"]) == (1.0, True, "0")
    assert list(doc["workloads"]) == ["migrate", "cluster"]
    for side in ("base", "head"):
        assert doc[side]["rev"] == "HEAD"
        assert len(doc[side]["sha"]) == 40
    assert doc["base"]["sha"] == doc["head"]["sha"]

    for study in doc["workloads"].values():
        assert set(study) == {"pairs", "summary"}
        assert [p["seed"] for p in study["pairs"]] == [3, 4]
        assert [p["first"] for p in study["pairs"]] == ["base", "head"]
        for p in study["pairs"]:
            assert set(p) == {"seed", "first", "base", "head"}
            for side in ("base", "head"):
                run = p[side]
                assert run["correct"] is True and run["failed"] == 0
                assert set(run["values"]) == set(metrics)
                assert all(v > 0 for v in run["values"].values())

        assert set(study["summary"]) == set(metrics)
        for name, s in study["summary"].items():
            assert (s["unit"], s["better"]) == (metrics[name]["unit"],
                                                metrics[name]["better"])
            assert s["pairs"] == 2 and 0 <= s["won"] <= 2
            for key in ("base", "head", "ratio"):
                q = s[key]
                assert q["q1"] <= q["median"] <= q["q3"]
            ratios = [p["head"]["values"][name] / p["base"]["values"][name]
                      for p in study["pairs"]]
            assert s["ratio"]["median"] == pytest.approx(sum(ratios) / 2)
            base = sorted(p["base"]["values"][name] for p in study["pairs"])
            assert (s["base"]["q1"], s["base"]["q3"]) == pytest.approx(
                (base[0] + (base[1] - base[0]) / 4,
                 base[0] + 3 * (base[1] - base[0]) / 4))
