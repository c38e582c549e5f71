"""CLI tests for ``repro sanitize`` and ``repro lint``."""

import json
import re

import pytest

from repro.analysis import write_jsonl
from repro.cli import main
from repro.scenario import Scenario
from repro.simulate.trace import Tracer


@pytest.fixture(scope="module")
def clean_jsonl(tmp_path_factory):
    """A completed small migration exported to JSONL."""
    tracer = Tracer()
    sc = Scenario.build(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                        iterations=10, seed=0, trace=tracer)
    sc.run_migration("node1", at=5.0)
    sc.run_to_completion()
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    write_jsonl(tracer, str(path))
    return str(path)


@pytest.fixture
def violating_jsonl(tmp_path):
    """A hand-forged trace breaking the QP lifecycle law."""
    tracer = Tracer()
    tracer.record(0.0, "qp.connect", qp=1, peer=2, node="a", peer_node="b")
    tracer.record(0.1, "qp.destroy", qp=1, node="a")
    tracer.record(0.2, "qp.complete", cq="cq.a", opcode="SEND", ok=True,
                  nbytes=64, qp=1)
    tracer.record(0.3, "qp.destroy", qp=2, node="b")
    path = tmp_path / "bad.jsonl"
    write_jsonl(tracer, str(path))
    return str(path)


def test_sanitize_clean_jsonl_exits_0(capsys, clean_jsonl):
    assert main(["sanitize", "--from-jsonl", clean_jsonl]) == 0
    assert "PASS" in capsys.readouterr().out


def test_sanitize_recorded_run_is_clean(capsys, tmp_path, monkeypatch):
    """``--from-jsonl`` takes a run id, resolved under the runs dir."""
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
    assert main(["run", "--app", "LU.C", "--nprocs", "8", "--nodes", "2",
                 "--source", "node1", "--restart-mode", "memory"]) == 0
    (run_id,) = [p.name for p in tmp_path.iterdir()]
    capsys.readouterr()
    assert main(["sanitize", "--from-jsonl", run_id]) == 0
    out = capsys.readouterr().out
    assert f"{tmp_path / run_id / 'trace.jsonl.gz'}" in out
    assert "PASS" in out


def test_sanitize_violating_jsonl_exits_1_naming_rule(capsys,
                                                      violating_jsonl):
    assert main(["sanitize", "--from-jsonl", violating_jsonl]) == 1
    out = capsys.readouterr().out
    assert "QPLifecycleRule" in out
    assert "FAIL" in out


def test_sanitize_json_format(capsys, violating_jsonl):
    assert main(["sanitize", "--from-jsonl", violating_jsonl,
                 "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["clean"] is False
    assert any(v["rule"] == "QPLifecycleRule" for v in doc["violations"])


def test_lint_default_paths_clean(capsys):
    assert main(["lint"]) == 0
    assert "lint clean" in capsys.readouterr().out


def test_lint_json_format(capsys):
    assert main(["lint", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["clean"] is True
    assert doc["findings"] == []


def test_lint_flags_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\n"
                   "def go(trace, t):\n"
                   "    trace.record(t, 'no.such.kind')\n")
    rc = main(["lint", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "unknown-kind" in out
    assert "unused-import" in out


@pytest.mark.parametrize("missing", ["no/such/dir", "nope.py"])
def test_lint_missing_path_exits_2(capsys, tmp_path, missing):
    """A mistyped path is an input error, not a clean (or crashing) run."""
    path = tmp_path / missing
    assert main(["lint", str(path)]) == 2
    assert capsys.readouterr().out.strip() == (
        f"error: no such file or directory: {path}")


def test_lint_reports_per_file_and_span_findings_together(capsys, tmp_path):
    """One run, one exit code: an LNT and a SIM bug in one file are both
    reported in text, JSON and the --sarif-out document."""
    bad = tmp_path / "bad.py"
    bad.write_text("import os\n"
                   "def work(tracer, name):\n"
                   "    tracer.span(name)\n")
    sarif = tmp_path / "lint.sarif"
    assert main(["lint", str(bad), "--sarif-out", str(sarif)]) == 1
    out = capsys.readouterr().out
    assert "LNT004 [unused-import]" in out
    assert "SIM301 [span-unbalanced]" in out
    assert out.rstrip().endswith("2 finding(s): 1 file(s)")

    assert main(["lint", str(bad), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["clean"] is False
    assert doc["files"] == 1
    assert [f["rule"] for f in doc["findings"]] == ["LNT004", "SIM301"]

    results = json.loads(sarif.read_text())["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["LNT004", "SIM301"]


def test_lint_help_lists_exactly_three_options(capsys):
    with pytest.raises(SystemExit):
        main(["lint", "--help"])
    out = capsys.readouterr().out
    assert "[--format {text,json}] [--sarif-out PATH] [PATH ...]" in out
    assert set(re.findall(r"--[a-z][a-z-]+", out)) == {
        "--help", "--format", "--sarif-out"}


def test_sanitize_help_lists_exactly_five_options(capsys):
    with pytest.raises(SystemExit):
        main(["sanitize", "--help"])
    out = capsys.readouterr().out
    assert set(re.findall(r"--[a-z][a-z-]+", out)) == {
        "--help", "--scenario", "--from-jsonl", "--seed", "--format",
        "--max-report"}
