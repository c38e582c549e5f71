"""The shared static-analysis rule framework: registry, suppressions,
file collection and SARIF serialization."""

import json
import os

from repro.sanitize.rules import (
    RULES,
    Finding,
    apply_suppressions,
    iter_python_files,
    parse_suppressions,
    rule_by_code,
)
from repro.sanitize.sarif import sarif_json, to_sarif


# -- registry ----------------------------------------------------------------

def test_rule_ids_are_stable_and_unique():
    ids = list(RULES)
    assert len(ids) == len(set(ids))
    codes = [spec.code for spec in RULES.values()]
    assert len(codes) == len(set(codes))
    # The published catalog: renumbering any of these breaks
    # suppressions and SARIF consumers.
    assert sorted(RULES) == [
        "LNT001", "LNT002", "LNT003", "LNT004", "LNT006", "LNT007",
        "LNT008", "MET001", "MET002", "SIM301"]


def test_every_rule_has_severity_and_summary():
    for spec in RULES.values():
        assert spec.severity in ("error", "warning")
        assert spec.summary


def test_finding_resolves_rule_metadata():
    f = Finding("x.py", 3, 0, "span-unbalanced", "boom")
    assert f.rule_id == "SIM301"
    assert f.severity == "error"
    assert "SIM301" in f.render()
    assert rule_by_code("span-unbalanced").id == "SIM301"


# -- suppressions ------------------------------------------------------------

def test_parse_suppressions_reads_comment_tokens():
    src = "x = 1  # repro: noqa[SIM301]\ny = 2\n"
    assert parse_suppressions(src) == {1: ["SIM301"]}


def test_parse_suppressions_ignores_docstrings():
    src = '"""Use # repro: noqa[SIM301] to silence a finding."""\nx = 1\n'
    assert parse_suppressions(src) == {}


def test_parse_suppressions_multiple_ids():
    src = "x = 1  # repro: noqa[SIM301, wall-clock]\n"
    assert parse_suppressions(src) == {1: ["SIM301", "wall-clock"]}


def test_suppression_silences_matching_finding():
    src = "x = 1  # repro: noqa[SIM301]\n"
    findings = [Finding("f.py", 1, 0, "span-unbalanced", "boom")]
    kept, suppressed = apply_suppressions(findings, "f.py", src)
    assert kept == []
    assert len(suppressed) == 1


def test_suppression_by_slug_also_matches():
    src = "x = 1  # repro: noqa[span-unbalanced]\n"
    findings = [Finding("f.py", 1, 0, "span-unbalanced", "boom")]
    kept, _ = apply_suppressions(findings, "f.py", src)
    assert kept == []


def test_unknown_suppression_is_a_finding():
    src = "x = 1  # repro: noqa[NOPE999]\n"
    kept, _ = apply_suppressions([], "f.py", src)
    assert [f.code for f in kept] == ["unknown-suppression"]


def test_unused_suppression_is_a_finding():
    src = "x = 1  # repro: noqa[SIM301]\n"
    kept, _ = apply_suppressions([], "f.py", src)
    assert [f.code for f in kept] == ["unused-suppression"]


def test_empty_suppression_brackets_flagged():
    src = "x = 1  # repro: noqa[]\n"
    kept, _ = apply_suppressions([], "f.py", src)
    assert [f.code for f in kept] == ["unused-suppression"]


def test_suppression_on_other_line_does_not_match():
    src = "x = 1  # repro: noqa[SIM301]\ny = 2\n"
    findings = [Finding("f.py", 2, 0, "span-unbalanced", "boom")]
    kept, _ = apply_suppressions(findings, "f.py", src)
    codes = sorted(f.code for f in kept)
    assert codes == ["span-unbalanced", "unused-suppression"]


# -- file collection ---------------------------------------------------------

def test_iter_python_files_sorted_and_deduplicated(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__pycache__").mkdir()
    for name in ("b.py", "a.py"):
        (tmp_path / "pkg" / name).write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__" / "a.cpython-312.pyc").write_text("")
    (tmp_path / "pkg" / "notes.txt").write_text("")
    direct = str(tmp_path / "pkg" / "a.py")
    # The same file named directly, via its directory, and with a ./
    # prefix must appear exactly once, and output must be sorted.
    files = iter_python_files([str(tmp_path / "pkg"), direct,
                               os.path.join(".", direct)])
    assert files == sorted(files)
    assert len(files) == 2
    assert [os.path.basename(f) for f in files] == ["a.py", "b.py"]


def test_iter_python_files_is_stable_across_argument_order(tmp_path):
    for name in ("m1.py", "m2.py"):
        (tmp_path / name).write_text("x = 1\n")
    a = iter_python_files([str(tmp_path / "m2.py"), str(tmp_path / "m1.py")])
    b = iter_python_files([str(tmp_path / "m1.py"), str(tmp_path / "m2.py")])
    assert a == b


# -- SARIF -------------------------------------------------------------------

def test_sarif_document_shape():
    findings = [Finding("src/repro/x.py", 7, 2, "span-unbalanced",
                        "span leak")]
    doc = to_sarif(findings)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "SIM301" in rule_ids
    result = run["results"][0]
    assert result["ruleId"] == "SIM301"
    assert result["level"] == "error"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/repro/x.py"
    assert loc["region"]["startLine"] == 7
    assert loc["region"]["startColumn"] == 3  # 1-based


def test_sarif_clamps_whole_file_findings_to_line_one():
    findings = [Finding("x.py", 0, 0, "emitter-drift", "no emitter")]
    doc = to_sarif(findings)
    region = doc["runs"][0]["results"][0]["locations"][0][
        "physicalLocation"]["region"]
    assert region["startLine"] == 1


def test_sarif_empty_run_still_publishes_rule_catalog():
    doc = json.loads(sarif_json([]))
    rules = doc["runs"][0]["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == list(RULES)
    assert doc["runs"][0]["results"] == []
