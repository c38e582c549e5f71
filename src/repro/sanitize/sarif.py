"""SARIF 2.1.0 serialization of static-analysis findings.

``repro lint --sarif-out PATH`` writes this document: the minimal
schema-valid form CI code-scanning uploads need — one run, the rule
catalog under ``tool.driver.rules``, one result per finding with a
physical location.

SARIF requires 1-based lines/columns; findings at line 0 (whole-file
problems like ``emitter-drift``) are clamped to 1:1.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from .rules import RULES, Finding, RuleSpec, normalize_path

__all__ = ["to_sarif", "sarif_json"]

_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
           "master/Schemata/sarif-schema-2.1.0.json")
_INFO_URI = "https://example.invalid/repro/docs/static-analysis.md"

#: SARIF result levels per rule severity.
_LEVELS = {"error": "error", "warning": "warning"}


def _rule_descriptor(spec: RuleSpec) -> dict:
    return {
        "id": spec.id,
        "name": spec.code,
        "shortDescription": {"text": spec.summary},
        "defaultConfiguration": {"level": _LEVELS[spec.severity]},
    }


def to_sarif(findings: Sequence[Finding]) -> dict:
    """Build a SARIF 2.1.0 document for ``findings``.

    The full rule catalog is always published, so an empty clean run
    still carries its rule metadata.
    """
    rule_index = {rule_id: i for i, rule_id in enumerate(RULES)}
    results: List[dict] = []
    for finding in findings:
        rule_id = finding.rule_id
        result = {
            "ruleId": rule_id,
            "level": _LEVELS.get(finding.severity, "error"),
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": normalize_path(finding.path),
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": max(finding.col + 1, 1),
                    },
                },
            }],
        }
        if rule_id in rule_index:
            result["ruleIndex"] = rule_index[rule_id]
        results.append(result)
    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-lint",
                "informationUri": _INFO_URI,
                "rules": [_rule_descriptor(spec)
                          for spec in RULES.values()],
            }},
            "results": results,
        }],
    }


def sarif_json(findings: Sequence[Finding]) -> str:
    """:func:`to_sarif` rendered as an indented JSON string."""
    return json.dumps(to_sarif(findings), indent=2)
