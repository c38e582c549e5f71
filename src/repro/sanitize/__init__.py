"""SimSan: protocol sanitizer + static analyzer for the migration stack.

Two halves:

* the **dynamic trace checker** (:mod:`~repro.sanitize.invariants`,
  :mod:`~repro.sanitize.checker`) — per-entity state machines enforcing
  the paper's protocol laws over a finished trace, from a scenario run
  or a recorded run's JSONL.  Each law
  stays only while a model bug seeded into production code breaks it
  and no other test notices; ``tests/sanitize/test_seeded_bugs.py``
  holds those seeds;
* the **static analyzer** (:mod:`~repro.sanitize.lint`) — one parse per
  file, then every registered rule (:mod:`~repro.sanitize.rules`): emit
  sites against ``TRACE_SCHEMA``, wall-clock and unseeded-RNG bans,
  unused imports, reserved span fields, and span balance
  (:mod:`~repro.sanitize.spans`), with
  SARIF output (:mod:`~repro.sanitize.sarif`).

CLI entry points: ``repro sanitize`` and ``repro lint``; see
``docs/sanitizer.md`` and ``docs/static-analysis.md``.
"""

from .checker import TraceChecker, live_checks
from .invariants import Rule, Violation, default_rules
from .lint import Finding, LintResult, lint_paths, lint_source
from .rules import RULES, apply_suppressions, iter_python_files
from .runner import SanitizeResult, check_jsonl, sanitize_scenario
from .sarif import sarif_json, to_sarif

__all__ = [
    "TraceChecker", "live_checks",
    "Rule", "Violation", "default_rules",
    "Finding", "LintResult", "lint_paths", "lint_source",
    "RULES", "apply_suppressions", "iter_python_files",
    "SanitizeResult", "check_jsonl", "sanitize_scenario",
    "sarif_json", "to_sarif",
]
