"""The rule framework behind ``repro lint``.

* a **rule registry** — every check registers a :class:`RuleSpec` with a
  stable id (``LNT003``, ``SIM301``), a human slug (``wall-clock``), a
  severity and a one-line rationale.  Stable ids are the contract:
  suppressions, SARIF output and the docs catalog all key on them, so
  ids are never renumbered or reused;
* :class:`Finding` — one problem at a file/line, carrying its rule;
* **inline suppressions** — ``# repro: noqa[RULE-ID]`` on the offending
  line silences that rule there.  Unknown ids are themselves findings
  (``MET001``) and suppressions that silence nothing are flagged
  (``MET002``) so stale noqa comments cannot accumulate.  Every rule
  runs in every ``repro lint`` run, so a noqa is judged against all of
  them.
"""

from __future__ import annotations

import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "RuleSpec", "Finding", "RULES", "register_rule", "rule_by_code",
    "parse_suppressions", "apply_suppressions", "iter_python_files",
    "normalize_path",
]


@dataclass(frozen=True)
class RuleSpec:
    """One registered static-analysis rule.

    ``id`` is the stable identifier (never renumbered); ``code`` the
    human-readable slug used in rendered findings.
    """

    id: str
    code: str
    severity: str  # "error" | "warning"
    summary: str


#: The global registry, keyed by stable rule id.
RULES: Dict[str, RuleSpec] = {}
_BY_CODE: Dict[str, RuleSpec] = {}


def register_rule(id: str, code: str, severity: str,
                  summary: str) -> RuleSpec:
    if id in RULES:
        raise ValueError(f"duplicate rule id {id!r}")
    if code in _BY_CODE:
        raise ValueError(f"duplicate rule code {code!r}")
    if severity not in ("error", "warning"):
        raise ValueError(f"rule {id}: bad severity {severity!r}")
    spec = RuleSpec(id, code, severity, summary)
    RULES[id] = spec
    _BY_CODE[code] = spec
    return spec


def rule_by_code(code: str) -> Optional[RuleSpec]:
    return _BY_CODE.get(code)


# -- the rule catalog --------------------------------------------------------
# Per-file checks (emit sites, wall clock, imports, syntax).
# LNT005 (direct-construction) is retired; its id is not reused.
register_rule("LNT001", "unknown-kind", "error",
              "record()/span() of a kind not declared in TRACE_SCHEMA")
register_rule("LNT002", "missing-field", "error",
              "emit site lacks a field the kind's schema requires")
register_rule("LNT003", "wall-clock", "error",
              "simulation code calls a wall-clock or unseeded-RNG API, "
              "or keeps a process-global id counter")
register_rule("LNT004", "unused-import", "warning",
              "imported name never referenced in the module")
register_rule("LNT006", "emitter-drift", "error",
              "schema kind with no emitter, or emit of an undeclared kind")
register_rule("LNT007", "syntax-error", "error",
              "file does not parse; nothing else can be checked")
register_rule("LNT008", "reserved-field", "error",
              "span()/annotate() passes a field the span writes itself")
# Span balance (every path that starts a span ends it).
register_rule("SIM301", "span-unbalanced", "error",
              "a started span is not closed on every code path")
# Meta (the framework's own suppression hygiene).
register_rule("MET001", "unknown-suppression", "error",
              "noqa names a rule id that is not registered")
register_rule("MET002", "unused-suppression", "warning",
              "noqa suppresses nothing on its line")


@dataclass(frozen=True)
class Finding:
    """One static-analysis problem, pointing at a file/line."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def rule(self) -> Optional[RuleSpec]:
        return _BY_CODE.get(self.code)

    @property
    def rule_id(self) -> str:
        spec = self.rule
        return spec.id if spec is not None else self.code

    @property
    def severity(self) -> str:
        spec = self.rule
        return spec.severity if spec is not None else "error"

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} [{self.code}] {self.message}")

    def as_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule_id, "code": self.code,
                "severity": self.severity, "message": self.message}

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)


# -- inline suppressions -----------------------------------------------------

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([^\]]*)\]")


def parse_suppressions(source: str) -> Dict[int, List[str]]:
    """``{line: [id, ...]}`` for every ``# repro: noqa[...]`` comment.

    Ids may be stable rule ids (``SIM301``) or code slugs
    (``span-unbalanced``); empty brackets parse to no ids (and will
    be reported as an unused suppression).
    """
    out: Dict[int, List[str]] = {}
    if "repro:" not in source:  # fast path: almost every file
        return out
    try:
        # Real COMMENT tokens only — a docstring *describing* the noqa
        # syntax must not register as a suppression.
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if m is None:
                continue
            out[tok.start[0]] = [part.strip()
                                 for part in m.group(1).split(",")
                                 if part.strip()]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return {}
    return out


def _suppression_matches(token: str, finding: Finding) -> bool:
    return token == finding.rule_id or token == finding.code


def apply_suppressions(findings: Sequence[Finding], path: str,
                       source: str) -> Tuple[List[Finding], List[Finding]]:
    """Filter ``findings`` for one file through its noqa comments.

    Returns ``(kept, suppressed)``.  ``kept`` additionally grows MET001
    findings for unregistered ids and MET002 findings for suppressions
    that silenced nothing.
    """
    suppressions = parse_suppressions(source)
    if not suppressions:
        return list(findings), []
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    used: Set[Tuple[int, str]] = set()
    for finding in findings:
        tokens = suppressions.get(finding.line, [])
        hit = next((t for t in tokens
                    if _suppression_matches(t, finding)), None)
        if hit is not None:
            suppressed.append(finding)
            used.add((finding.line, hit))
        else:
            kept.append(finding)
    for lineno, tokens in sorted(suppressions.items()):
        if not tokens:
            kept.append(Finding(path, lineno, 0, "unused-suppression",
                                "noqa with no rule ids suppresses nothing"))
            continue
        for token in tokens:
            spec = RULES.get(token) or _BY_CODE.get(token)
            if spec is None:
                kept.append(Finding(
                    path, lineno, 0, "unknown-suppression",
                    f"noqa names unknown rule {token!r}"))
            elif (lineno, token) not in used:
                kept.append(Finding(
                    path, lineno, 0, "unused-suppression",
                    f"noqa[{token}] suppresses nothing on this line"))
    kept.sort(key=Finding.sort_key)
    return kept, suppressed


# -- paths -------------------------------------------------------------------

def normalize_path(path: str) -> str:
    """Forward-slashed, ``./``-free relative spelling (SARIF URIs)."""
    norm = os.path.normpath(path).replace(os.sep, "/")
    return norm[2:] if norm.startswith("./") else norm


# -- file collection ---------------------------------------------------------

def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories to a deterministic list of ``.py`` files.

    The result is normalized (``os.path.normpath``), deduplicated and
    sorted, so the same tree yields the same list regardless of
    filesystem walk order, trailing slashes, ``./`` prefixes, or a file
    being named both directly and via its directory — analyzer output
    must itself be deterministic.
    """
    out: Set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                out.update(os.path.normpath(os.path.join(root, f))
                           for f in files if f.endswith(".py"))
        elif path.endswith(".py"):
            out.add(os.path.normpath(path))
    return sorted(out)
