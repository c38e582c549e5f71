"""Shared static-analysis rule framework for ``repro lint`` and
``repro simcheck``.

Both analyzers used to grow their own finding shapes and ad-hoc exit
logic; this module is the common substrate:

* a **rule registry** — every check registers a :class:`RuleSpec` with a
  stable id (``LNT003``, ``SIM201``), a human slug (``wall-clock``), a
  severity and a one-line rationale.  Stable ids are the contract:
  suppressions, baselines, SARIF output and the docs catalog all key on
  them, so ids are never renumbered or reused;
* :class:`Finding` — one problem at a file/line, carrying its rule;
* **inline suppressions** — ``# repro: noqa[RULE-ID]`` on the offending
  line silences that rule there.  Unknown ids are themselves findings
  (``MET001``) and suppressions that silence nothing are flagged
  (``MET002``) so stale noqa comments cannot accumulate;
* a **findings baseline** — a committed JSON file of fingerprinted,
  justified findings (``benchmarks/simcheck_baseline.json``).
  Grandfathered findings match and pass; new findings fail; baseline
  entries whose finding disappeared are *expired* and fail too, so the
  debt ledger only ever shrinks.

Fingerprints are ``sha1(rule|path|message)`` — deliberately line-free,
so unrelated edits shifting code do not churn the baseline.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "RuleSpec", "Finding", "RULES", "register_rule", "rule_by_code",
    "active_rule_ids", "parse_suppressions", "apply_suppressions",
    "Baseline", "BaselineEntry", "load_baseline", "apply_baseline",
    "write_baseline", "finding_fingerprint", "iter_python_files",
    "normalize_path",
]


@dataclass(frozen=True)
class RuleSpec:
    """One registered static-analysis rule.

    ``id`` is the stable identifier (never renumbered); ``code`` the
    human-readable slug used in rendered findings; ``tool`` names which
    analyzer evaluates the rule (``lint``/``simcheck``/``meta``) so
    suppression bookkeeping for one tool ignores the other's ids.
    """

    id: str
    code: str
    severity: str  # "error" | "warning"
    tool: str      # "lint" | "simcheck" | "meta"
    summary: str


#: The global registry, keyed by stable rule id.
RULES: Dict[str, RuleSpec] = {}
_BY_CODE: Dict[str, RuleSpec] = {}


def register_rule(id: str, code: str, severity: str, tool: str,
                  summary: str) -> RuleSpec:
    if id in RULES:
        raise ValueError(f"duplicate rule id {id!r}")
    if code in _BY_CODE:
        raise ValueError(f"duplicate rule code {code!r}")
    if severity not in ("error", "warning"):
        raise ValueError(f"rule {id}: bad severity {severity!r}")
    spec = RuleSpec(id, code, severity, tool, summary)
    RULES[id] = spec
    _BY_CODE[code] = spec
    return spec


def rule_by_code(code: str) -> Optional[RuleSpec]:
    return _BY_CODE.get(code)


def active_rule_ids(tool: str,
                    disabled: Iterable[str] = ()) -> Set[str]:
    """Ids evaluated by a run of ``tool`` (meta rules always ride along)."""
    off = set(disabled)
    return {r.id for r in RULES.values()
            if r.tool in (tool, "meta") and r.id not in off
            and r.code not in off}


# -- the rule catalog --------------------------------------------------------
# Lint (AST emit-site / hygiene pass — repro lint).
register_rule("LNT001", "unknown-kind", "error", "lint",
              "record()/span() of a kind not declared in TRACE_SCHEMA")
register_rule("LNT002", "missing-field", "error", "lint",
              "emit site lacks a field the kind's schema requires")
register_rule("LNT003", "wall-clock", "error", "lint",
              "simulation code calls a wall-clock or unseeded-RNG API")
register_rule("LNT004", "unused-import", "warning", "lint",
              "imported name never referenced in the module")
register_rule("LNT005", "direct-construction", "error", "lint",
              "data-path class built outside the pipeline registry")
register_rule("LNT006", "emitter-drift", "error", "lint",
              "schema kind with no emitter, or emit of an undeclared kind")
register_rule("LNT007", "syntax-error", "error", "lint",
              "file does not parse; nothing else can be checked")
# SimCheck (interprocedural determinism / race analyzer — repro simcheck).
register_rule("SIM101", "yield-stale-write", "error", "simcheck",
              "shared state read before a yield and written back after it "
              "from the stale value (lost update across the yield point)")
register_rule("SIM102", "iter-mutation-hazard", "warning", "simcheck",
              "a process iterates a shared container across a yield while "
              "another code path mutates it")
register_rule("SIM201", "set-order-dependence", "error", "simcheck",
              "set-iteration order flows into event scheduling, trace "
              "emission, or flow completion ordering")
register_rule("SIM202", "id-order-dependence", "error", "simcheck",
              "id()-derived value used for ordering or emitted — object "
              "addresses vary run to run")
register_rule("SIM203", "unseeded-rng-flow", "error", "simcheck",
              "unseeded-RNG draw flows into scheduling or trace emission")
register_rule("SIM301", "span-unbalanced", "error", "simcheck",
              "a started span is not closed on every code path")
# Meta (the framework's own hygiene; evaluated by every tool).
register_rule("MET001", "unknown-suppression", "error", "meta",
              "noqa names a rule id that is not registered")
register_rule("MET002", "unused-suppression", "warning", "meta",
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

    Ids may be stable rule ids (``SIM201``) or code slugs
    (``set-order-dependence``); empty brackets parse to no ids (and will
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
                       source: str, tool: str,
                       disabled: Iterable[str] = (),
                       ) -> Tuple[List[Finding], List[Finding]]:
    """Filter ``findings`` for one file through its noqa comments.

    Returns ``(kept, suppressed)``.  ``kept`` additionally grows MET001
    findings for unregistered ids and MET002 findings for suppressions
    that silenced nothing — restricted to ids the running ``tool``
    evaluates, so a simcheck noqa does not read as unused to lint.
    """
    suppressions = parse_suppressions(source)
    if not suppressions:
        return list(findings), []
    active = active_rule_ids(tool, disabled)
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
            elif (lineno, token) not in used and spec.id in active:
                kept.append(Finding(
                    path, lineno, 0, "unused-suppression",
                    f"noqa[{token}] suppresses nothing on this line"))
    kept.sort(key=Finding.sort_key)
    return kept, suppressed


# -- findings baseline -------------------------------------------------------

def normalize_path(path: str) -> str:
    """Forward-slashed, ``./``-free relative spelling for fingerprints."""
    norm = os.path.normpath(path).replace(os.sep, "/")
    return norm[2:] if norm.startswith("./") else norm


def finding_fingerprint(finding: Finding) -> str:
    """Line-free stable identity: ``sha1(rule|path|message)[:16]``."""
    raw = f"{finding.rule_id}|{normalize_path(finding.path)}|{finding.message}"
    return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class BaselineEntry:
    rule: str
    path: str
    fingerprint: str
    justification: str = ""

    def as_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path,
                "fingerprint": self.fingerprint,
                "justification": self.justification}


@dataclass
class Baseline:
    """A committed ledger of grandfathered findings."""

    entries: List[BaselineEntry] = field(default_factory=list)
    path: Optional[str] = None

    def __len__(self) -> int:
        return len(self.entries)


def load_baseline(path: str) -> Baseline:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError(f"{path}: not a findings baseline "
                         "(expected an object with an 'entries' list)")
    entries = [BaselineEntry(rule=e["rule"], path=e["path"],
                             fingerprint=e["fingerprint"],
                             justification=e.get("justification", ""))
               for e in doc["entries"]]
    return Baseline(entries=entries, path=path)


def apply_baseline(findings: Sequence[Finding], baseline: Baseline,
                   ) -> Tuple[List[Finding], List[Finding],
                              List[BaselineEntry]]:
    """Split findings against the baseline.

    Returns ``(new, matched, expired)``:

    * **new** — findings with no baseline entry: these fail the run;
    * **matched** — grandfathered findings consumed by an entry;
    * **expired** — entries no current finding matches: the debt was
      paid (or the code deleted), so the entry must be removed.  Expired
      entries fail the run too — a baseline only ever shrinks.

    Matching is multiset-aware: two identical findings need two entries.
    """
    pool: Dict[Tuple[str, str], List[BaselineEntry]] = {}
    for entry in baseline.entries:
        pool.setdefault((entry.rule, entry.fingerprint), []).append(entry)
    new: List[Finding] = []
    matched: List[Finding] = []
    for finding in findings:
        key = (finding.rule_id, finding_fingerprint(finding))
        bucket = pool.get(key)
        if bucket:
            bucket.pop()
            matched.append(finding)
        else:
            new.append(finding)
    expired = [entry for bucket in pool.values() for entry in bucket]
    expired.sort(key=lambda e: (e.path, e.rule, e.fingerprint))
    return new, matched, expired


def write_baseline(findings: Sequence[Finding], path: str,
                   justification: str = "grandfathered") -> int:
    """Rewrite the baseline from the current findings; returns the count."""
    entries = [BaselineEntry(rule=f.rule_id,
                             path=normalize_path(f.path),
                             fingerprint=finding_fingerprint(f),
                             justification=justification)
               for f in sorted(findings, key=Finding.sort_key)]
    doc = {"version": 1,
           "comment": "Grandfathered static-analysis findings; see "
                      "docs/static-analysis.md.  Entries whose finding "
                      "disappears must be deleted (expiry fails CI).",
           "entries": [e.as_dict() for e in entries]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return len(entries)


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
