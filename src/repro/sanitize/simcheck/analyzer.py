"""SimCheck driver: files -> call graph -> passes -> suppressions ->
baseline diff.

:func:`simcheck_paths` is the programmatic entry the CLI and CI wrap;
:func:`simcheck_source` analyzes a single in-memory module (fixture
tests use it to prove each pass catches its bug class).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..rules import (
    BaselineEntry,
    Finding,
    apply_baseline,
    apply_suppressions,
    iter_python_files,
    load_baseline,
    rule_by_code,
)
from .callgraph import CallGraph, ModuleInfo, module_name_for, parse_modules
from .determinism import check_determinism
from .races import check_races
from .spans import check_spans

__all__ = ["SimcheckResult", "simcheck_paths", "simcheck_source"]


@dataclass
class SimcheckResult:
    """Outcome of one analyzer run."""

    #: Actionable findings: not suppressed, not in the baseline.
    findings: List[Finding] = field(default_factory=list)
    #: Grandfathered findings consumed by a baseline entry.
    matched_baseline: List[Finding] = field(default_factory=list)
    #: Baseline entries no current finding matches (must be removed).
    expired: List[BaselineEntry] = field(default_factory=list)
    #: Findings silenced by inline noqa suppressions.
    suppressed: List[Finding] = field(default_factory=list)
    #: Call-graph shape counters (modules/functions/generators/...).
    stats: Dict[str, int] = field(default_factory=dict)
    files: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the run should exit 0."""
        return not self.findings and not self.expired


def _run_passes(graph: CallGraph) -> List[Finding]:
    findings: List[Finding] = []
    findings.extend(check_races(graph))
    findings.extend(check_determinism(graph))
    findings.extend(check_spans(graph))
    findings.sort(key=Finding.sort_key)
    return findings


def _filter_disabled(findings: Sequence[Finding],
                     disabled: Iterable[str]) -> List[Finding]:
    off = set(disabled)
    if not off:
        return list(findings)
    kept = []
    for f in findings:
        spec = rule_by_code(f.code)
        rid = spec.id if spec is not None else f.code
        if rid in off or f.code in off:
            continue
        kept.append(f)
    return kept


def _analyze_modules(modules: Dict[str, ModuleInfo],
                     disabled: Iterable[str] = (),
                     ) -> "tuple[List[Finding], List[Finding], CallGraph]":
    graph = CallGraph(modules)
    raw = _filter_disabled(_run_passes(graph), disabled)
    by_path: Dict[str, List[Finding]] = {}
    for f in raw:
        by_path.setdefault(f.path, []).append(f)
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    # Every module goes through suppression bookkeeping, findings or
    # not — a noqa comment in a clean file is an *unused* suppression.
    for mod in sorted(modules.values(), key=lambda m: m.path):
        file_kept, file_supp = apply_suppressions(
            by_path.get(mod.path, []), mod.path, mod.source,
            tool="simcheck", disabled=disabled)
        kept.extend(file_kept)
        suppressed.extend(file_supp)
    kept.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return kept, suppressed, graph


def simcheck_paths(paths: Sequence[str],
                   baseline_path: Optional[str] = None,
                   disabled: Iterable[str] = (),
                   ) -> SimcheckResult:
    """Analyze files/directories; diff against a baseline if given."""
    files = iter_python_files(paths)
    modules = parse_modules(files)
    kept, suppressed, graph = _analyze_modules(modules, disabled)
    result = SimcheckResult(suppressed=suppressed, stats=graph.stats(),
                            files=files)
    if baseline_path is not None:
        baseline = load_baseline(baseline_path)
        result.findings, result.matched_baseline, result.expired = \
            apply_baseline(kept, baseline)
    else:
        result.findings = kept
    return result


def simcheck_source(source: str, path: str = "fixture.py",
                    disabled: Iterable[str] = (),
                    ) -> List[Finding]:
    """Analyze one in-memory module; returns actionable findings."""
    import ast

    from .callgraph import _ModuleVisitor  # module-private by design

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return []
    info = ModuleInfo(path=path, name=module_name_for(path), tree=tree,
                      source=source)
    _ModuleVisitor(info).visit(tree)
    kept, _suppressed, _graph = _analyze_modules({info.name: info},
                                                 disabled)
    return kept
