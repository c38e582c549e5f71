"""``repro lint``: every static-analysis rule over one parse per file.

:func:`lint_paths` parses each file once (:func:`parse_modules`) and
runs every registered rule over those trees.  The per-file rules are
pure ``ast`` visitors (no third-party dependencies):

* ``unknown-kind`` — a literal ``record(t, "kind", ...)`` or
  ``span("name", ...)`` whose kind/base is not declared in
  ``TRACE_SCHEMA``/``SPAN_KINDS``;
* ``missing-field`` — an emit site with literal keyword fields that do
  not cover the kind's ``KindSpec.required`` tuple (sites that splat
  ``**fields`` are skipped — they are checked dynamically instead);
* ``wall-clock`` — simulation code calling a wall-clock or unseeded
  randomness API (``time.time``/``perf_counter``/``monotonic``,
  ``datetime.now``-family, any function of the global ``random`` module
  or of numpy's global ``np.random`` state, however imported, or an RNG
  constructor — ``default_rng``, ``Random``, ``RandomState``, … — with
  no seed or a ``None`` seed, or an ``itertools.count()`` at module or
  class scope) — simulated time comes from ``sim.now``, randomness from
  a seeded generator and ids from their owner, or runs stop being
  reproducible (the host-side ``obs`` package — run manifests and the
  ``--progress`` heartbeat — is exempt: its job *is* wall time);
* ``unused-import`` — an imported name never referenced in the module
  (``__init__.py`` re-export surfaces are exempt);
* ``reserved-field`` — a literal ``span``, ``parent``, ``duration`` or
  ``error`` keyword at a ``span(...)`` or ``annotate(...)`` call: the
  real ``Tracer`` rejects it at run time, the untraced ``NullTracer``
  accepts it silently.

The span-balance check (:mod:`repro.sanitize.spans`, SIM301) walks the
functions each parse lists.  When the linted modules include
``repro.simulate.schema``, the emit sites collected across them are
folded into :func:`repro.simulate.schema.validate_emitters`, so a kind
declared in the schema that no code emits — or emitted but never
declared — is a finding (``emitter-drift``), keeping the registry
honest in both directions.  A file that does not parse gives one
``syntax-error`` finding and nothing else.

Event-order determinism and yield-point races are not checked here:
the Fig. 4 trace artifact, the Fig. 7 digest and the run-to-run tests
catch those bugs when they change a result (see
``docs/static-analysis.md``).

The rules live in the shared framework (:mod:`repro.sanitize.rules`):
each has a stable id (``LNT001``–``LNT008`` without the retired
``LNT005``, ``SIM301``, ``MET###``), a severity, and inline
``# repro: noqa[RULE-ID]`` suppression support, applied once per file
to the combined findings.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..simulate.schema import SPAN_KINDS, TRACE_SCHEMA, validate_emitters
from .rules import Finding, apply_suppressions, iter_python_files
from .spans import check_spans

__all__ = ["Finding", "LintResult", "lint_source", "lint_paths"]


# -- the one parse -----------------------------------------------------------

def module_name_for(path: str) -> str:
    """Dotted module name from a file path (``repro``-rooted if possible)."""
    norm = os.path.normpath(path).replace(os.sep, "/")
    parts = norm.split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    dirs = parts[:-1]
    if "repro" in dirs:
        idx = len(dirs) - 1 - dirs[::-1].index("repro")
        pkg = dirs[idx:]
    else:
        pkg = []
    if stem == "__init__":
        return ".".join(pkg) if pkg else stem
    return ".".join(pkg + [stem]) if pkg else stem


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One module-level function or method (nested defs belong to it)."""

    qualname: str                #: "mod.Class.name" / "mod.name"
    node: ast.AST


@dataclass
class ModuleInfo:
    """One parsed module and the functions the span check walks."""

    path: str
    name: str
    tree: ast.Module
    source: str
    functions: List[FunctionInfo] = field(default_factory=list)


def _collect_functions(info: ModuleInfo, node: ast.AST,
                       class_name: Optional[str] = None) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{info.name}.{class_name}" if class_name else info.name
            info.functions.append(FunctionInfo(f"{owner}.{child.name}",
                                               child))
        elif isinstance(child, ast.ClassDef):
            _collect_functions(info, child, child.name)
        else:
            _collect_functions(info, child, class_name)


def parse_modules(sources: Iterable[Tuple[str, str]],
                  ) -> Tuple[List[ModuleInfo], List[Finding]]:
    """Parse each ``(path, source)`` once into a :class:`ModuleInfo`.

    A source that does not parse gives one ``syntax-error`` finding
    instead of a module.
    """
    modules: List[ModuleInfo] = []
    broken: List[Finding] = []
    for path, source in sources:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            broken.append(Finding(path, exc.lineno or 0, exc.offset or 0,
                                  "syntax-error", str(exc.msg)))
            continue
        info = ModuleInfo(path, module_name_for(path), tree, source)
        _collect_functions(info, tree)
        modules.append(info)
    return modules, broken


# -- per-file rules ----------------------------------------------------------

#: Span identity fields supplied by the Span machinery, never by callers.
_SPAN_AUTO_FIELDS = {"span", "parent", "duration", "error"}

_WALL_CLOCK_CALLS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "time_ns"), ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "today"), ("datetime", "utcnow"),
}

#: Modules whose functions draw from a process-global, unseeded RNG
#: (``np.random`` is the spelling when numpy's import is not in view).
_GLOBAL_RNG_MODULES = {"random", "numpy.random", "np.random"}

#: Constructors in those modules: clean with a seed, findings without.
_RNG_CONSTRUCTORS = {"Random", "default_rng", "RandomState", "SeedSequence",
                     "Generator", "PCG64", "PCG64DXSM", "MT19937", "Philox",
                     "SFC64"}

def _wallclock_exempt(path: str) -> bool:
    """Is ``path`` host-side code that legitimately reads the wall clock?

    The ``obs`` package stamps run manifests with real timestamps and
    drives the ``--progress`` heartbeat off elapsed wall time — neither
    touches simulated time, so the reproducibility rule does not apply.
    """
    norm = path.replace(os.sep, "/")
    return "/obs/" in norm or norm.startswith("obs/")


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _EmitSiteVisitor(ast.NodeVisitor):
    """Finds record()/span() call sites and wall-clock calls."""

    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self.emitted: List[str] = []
        self._wallclock_exempt = _wallclock_exempt(path)
        #: {bound name: dotted target} of the imports seen so far.
        self._imports: Dict[str, str] = {}
        #: How many function bodies (defs, lambdas) enclose the node.
        self._fn_depth = 0

    # -- helpers ------------------------------------------------------------
    def _find(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno, node.col_offset,
                                     code, message))

    def _has_splat(self, call: ast.Call) -> bool:
        return any(kw.arg is None for kw in call.keywords)

    def _check_required(self, call: ast.Call, kind: str,
                        required: Tuple[str, ...], given: Set[str]) -> None:
        if self._has_splat(call):
            return  # dynamic fields: validate_trace checks these at run time
        missing = [f for f in required if f not in given]
        if missing:
            self._find(call, "missing-field",
                       f"emit of {kind!r} lacks required field(s) "
                       f"{missing} (schema: {sorted(required)})")

    # -- visitors -----------------------------------------------------------
    def _visit_function(self, node: ast.AST) -> None:
        self._fn_depth += 1
        self.generic_visit(node)
        self._fn_depth -= 1

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _visit_function

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self._imports[alias.asname] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and not node.level:
            for alias in node.names:
                self._imports[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else None

        if attr == "record" and len(node.args) >= 2:
            kind = _const_str(node.args[1])
            if kind is not None:
                self.emitted.append(kind)
                spec = TRACE_SCHEMA.get(kind)
                if spec is None:
                    self._find(node, "unknown-kind",
                               f"record() of undeclared kind {kind!r}")
                else:
                    given = {kw.arg for kw in node.keywords if kw.arg}
                    self._check_required(node, kind, spec.required, given)

        elif attr == "span" and node.args:
            name = _const_str(node.args[0])
            if name is not None:
                self.emitted.append(name)
                entry = SPAN_KINDS.get(name)
                if entry is None:
                    self._find(node, "unknown-kind",
                               f"span() of undeclared base {name!r}")
                else:
                    required = tuple(f for f in entry[1]
                                     if f not in _SPAN_AUTO_FIELDS)
                    given = {kw.arg for kw in node.keywords if kw.arg}
                    self._check_required(node, name, required, given)

        elif attr == "link" and len(node.args) >= 3:
            # tracer.link(src, dst, kind) emits a flow.link record.
            self.emitted.append("flow.link")

        if attr in ("span", "annotate"):
            reserved = [kw.arg for kw in node.keywords
                        if kw.arg in _SPAN_AUTO_FIELDS]
            if reserved:
                self._find(node, "reserved-field",
                           f"{attr}() passes reserved field(s) {reserved}; "
                           f"a span writes span, parent, duration and error "
                           f"itself (NullTracer accepts them silently)")

        self._check_wall_clock(node)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call) -> None:
        if self._wallclock_exempt:
            return
        dotted = _dotted(node.func)
        if dotted is None:
            return
        head, dot, rest = dotted.partition(".")
        resolved = self._imports.get(head, head) + dot + rest
        module, _, func = resolved.rpartition(".")
        if resolved == "itertools.count" and not self._fn_depth:
            self._find(node, "wall-clock",
                       f"{dotted}() at module or class scope — ids must "
                       f"come from an object that holds the simulation")
        elif (module.rpartition(".")[2], func) in _WALL_CLOCK_CALLS:
            self._find(node, "wall-clock",
                       f"call to {dotted}() — simulation code must take "
                       f"time from sim.now, not the wall clock")
        elif module not in _GLOBAL_RNG_MODULES:
            return
        elif func not in _RNG_CONSTRUCTORS:
            self._find(node, "wall-clock",
                       f"call to {dotted}() — the process-global {module} "
                       f"RNG is unseeded; draw from a seeded "
                       f"np.random.default_rng(seed)")
        elif all(isinstance(arg, ast.Constant) and arg.value is None
                 for arg in node.args + [kw.value for kw in node.keywords]):
            self._find(node, "wall-clock",
                       f"call to {dotted}() with no seed — unseeded RNGs "
                       f"make runs irreproducible")


class _ImportUsageVisitor(ast.NodeVisitor):
    """Collects imported names and every referenced Name id."""

    def __init__(self) -> None:
        self.imports: List[Tuple[str, int, int]] = []  # (name, line, col)
        self.used: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            self.imports.append((bound, node.lineno, node.col_offset))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "__future__":
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            self.imports.append((bound, node.lineno, node.col_offset))

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used.add(node.id)

    # Quoted forward references ('"MPIRank"', common under TYPE_CHECKING)
    # use a name just as a live annotation would — but only in annotation
    # position, so a docstring mentioning a name does not count as use.
    def _note_annotation(self, node: Optional[ast.AST]) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    parsed = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                for ref in ast.walk(parsed):
                    if isinstance(ref, ast.Name):
                        self.used.add(ref.id)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._note_annotation(node.annotation)
        # ``Alias: TypeAlias = "Bar"`` — the *value* is the forward
        # reference; a name used only there was reported as unused.
        ann = node.annotation
        ann_name = ann.attr if isinstance(ann, ast.Attribute) else (
            ann.id if isinstance(ann, ast.Name) else None)
        if ann_name == "TypeAlias":
            self._note_annotation(node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # String forward references in typing *calls* count as use, same
        # as annotation position: ``cast("Bar", x)``, ``TypeVar("T",
        # bound="Bar")`` and ``NewType("N", "Bar")`` all resolve their
        # string at type-checking time.
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name == "cast" and node.args:
            self._note_annotation(node.args[0])
        elif name == "NewType" and len(node.args) >= 2:
            self._note_annotation(node.args[1])
        elif name == "TypeVar":
            for kw in node.keywords:
                if kw.arg == "bound":
                    self._note_annotation(kw.value)
            for arg in node.args[1:]:  # constraint positions
                self._note_annotation(arg)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        self._note_annotation(node.annotation)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._note_annotation(node.returns)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._note_annotation(node.returns)
        self.generic_visit(node)


def _module_all(tree: ast.Module) -> List[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return [v for el in node.value.elts
                    if (v := _const_str(el)) is not None]
    return []


#: The module whose ``TRACE_SCHEMA`` the emitter-coverage rule checks.
_SCHEMA_MODULE = "repro.simulate.schema"


@dataclass
class LintResult:
    """Outcome of one ``repro lint`` run."""

    #: Actionable findings, sorted; every one fails the run.
    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by inline noqa suppressions.
    suppressed: List[Finding] = field(default_factory=list)
    files: List[str] = field(default_factory=list)


def _file_findings(mod: ModuleInfo) -> Tuple[List[Finding], List[str]]:
    """The per-file rules over one module: (findings, emitted kinds)."""
    emits = _EmitSiteVisitor(mod.path)
    emits.visit(mod.tree)
    findings = emits.findings
    if not mod.path.endswith("__init__.py"):
        usage = _ImportUsageVisitor()
        usage.visit(mod.tree)
        # __all__ strings count as use: a module may import purely to
        # re-export under its public surface.
        exported = set(_module_all(mod.tree))
        for name, line, col in usage.imports:
            if name not in usage.used and name not in exported:
                findings.append(Finding(mod.path, line, col, "unused-import",
                                        f"{name!r} imported but unused"))
    return findings, emits.emitted


def _lint(modules: List[ModuleInfo], broken: List[Finding]) -> LintResult:
    """Every rule over parsed ``modules``, then one suppression pass per
    file; ``broken`` carries the syntax-error findings of the rest."""
    findings = list(broken)
    emitted: List[str] = []
    for mod in modules:
        file_findings, kinds = _file_findings(mod)
        findings.extend(file_findings)
        emitted.extend(kinds)
    findings.extend(check_spans(modules))
    for mod in modules:
        if mod.name == _SCHEMA_MODULE:
            findings.extend(Finding(mod.path, 0, 0, "emitter-drift", problem)
                            for problem in validate_emitters(emitted))
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    result = LintResult()
    # Every module goes through suppression bookkeeping, findings or
    # not — a noqa comment in a clean file is an *unused* suppression.
    for mod in modules:
        kept, suppressed = apply_suppressions(by_path.pop(mod.path, []),
                                              mod.path, mod.source)
        result.findings.extend(kept)
        result.suppressed.extend(suppressed)
    for rest in by_path.values():  # files that did not parse
        result.findings.extend(rest)
    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=Finding.sort_key)
    return result


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Every rule over one in-memory module; returns its findings."""
    return _lint(*parse_modules([(path, source)])).findings


def lint_paths(paths: Sequence[str]) -> LintResult:
    """Every rule over every ``.py`` file under ``paths``."""
    files = iter_python_files(paths)
    result = _lint(*parse_modules(
        (fname, Path(fname).read_text(encoding="utf-8")) for fname in files))
    result.files = files
    return result
