"""Module parsing and call-graph construction for ``repro lint``.

The passes need three things the raw ASTs do not give directly:

* a **function inventory** — every function/method with a stable
  qualified name (``repro.network.fluid.FluidNetwork.transfer``), its
  generator-ness, and its outgoing calls as written;
* a **call graph** with best-effort resolution — ``self.foo()`` to the
  same class, bare ``foo()`` to the module (or its ``from``-imports),
  ``mod.foo()`` through the import map — enough to chase ``yield from``
  delegation chains across modules;
* the set of **simulation-process functions**: generators passed to
  ``Simulator.spawn``/``process`` somewhere in the analyzed tree, plus
  every generator reachable from one through resolved calls.  These are
  the coroutines the event loop actually drives, where yield-point
  hazards are real rather than theoretical.

Resolution is deliberately conservative: an unresolvable callee is
simply absent from the graph (no finding depends on *completeness* of
edges, only on what is found), and fixture files outside a package still
analyze fine with module names derived from file stems.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..rules import Finding

__all__ = ["FunctionInfo", "ModuleInfo", "CallGraph", "parse_modules",
           "module_name_for"]


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


def _yields_of(func: ast.AST) -> List[ast.AST]:
    """Yield/YieldFrom nodes belonging to ``func`` itself (not nested defs)."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


@dataclass
class FunctionInfo:
    """One function or method in the analyzed tree."""

    qualname: str                #: "mod.Class.name" / "mod.name"
    name: str
    path: str
    module: str
    class_name: Optional[str]
    node: ast.AST
    is_generator: bool
    yield_lines: List[int]
    #: Dotted callee spellings as written ("self._pull", "sim.spawn").
    calls: List[str] = field(default_factory=list)
    #: Callee spellings reached via ``yield from <call>()``.
    delegates: List[str] = field(default_factory=list)
    #: True when some analyzed call site spawns this function.
    spawned: bool = False


@dataclass
class ModuleInfo:
    """One parsed module plus its symbol and import tables."""

    path: str
    name: str
    tree: ast.Module
    source: str
    #: {qualname: FunctionInfo} for functions and methods.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: {class name: [method name, ...]}
    classes: Dict[str, List[str]] = field(default_factory=dict)
    #: {local name: dotted target} from imports ("np" -> "numpy",
    #: "Simulator" -> "repro.simulate.core.Simulator").
    imports: Dict[str, str] = field(default_factory=dict)
    #: Attribute names assigned a set/frozenset in this module's classes
    #: (``self.flows = set()``) — type seeds for the determinism pass.
    set_attrs: Set[str] = field(default_factory=set)
    #: Module-level mutable globals (name -> "set"/"dict"/"list").
    mutable_globals: Dict[str, str] = field(default_factory=dict)


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """``from ..a import b`` inside ``pkg.sub.mod`` -> ``pkg.a``."""
    parts = module.split(".")
    base = parts[:-level] if level <= len(parts) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


_SET_CTORS = {"set", "frozenset"}
_MUTABLE_CTORS = {"set": "set", "frozenset": "set", "dict": "dict",
                  "list": "list"}


class _ModuleVisitor(ast.NodeVisitor):
    def __init__(self, info: ModuleInfo):
        self.info = info
        self._class_stack: List[str] = []
        self._func_depth = 0

    # -- imports ------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            self.info.imports[bound] = alias.name if alias.asname \
                else alias.name.split(".")[0]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        src = node.module
        if node.level:
            src = _resolve_relative(self.info.name, node.level, node.module)
        if src is None:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            self.info.imports[bound] = f"{src}.{alias.name}"

    # -- classes / functions ------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._func_depth:
            return  # classes defined inside functions: out of scope
        self.info.classes[node.name] = []
        self._class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    def _handle_func(self, node) -> None:
        cls = self._class_stack[-1] if self._class_stack else None
        if self._func_depth:
            return  # nested defs analyzed with their parent
        qual = (f"{self.info.name}.{cls}.{node.name}" if cls
                else f"{self.info.name}.{node.name}")
        yields = _yields_of(node)
        fn = FunctionInfo(
            qualname=qual, name=node.name, path=self.info.path,
            module=self.info.name, class_name=cls, node=node,
            is_generator=bool(yields),
            yield_lines=sorted(y.lineno for y in yields))
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                dotted = _dotted(sub.func)
                if dotted is not None:
                    fn.calls.append(dotted)
            elif (isinstance(sub, ast.YieldFrom)
                  and isinstance(sub.value, ast.Call)):
                dotted = _dotted(sub.value.func)
                if dotted is not None:
                    fn.delegates.append(dotted)
        if cls is not None:
            self.info.classes[cls].append(node.name)
            # Attribute type seeds: ``self.x = set()`` / set literals.
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign):
                    for tgt in sub.targets:
                        if (isinstance(tgt, ast.Attribute)
                                and isinstance(tgt.value, ast.Name)
                                and tgt.value.id == "self"
                                and _is_set_expr_shallow(sub.value)):
                            self.info.set_attrs.add(tgt.attr)
        self.info.functions[qual] = fn
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    visit_FunctionDef = _handle_func
    visit_AsyncFunctionDef = _handle_func

    # -- module-level mutables ----------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._class_stack and not self._func_depth:
            kind = _mutable_ctor(node.value)
            if kind is not None:
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        self.info.mutable_globals[tgt.id] = kind
        self.generic_visit(node)


def _is_set_expr_shallow(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        return name in _SET_CTORS
    return False


def _mutable_ctor(node: ast.AST) -> Optional[str]:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        return _MUTABLE_CTORS.get(name)
    return None


def parse_modules(sources: Iterable[Tuple[str, str]],
                  ) -> Tuple[List[ModuleInfo], List[Finding]]:
    """Parse each ``(path, source)`` once into a :class:`ModuleInfo`.

    A source that does not parse gives one ``syntax-error`` finding
    instead of a module, so it stays out of the call graph.
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
        info = ModuleInfo(path=path, name=module_name_for(path),
                          tree=tree, source=source)
        _ModuleVisitor(info).visit(tree)
        modules.append(info)
    return modules, broken


#: Call spellings that hand a generator to the event loop.
_SPAWN_NAMES = {"spawn", "process"}


class CallGraph:
    """Resolved call edges plus spawn-reachability over the module set."""

    def __init__(self, modules: Iterable[ModuleInfo]):
        #: Modules by dotted name (a later file shadows a same-named one).
        self.modules: Dict[str, ModuleInfo] = {m.name: m for m in modules}
        #: Every function by qualname.
        self.functions: Dict[str, FunctionInfo] = {}
        #: {method/function simple name -> [qualnames]} for fallback lookup.
        self._by_name: Dict[str, List[str]] = {}
        #: Resolved edges caller -> set of callee qualnames.
        self.edges: Dict[str, Set[str]] = {}
        #: Attribute names known set-typed anywhere in the tree.
        self.set_attrs: Set[str] = set()
        for mod in self.modules.values():
            self.set_attrs |= mod.set_attrs
            for qual, fn in mod.functions.items():
                self.functions[qual] = fn
                self._by_name.setdefault(fn.name, []).append(qual)
        self._build()

    # -- resolution ---------------------------------------------------------
    def resolve(self, caller: FunctionInfo, dotted: str) -> Optional[str]:
        """Best-effort qualname for a callee spelling inside ``caller``."""
        mod = self.modules.get(caller.module)
        parts = dotted.split(".")
        if parts[0] == "self" and len(parts) == 2 and caller.class_name:
            qual = f"{caller.module}.{caller.class_name}.{parts[1]}"
            return qual if qual in self.functions else None
        if len(parts) == 1:
            qual = f"{caller.module}.{parts[0]}"
            if qual in self.functions:
                return qual
            if mod is not None:
                target = mod.imports.get(parts[0])
                if target is not None and target in self.functions:
                    return target
            return None
        if mod is not None:
            target = mod.imports.get(parts[0])
            if target is not None:
                qual = ".".join([target] + parts[1:])
                if qual in self.functions:
                    return qual
        return None

    def _build(self) -> None:
        for qual, fn in self.functions.items():
            resolved: Set[str] = set()
            for dotted in fn.calls + fn.delegates:
                callee = self.resolve(fn, dotted)
                if callee is not None:
                    resolved.add(callee)
            self.edges[qual] = resolved
        # Spawn sites: spawn(gen(...)) / sim.process(gen(...)) anywhere.
        for fn in self.functions.values():
            for sub in ast.walk(fn.node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                name = func.attr if isinstance(func, ast.Attribute) \
                    else (func.id if isinstance(func, ast.Name) else None)
                if name not in _SPAWN_NAMES or not sub.args:
                    continue
                arg = sub.args[0]
                if not isinstance(arg, ast.Call):
                    continue
                dotted = _dotted(arg.func)
                if dotted is None:
                    continue
                callee = self.resolve(fn, dotted)
                if callee is None:
                    # Unresolvable receiver (``sim.spawn(w.run(...))``) —
                    # fall back to the simple method name, preferring a
                    # same-module match, else a unique one tree-wide.
                    simple = dotted.split(".")[-1]
                    cands = self._by_name.get(simple, [])
                    same_mod = [c for c in cands
                                if self.functions[c].module == fn.module]
                    if same_mod:
                        callee = same_mod[0]
                    elif len(cands) == 1:
                        callee = cands[0]
                if callee is not None:
                    self.functions[callee].spawned = True

    # -- queries ------------------------------------------------------------
    def process_functions(self) -> Set[str]:
        """Generators the simulator drives: spawned ones plus every
        generator reachable from them through resolved calls."""
        seeds = [q for q, fn in self.functions.items()
                 if fn.spawned and fn.is_generator]
        seen: Set[str] = set(seeds)
        stack = list(seeds)
        while stack:
            cur = stack.pop()
            for callee in self.edges.get(cur, ()):
                if callee not in seen and self.functions[callee].is_generator:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    def generators(self) -> List[FunctionInfo]:
        return [fn for fn in self.functions.values() if fn.is_generator]

    def stats(self) -> Dict[str, int]:
        return {
            "modules": len(self.modules),
            "functions": len(self.functions),
            "generators": len(self.generators()),
            "process_functions": len(self.process_functions()),
            "edges": sum(len(v) for v in self.edges.values()),
        }


def shared_key(caller: FunctionInfo, node: ast.AST,
               graph: "CallGraph") -> Optional[Tuple[str, str]]:
    """Identity of a *shared* location read/written by ``node``.

    Returns ``("attr", "Class.attr")`` for ``self.attr`` inside a
    method, or ``("global", "mod.NAME")`` for a module-level mutable
    global — the two kinds of state that survive across yields and are
    visible to other processes.  Locals return ``None``.
    """
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self" and caller.class_name):
        return ("attr", f"{caller.class_name}.{node.attr}")
    if isinstance(node, ast.Name):
        mod = graph.modules.get(caller.module)
        if mod is not None and node.id in mod.mutable_globals:
            return ("global", f"{caller.module}.{node.id}")
    return None
