"""Span balance (SIM301): every span is scoped inside one function.

Tracer spans are context managers: ``Span.__enter__`` records the
``span.start`` trace record and ``__exit__`` the ``span.end``.  A span
that is *started* but never scoped leaks an unbalanced ``start`` into
the trace and skews every duration rollup built on it.  The check reads
each ``.span(...)`` call site for one of the sanctioned shapes:

* used directly as a ``with`` context expression;
* assigned to a local that is later used as a ``with`` context
  expression in the same function;
* returned (handoff — the caller owns scoping, as ``Tracer.span``
  itself does);
* passed to ``contextlib``'s ``enter_context`` (an ExitStack owns it);
* manually entered via ``__enter__`` *with* a matching ``__exit__``
  inside a ``finally`` block.

Anything else — a bare ``tracer.span(...)`` expression statement, an
assignment that is never entered, a span stored on an attribute, or an
``__enter__`` without a ``finally``-guarded ``__exit__`` — is a SIM301
finding.  A run only
shows the paths it takes; this sees the exception paths no test
drives.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, List, Set

from .rules import Finding

if TYPE_CHECKING:
    from .lint import FunctionInfo, ModuleInfo

__all__ = ["check_spans"]


def _own_nodes(node: ast.AST) -> List[ast.AST]:
    """Every node of a function body, not descending into nested defs."""
    out: List[ast.AST] = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda)):
            continue
        out.append(cur)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def _is_span_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span")


def _check_function(fn: "FunctionInfo", path: str,
                    nodes: List[ast.AST]) -> List[Finding]:
    span_calls = [n for n in nodes if _is_span_call(n)]
    if not span_calls:
        return []

    with_calls: Set[int] = set()       # span calls used as with-items
    with_names: Set[str] = set()       # names used as with-items
    returned: Set[int] = set()         # span calls handed to the caller
    wrapped: Set[int] = set()          # enter_context(tracer.span(...))
    assigned_to = {}                   # id(span call) -> local name
    entered: Set[str] = set()          # names with .__enter__() called
    exited_finally: Set[str] = set()   # names .__exit__-ed in a finally

    for node in nodes:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if _is_span_call(expr):
                    with_calls.add(id(expr))
                elif isinstance(expr, ast.Name):
                    with_names.add(expr.id)
        elif isinstance(node, ast.Return) and node.value is not None:
            if _is_span_call(node.value):
                returned.add(id(node.value))
        elif isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) \
                else (node.func.id if isinstance(node.func, ast.Name)
                      else None)
            if name == "enter_context":
                for arg in node.args:
                    if _is_span_call(arg):
                        wrapped.add(id(arg))
            elif name == "__enter__" and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name):
                entered.add(node.func.value.id)
        elif isinstance(node, ast.Assign) and _is_span_call(node.value):
            if len(node.targets) == 1 and isinstance(node.targets[0],
                                                     ast.Name):
                assigned_to[id(node.value)] = node.targets[0].id
        elif isinstance(node, ast.Try):
            for sub in node.finalbody:
                for call in ast.walk(sub):
                    if (isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr == "__exit__"
                            and isinstance(call.func.value, ast.Name)):
                        exited_finally.add(call.func.value.id)

    findings: List[Finding] = []
    for call in span_calls:
        key = id(call)
        if key in with_calls or key in returned or key in wrapped:
            continue
        name = assigned_to.get(key)
        if name is not None:
            if name in with_names:
                continue
            if name in entered and name in exited_finally:
                continue
            if name in entered:
                message = (f"enters span {name!r} manually without a "
                           f"finally-guarded __exit__ — an exception "
                           f"leaks an unbalanced span.start record; use "
                           f"'with' or add try/finally")
            else:
                message = (f"assigns a span to {name!r} but never scopes "
                           f"it with 'with' — the span.start record is "
                           f"never balanced by span.end")
        else:
            message = ("starts a span outside a 'with' block — wrap the "
                       "call in 'with' (or return it) so span.start/"
                       "span.end records pair")
        findings.append(Finding(
            path, call.lineno, call.col_offset, "span-unbalanced",
            f"{fn.qualname} {message}"))
    return findings


def check_spans(modules: Iterable["ModuleInfo"]) -> List[Finding]:
    """Check every function's ``.span(...)`` sites for balanced scoping."""
    return [finding for mod in modules for fn in mod.functions
            for finding in _check_function(fn, mod.path, _own_nodes(fn.node))]
