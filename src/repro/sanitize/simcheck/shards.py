"""Cross-shard mutation pass (SIM103).

The sharded kernel's conservative window (:mod:`repro.simulate.shard`)
is only safe if shards interact exclusively through the timestamped
mailboxes — :meth:`EventShard.post` out, :meth:`EventShard.subscribe`
in.  Code that reaches *into* another shard and mutates it directly
(``kernel.shards[2].spawn(...)``, ``owner.shard(dst).timeout(...)``)
schedules work behind the window barrier: the target shard may already
have committed past that time, so the event lands in its past and the
run stops being reproducible (or causally meaningful).

The pass flags, inside **generator functions** (simulation processes —
the code that runs *during* the window loop), any scheduling or
state-mutating call chained directly onto a shard accessor:

* ``<expr>.shards[<i>].<mutator>(...)`` — indexing the shard list;
* ``<expr>.shard(<i>).<mutator>(...)`` — the accessor method;

plus direct attribute assignment through either form
(``kernel.shards[1]._now = t``).  Mutators are the event factories and
loop controls (``spawn``/``timeout``/``event``/``step``/``run``/
``schedule``/``_schedule``/``succeed``/``fail``/``interrupt``).

Build-time wiring is *not* flagged: non-generator code (scenario
``__init__``, partition setup) legitimately grabs shard handles and
spawns initial processes before the window loop starts, and the
sanctioned mailbox surface (``.post`` / ``.subscribe``) is never a
mutator.  Like every static pass this is a heuristic — assigning the
handle to a local first (``sim = kernel.shard(i)``) evades it — but the
direct-chain idiom is how the bug is actually written.
"""

from __future__ import annotations

import ast
from typing import List

from ..rules import Finding
from .callgraph import CallGraph, FunctionInfo

__all__ = ["check_shards"]

#: Calls that schedule events or mutate kernel state on the receiver.
_MUTATORS = frozenset({
    "spawn", "timeout", "event", "run", "schedule", "_schedule",
    "succeed", "fail", "interrupt", "attach_probe",
})


def _own_nodes(node: ast.AST) -> List[ast.AST]:
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


def _shard_accessor(node: ast.AST) -> str:
    """``"shards[...]"`` / ``"shard(...)"`` when ``node`` reaches a shard
    through the kernel's accessors, else ``""``."""
    if isinstance(node, ast.Subscript):
        value = node.value
        if isinstance(value, ast.Attribute) and value.attr == "shards":
            return "shards[...]"
        if isinstance(value, ast.Name) and value.id == "shards":
            return "shards[...]"
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "shard":
            return "shard(...)"
    return ""


def _check_function(fn: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    for node in _own_nodes(fn.node):
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            if node.func.attr not in _MUTATORS:
                continue
            accessor = _shard_accessor(node.func.value)
            if not accessor:
                continue
            findings.append(Finding(
                fn.path, node.lineno, node.col_offset,
                "cross-shard-mutation",
                f"{fn.qualname} calls .{node.func.attr}() on "
                f".{accessor} from inside a simulation process — "
                f"scheduling into another shard bypasses the "
                f"conservative window; route it through "
                f"EventShard.post()/subscribe() mailboxes"))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                cur = target
                while isinstance(cur, (ast.Attribute, ast.Subscript)):
                    accessor = _shard_accessor(cur)
                    if accessor and cur is not target:
                        findings.append(Finding(
                            fn.path, node.lineno, node.col_offset,
                            "cross-shard-mutation",
                            f"{fn.qualname} assigns state through "
                            f".{accessor} from inside a simulation "
                            f"process — mutating another shard bypasses "
                            f"the conservative window; route it through "
                            f"EventShard.post()/subscribe() mailboxes"))
                        break
                    cur = cur.value
    return findings


def check_shards(graph: CallGraph) -> List[Finding]:
    """Flag direct cross-shard mutation in every generator function."""
    findings: List[Finding] = []
    for fn in graph.functions.values():
        if not fn.is_generator:
            continue
        findings.extend(_check_function(fn))
    findings.sort(key=Finding.sort_key)
    return findings
