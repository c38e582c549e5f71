"""``python -m bench compare A.json B.json``: a verdict per (workload, metric).

Bounded metrics (the end-to-end ones of ``BENCHMARK.json`` and
``obs_overhead_ratio``) are judged against their bound:

* ``within bound`` — B is no worse and no better than A by more than it;
* ``unresolved`` — the change exceeds the bound, but so does the spread of
  the median on one side (1.57 x IQR / sqrt(n), relative to the median);
* ``better`` / ``worse`` otherwise.

Counts, ``paper_rel_err``, ``failed_frac`` and the outputs digest compare
exactly (``same``, or ``better`` / ``worse`` / ``changed``).  Per-layer host
times have no bound and are listed as ``info``.  The exit code is 1 if any
verdict is ``worse`` or a workload is missing from B.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Tuple

from . import DERIVED, is_host_time, load_spec


def _rules() -> Dict[str, Tuple[str, Optional[float]]]:
    """``{metric: (better, bound)}``; bound 0 is exact, ``None`` is info."""
    spec = load_spec()
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update({name: (d["better"], d["bound"])
                  for name, d in DERIVED.items()})
    for m in spec["per_layer"]:
        rules[m["name"]] = (m["better"],
                            None if is_host_time(m["name"]) else 0.0)
    return rules


def _spread(m: Dict[str, Any]) -> float:
    if "n" not in m or not m["value"]:
        return 0.0
    return 1.57 * (m["q3"] - m["q1"]) / math.sqrt(m["n"]) / abs(m["value"])


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: Optional[float]) -> Tuple[str, float]:
    """Verdict and relative change of metric ``b`` against baseline ``a``.

    The change is signed so that positive is worse.
    """
    av, bv = a["value"], b["value"]
    worse = (bv - av) if better == "lower" else (av - bv)
    if worse == 0:
        rel = 0.0
    else:
        rel = worse / abs(av) if av else math.copysign(math.inf, worse)
    if bound is None:
        return "info", rel
    if bound == 0:
        return ("same" if worse == 0 else
                "worse" if worse > 0 else "better"), rel
    if abs(rel) <= bound:
        return "within bound", rel
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved", rel
    return ("worse" if rel > 0 else "better"), rel


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any]
            ) -> Tuple[List[Tuple[str, ...]], bool]:
    """Rows ``(workload, metric, a, b, change, verdict)`` and a failed flag."""
    rules = _rules()
    rows: List[Tuple[str, ...]] = []
    failed = False
    wa, wb = doc_a["workloads"], doc_b["workloads"]
    for name in sorted(set(wa) | set(wb)):
        if name not in wb:
            rows.append((name, "-", "present", "missing", "", "worse"))
            failed = True
            continue
        if name not in wa:
            rows.append((name, "-", "missing", "present", "", "new"))
            continue
        ma, mb = wa[name]["metrics"], wb[name]["metrics"]
        sha_a, sha_b = wa[name].get("outputs_sha"), wb[name].get("outputs_sha")
        if sha_a or sha_b:
            rows.append((name, "outputs_sha", str(sha_a), str(sha_b), "",
                         "same" if sha_a == sha_b else "changed"))
        for metric in sorted(set(ma) & set(mb)):
            better, bound = rules.get(metric, ("lower", None))
            v, rel = verdict(ma[metric], mb[metric], better, bound)
            failed |= v == "worse"
            rows.append((name, metric, f"{ma[metric]['value']:.6g}",
                         f"{mb[metric]['value']:.6g}",
                         f"{rel:+.1%}" if rel else "", v))
    return rows, failed


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        doc_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        doc_b = json.load(fh)
    rows, failed = compare(doc_a, doc_b)
    header = ("workload", "metric", "A", "B", "worse by", "verdict")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(6)]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row[5]] = counts.get(row[5], 0) + 1
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if failed else 0
