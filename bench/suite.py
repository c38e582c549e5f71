"""``python -m bench run``: one full set, written to ``<out>/bench.json``.

Every workload runs in a fresh process, one process at a time: first the
untraced loop (end-to-end metrics), then the traced pass (per-layer
metrics).  The result file keeps every metric with its sample count and,
for timings, its quartiles, plus the environment the set ran in.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict

from . import ROOT, load_spec

SCHEMA_VERSION = 1
#: Generous per-process limit; a workload run takes well under a minute.
WORKLOAD_TIMEOUT_S = 600


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _run_workload(name: str, seed: int, seconds: float, quick: bool,
                  detail: str) -> Dict[str, Any]:
    cmd = [sys.executable, "-m", "bench", "workload", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "both",
           "--detail", detail] + (["--quick"] if quick else [])
    if os.path.exists(detail):
        os.remove(detail)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKLOAD_TIMEOUT_S)
    # Everything but the machine-readable last line.
    sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not os.path.exists(detail):
        return {"correct": False, "attempted": 1, "failed": 1,
                "failures": [f"exit code {proc.returncode}"], "metrics": {}}
    with open(detail, encoding="utf-8") as fh:
        return json.load(fh)


def run_suite(seed: int, out_dir: str, quick: bool) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = float(spec["run_seconds"])
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    results: Dict[str, Any] = {}
    for name in names:
        results[name] = _run_workload(name, seed, seconds, quick,
                                      os.path.join(out_dir, f"{name}.json"))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "git_sha": _git_sha(),
            "seed": seed,
            "seconds": seconds,
            "quick": quick,
            "runs": {n: results[n]["attempted"] for n in names},
        },
        "wall_s": time.perf_counter() - t0,
        "workloads": results,
    }
    path = os.path.join(out_dir, "bench.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    bad = [n for n in names if not results[n]["correct"]]
    print(f"wrote {path}: {len(names)} workloads in {doc['wall_s']:.1f} s"
          + (f"; FAILED: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0
