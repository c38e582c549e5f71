"""A paired study: one revision against another, run alternately.

For each workload W, pair i runs ``python -m bench workload --workload W
--seed N+i --seconds S --trace 0`` once in the base tree and once in the
head tree, each in a fresh process, with the first runner alternating
from pair to pair so that host drift lands on both sides.  The base is a
revision unpacked with ``git archive <rev> | tar -x`` into a temporary
directory; the head is the working tree, or a second revision unpacked
the same way.  Each tree's ``bench`` loads that tree's own ``src/``.

The JSON written holds both revisions and, per workload, every pair's
raw end-to-end values and per metric the median paired ratio (head /
base), its quartiles and the pairs the head won.  Run from the
repository root::

    python -m benchmarks.pair --base c721143 --workload migrate cr_pvfs \\
        --seed 41 --pairs 12 --seconds 8 --out PAIR.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

__all__ = ["ROOT", "unpack", "run_workload", "summarize", "study", "main"]

#: The working tree: the directory holding ``benchmarks/`` and ``bench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(rev: str, dest: str) -> str:
    """Extract ``rev``'s committed files into ``dest``; return its sha."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return sha


def _end_to_end() -> List[Dict[str, Any]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def run_workload(tree: str, workload: str, seed: int, seconds: float,
                 quick: bool) -> Dict[str, Any]:
    """One ``bench workload --trace 0`` in ``tree``: its last JSON line."""
    cmd = [sys.executable, "-m", "bench", "workload", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if quick:
        cmd.append("--quick")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(cmd, cwd=tree, env=env, check=True,
                          capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"],
            "values": values}


def _quartiles(xs: List[float]) -> List[float]:
    if len(xs) == 1:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def summarize(pairs: List[Dict[str, Any]],
              metrics: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per metric: both sides' quartiles, the paired ratios' quartiles and
    the pairs won (a tie wins for neither side)."""
    out: Dict[str, Any] = {}
    for metric in metrics:
        name = metric["name"]
        lower = metric["better"] == "lower"
        base = [p["base"]["values"][name] for p in pairs]
        head = [p["head"]["values"][name] for p in pairs]
        ratios = [h / b for b, h in zip(base, head) if b]
        won = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
        b_q, h_q = _quartiles(base), _quartiles(head)
        r_q = _quartiles(ratios) if ratios else [float("nan")] * 3
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "base": {"q1": b_q[0], "median": b_q[1], "q3": b_q[2]},
            "head": {"q1": h_q[0], "median": h_q[1], "q3": h_q[2]},
            "ratio": {"q1": r_q[0], "median": r_q[1], "q3": r_q[2]},
            "won": won, "pairs": len(pairs),
        }
    return out


def study(base: str, head: Optional[str], workloads: List[str], seed: int,
          pairs: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """Run the paired study and return the result document."""
    metrics = _end_to_end()
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        base_tree = os.path.join(tmp, "base")
        sides = {"base": {"rev": base, "sha": unpack(base, base_tree)}}
        if head is None:
            head_tree = ROOT
            sides["head"] = {"rev": None, "sha": _git("rev-parse", "HEAD"),
                             "dirty": bool(_git("status", "--porcelain"))}
        else:
            head_tree = os.path.join(tmp, "head")
            sides["head"] = {"rev": head, "sha": unpack(head, head_tree)}
        trees = {"base": base_tree, "head": head_tree}
        studies = {}
        for workload in workloads:
            rows = []
            for i in range(pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                row: Dict[str, Any] = {"seed": seed + i, "first": order[0]}
                for side in order:
                    row[side] = run_workload(trees[side], workload,
                                             seed + i, seconds, quick)
                rows.append(row)
            studies[workload] = {"pairs": rows,
                                 "summary": summarize(rows, metrics)}
    return {"seconds": seconds, "quick": quick, "trace": "0",
            "base": sides["base"], "head": sides["head"],
            "workloads": studies}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.pair",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--head", default=None,
                        help="head revision (default: the working tree)")
    parser.add_argument("--workload", required=True, nargs="+",
                        help="one or more bench workloads, studied in turn")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="time budget of each bench run")
    parser.add_argument("--quick", action="store_true",
                        help="pass --quick to every bench run")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    doc = study(args.base, args.head, args.workload, args.seed, args.pairs,
                args.seconds, args.quick)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, one in doc["workloads"].items():
        for name, s in one["summary"].items():
            r = s["ratio"]
            print(f"{workload:<15} {name:<17} ratio {r['median']:.4f} "
                  f"[{r['q1']:.4f}, {r['q3']:.4f}]  "
                  f"won {s['won']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
