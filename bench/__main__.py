"""``python -m bench``: run one workload, a full set, or compare two sets.

``workload`` is the benchmark's single-run contract: it measures one workload
in this process and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``).  ``run`` measures every workload with ``--trace both``, each
in a fresh process, and writes ``bench.json``; ``compare`` judges two such
files.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import load_spec, use_repro_sources


def _cmd_workload(args) -> int:
    use_repro_sources()
    from .measure import measure
    from .workloads import WORKLOADS

    spec = load_spec()
    wl = WORKLOADS[args.workload]
    m = measure(wl, args.seed, args.seconds, end_to_end=args.trace != "1",
                layers=args.trace != "0", quick=args.quick)
    wanted = {"0": spec["end_to_end"], "1": spec["per_layer"],
              "both": spec["end_to_end"] + spec["per_layer"]}[args.trace]
    for reason in m.failures:
        print(f"{wl.name}: FAILED: {reason}", file=sys.stderr)
    for name, v in m.values.items():
        spread = (f"  (n={v['n']}, q1={v['q1']:.6g}, q3={v['q3']:.6g})"
                  if "n" in v else "")
        print(f"{wl.name:<15} {name:<36} {v['value']:>14.6g} {v['unit']}"
              f"{spread}")
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "trace": args.trace,
                       "seed": args.seed, "correct": m.correct,
                       "attempted": m.attempted, "failed": len(m.failures),
                       "failures": m.failures, "metrics": m.values,
                       "outputs_sha": m.outputs_sha}, fh, indent=1)
    metrics = {
        metric["name"]: {
            "value": m.values.get(metric["name"], {}).get("value", 0.0),
            "unit": metric["unit"]}
        for metric in wanted}
    print(json.dumps({"correct": m.correct, "attempted": m.attempted,
                      "failed": len(m.failures), "metrics": metrics}))
    return 0


def _cmd_run(args) -> int:
    from .suite import run_suite

    return run_suite(seed=args.seed, out_dir=args.out, quick=args.quick)


def _cmd_compare(args) -> int:
    from .compare import compare_files

    return compare_files(args.a, args.b)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("workload", help="measure one workload (the "
                                          "per-run contract)")
    one.add_argument("--workload", required=True,
                     choices=[w["name"] for w in load_spec()["workloads"]])
    one.add_argument("--seed", type=int, default=0)
    one.add_argument("--seconds", type=float,
                     default=float(load_spec()["run_seconds"]),
                     help="time budget of the untraced loop "
                          "(default: run_seconds from BENCHMARK.json)")
    one.add_argument("--trace", choices=("0", "1", "both"), default="0",
                     help="0: the untraced loop; 1: the traced per-layer "
                          "pass; both: the loop, then the traced pass")
    one.add_argument("--quick", action="store_true",
                     help="2 untraced runs and 1 traced run, no warm-up")
    one.add_argument("--detail", default=None,
                     help="also write every metric with quartiles here")
    one.set_defaults(fn=_cmd_workload)

    full = sub.add_parser("run", help="every workload, untraced then traced, "
                                      "each in its own process")
    full.add_argument("--seed", type=int, default=0)
    full.add_argument("--out", default="bench-out")
    full.add_argument("--quick", action="store_true",
                      help="2 untraced runs and 1 traced run per workload")
    full.set_defaults(fn=_cmd_run)

    cmp_ = sub.add_parser("compare", help="verdict per (workload, metric)")
    cmp_.add_argument("a", help="baseline bench.json")
    cmp_.add_argument("b", help="candidate bench.json")
    cmp_.set_defaults(fn=_cmd_compare)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
