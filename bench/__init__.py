"""The repo benchmark: closed-loop workloads driven through the ``repro`` API.

Run ``python -m bench --help`` from the repository root.  ``bench/README.md``
lists the workloads, the metrics and how to compare two result files.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict

#: Repository root: the directory holding ``bench/``, ``src/`` and
#: ``BENCHMARK.json``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def use_repro_sources() -> None:
    """Put ``src/`` first on ``sys.path`` so ``import repro`` loads this tree.

    Raises :class:`SystemExit` (code 2) when the tree holds no ``repro``
    package, so a copy of ``bench/`` alone fails without printing a result.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"bench: no repro package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)


def load_spec() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json`` at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


#: Metrics the result file carries beside those in ``BENCHMARK.json``: they
#: are not defined on every workload, or are zero when all is well, so the
#: per-workload result line cannot carry them.  ``bound`` 0 means exact.
DERIVED = {
    "obs_overhead_ratio": {"unit": "ratio", "better": "lower", "bound": 0.10},
    "paper_rel_err": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "failed_frac": {"unit": "ratio", "better": "lower", "bound": 0.0},
}


def is_host_time(name: str) -> bool:
    """Whether a per-layer metric is measured host time, not an exact count."""
    return name.endswith((".self_s", ".share")) or name == "bench.wrap_overhead"
