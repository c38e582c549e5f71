"""The committed ``BENCH_PR<n>.json`` trajectory at the repo root.

``python -m bench run --out DIR`` writes a directory of per-workload
files plus ``DIR/bench.json``; only that ``bench.json``, copied to
``BENCH_PR<n>.json``, belongs in the trajectory.  A directory committed
under the trajectory's name would hide the file ``bench compare`` reads.
"""

import glob
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_trajectory_entry_is_one_bench_run_file():
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_PR*.json")))
    assert paths, "no BENCH_PR*.json at the repo root"
    for path in paths:
        name = os.path.basename(path)
        assert os.path.isfile(path), f"{name} is not a regular file"
        with open(path) as fh:
            doc = json.load(fh)
        assert sorted(doc) == ["env", "schema_version", "wall_s",
                               "workloads"], name
