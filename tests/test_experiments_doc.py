"""EXPERIMENTS.md's generated tables match the committed bench pins.

Rendering reads ``benchmarks/baselines.json`` only, so this runs no
simulation.
"""

import json

import pytest

pytest.importorskip("benchmarks.experiments_doc",
                    reason="benchmarks package requires repo-root cwd")

from benchmarks.experiments_doc import (  # noqa: E402
    EXPERIMENTS_MD,
    MARKER,
    RENDERERS,
    render,
)
from benchmarks.harness import default_baselines_path  # noqa: E402


def test_experiments_tables_regenerate_from_pins():
    with open(EXPERIMENTS_MD, encoding="utf-8") as fh:
        committed = fh.read()
    with open(default_baselines_path(), encoding="utf-8") as fh:
        pins = json.load(fh)["benches"]
    assert [m.group("name") for m in MARKER.finditer(committed)] == \
        list(RENDERERS)
    assert render(committed, pins) == committed, (
        "EXPERIMENTS.md tables differ from benchmarks/baselines.json; "
        "regenerate with `PYTHONPATH=src python -m benchmarks.experiments_doc`")
    # A moved pin shows up in the rendered text, and only between markers.
    pins["table1"]["LU.C.cr_mb"] = 1.0
    moved = render(committed, pins)
    assert "| LU.C.64 | 170.4 | 170.4 | 1.0 | 1363.2 |" in moved
    assert MARKER.sub("", moved) == MARKER.sub("", committed)
