"""Tests for the calibration self-check."""

import json
import os

import pytest

from repro.validation import Check, render_validation, run_validation


#: validate's check name -> the `repro bench` pin of the same quantity.
PINNED = {
    "migration total (Fig.4 LU)": ("fig7", "LU.C.migration.Total"),
    "phase 2 / RDMA migration":
        ("fig7", "LU.C.migration.Checkpoint(Migration)"),
    "phase 1 / job stall (<=0.1s band)": ("fig7", "LU.C.migration.Job Stall"),
    "data migrated (Table I LU)": ("table1", "LU.C.migration_mb"),
    "CR data dumped (Table I LU)": ("table1", "LU.C.cr_mb"),
    "CR(ext3) checkpoint": ("fig7", "LU.C.cr_ext3.Checkpoint(Migration)"),
    "CR(pvfs) checkpoint": ("fig7", "LU.C.cr_pvfs.Checkpoint(Migration)"),
    "CR(ext3) full cycle": ("fig7", "LU.C.cr_ext3.Total"),
    "CR(pvfs) full cycle": ("fig7", "LU.C.cr_pvfs.Total"),
    "speedup vs CR(pvfs)": ("fig7", "LU.C.speedup_pvfs"),
    "speedup vs CR(ext3)": ("fig7", "LU.C.speedup_ext3"),
}


def test_check_pass_fail_logic():
    assert Check("x", 10.0, 10.0, rel_tol=0.1).passed
    assert Check("x", 10.9, 10.0, rel_tol=0.1).passed
    assert not Check("x", 12.0, 10.0, rel_tol=0.1).passed
    assert not Check("x", 8.0, 10.0, rel_tol=0.1).passed
    assert Check("x", 11.0, 10.0, rel_tol=0.1).deviation_pct == pytest.approx(10.0)


def test_render_validation_format():
    checks = [Check("good", 1.0, 1.0, 0.1), Check("bad", 9.0, 1.0, 0.1)]
    out = render_validation(checks)
    assert "[PASS] good" in out
    assert "[FAIL] bad" in out
    assert "1/2 checks passed" in out


def test_full_validation_passes():
    """The repository's headline reproduction claims, executed end to end.

    This is deliberately the same code path as ``python -m repro validate``:
    if a calibration change breaks the reproduction, this test fails.
    """
    checks = run_validation()
    failed = [c for c in checks if not c.passed]
    assert not failed, render_validation(checks)
    # The byte-accounting checks are exact, not just within tolerance.
    exact = {c.name: c for c in checks if c.unit == "MB"}
    for c in exact.values():
        assert c.measured == pytest.approx(c.expected, rel=1e-3)
    # validate measures the Fig. 7 LU.C runs that `repro bench` pins,
    # at the precision they are pinned with.
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "benchmarks", "baselines.json")) as fh:
        pins = json.load(fh)["benches"]
    assert set(PINNED) == {c.name for c in checks}
    for c in checks:
        bench, key = PINNED[c.name]
        digits = 4 if c.unit == "x" else 6
        assert round(c.measured, digits) == pins[bench][key], c.name
