"""Suite-wide fixtures.

Every ``repro run/compare/bench`` invocation records a run manifest
(``run`` also writes its trace and metrics next to it); without
redirection the CLI tests would litter the repository with ``runs/``
directories.  The autouse fixture points the registry at
a per-test temporary directory through the ``REPRO_RUNS_DIR``
environment variable (the lowest-precedence knob, so tests that pass an
explicit ``--runs-dir`` still win).

A finished scenario is a web of reference cycles (simulator, processes,
generators), so its memory — over a gigabyte of segment bytes in the
``record_data`` tests — is freed only by the cyclic collector.  Running
it after each test keeps one test's address spaces from sitting under
the next test's peak.
"""

import gc

import pytest


@pytest.fixture(autouse=True)
def _runs_dir_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))


@pytest.fixture(autouse=True)
def _collect_garbage():
    yield
    gc.collect()

