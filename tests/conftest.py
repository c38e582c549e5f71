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

``reset_global_counters`` is for tests that compare traces byte for
byte: it rewinds the process-global allocation counters.
"""

import gc
from itertools import count

import pytest

import repro.blcr.image as blcr_image
import repro.cluster.osproc as osproc
import repro.core.buffer_manager as buffer_manager
import repro.ftb.events as ftb_events
import repro.mpi.transport as transport
import repro.network.qp as qp


@pytest.fixture(autouse=True)
def _runs_dir_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))


@pytest.fixture(autouse=True)
def _collect_garbage():
    yield
    gc.collect()


@pytest.fixture
def reset_global_counters(monkeypatch):
    """A function that rewinds the process-global allocation counters
    (QP numbers, image ids, PIDs, ...) so back-to-back runs in one
    interpreter label their objects identically.  The ids are allocation
    bookkeeping, not simulation state — but they appear in trace fields,
    so byte-exact comparison needs them pinned.  Each call rewinds them
    again; the test's end restores them."""

    def reset() -> None:
        monkeypatch.setattr(qp.QueuePair, "_ids", count())
        monkeypatch.setattr(ftb_events, "_seq", count())
        monkeypatch.setattr(blcr_image, "_image_ids", count(start=1))
        monkeypatch.setattr(transport, "_wr_ids", count())
        monkeypatch.setattr(osproc, "_pids", count(start=1000))
        monkeypatch.setattr(buffer_manager, "_chunk_seq", count())

    return reset
