"""Host-side observability: run registry, reports, progress heartbeat.

Everything under ``repro.obs`` runs on the *host* clock, not the
simulated one — it records when a run happened, how long it took in
wall time, and renders human-facing artifacts after (or during) a run.
This package is therefore the one place in ``src/repro`` exempt from
the sanitizer's wall-clock ban (see :mod:`repro.sanitize.lint`).

* :mod:`repro.obs.registry` — every CLI run writes a manifest under
  ``runs/<run_id>/``; list, load and diff them without re-running.
* :mod:`repro.obs.report` — self-contained markdown run reports
  (phase waterfall, blame, telemetry sparklines).
* :mod:`repro.obs.progress` — wall-clock heartbeat for ``--progress``.
"""

from .progress import ProgressReporter
from .registry import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_hash,
    diff_runs,
    flatten_leaves,
    flatten_numeric,
    list_runs,
    load_manifest,
    new_run_id,
    resolve_runs_dir,
    start_clock,
    stop_clock,
    trace_artifact,
    write_manifest,
)
from .report import render_run_report, sparkline

__all__ = [
    "RunManifest",
    "MANIFEST_SCHEMA_VERSION",
    "config_hash",
    "new_run_id",
    "resolve_runs_dir",
    "write_manifest",
    "load_manifest",
    "list_runs",
    "diff_runs",
    "flatten_numeric",
    "flatten_leaves",
    "trace_artifact",
    "start_clock",
    "stop_clock",
    "render_run_report",
    "sparkline",
    "ProgressReporter",
]
