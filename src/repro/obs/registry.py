"""Run registry: a manifest per CLI run, listable and diffable.

Every ``repro run``/``bench``/``compare`` invocation drops a small JSON
manifest under ``runs/<run_id>/manifest.json`` tying together what was
run (config + hash + seed + git sha), how long it took (wall seconds),
what it produced (phase results, bench deltas) and where the artifacts
went.  A ``repro run`` directory also holds the run's artifacts
(``trace.jsonl.gz``, ``trace.json``, ``metrics.json``), which ``repro
report``, ``explain`` and ``sanitize --from-jsonl`` read instead of
simulating.  ``repro runs list|show|diff`` answers "what changed between
these two runs' configs and results?" without re-running anything.

The registry directory defaults to ``runs/`` under the current working
directory and is overridable with ``--runs-dir`` or the
``REPRO_RUNS_DIR`` environment variable (tests point it at a tmp dir).
Manifests are written atomically (tmp + rename) like every other
artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.trace_export import atomic_write

__all__ = ["MANIFEST_SCHEMA_VERSION", "RunManifest", "config_hash",
           "new_run_id", "resolve_runs_dir", "write_manifest",
           "load_manifest", "list_runs", "diff_runs", "flatten_numeric",
           "flatten_leaves", "trace_artifact", "start_clock", "stop_clock"]


def start_clock() -> float:
    """Opaque wall-clock token for :func:`stop_clock`.

    Lives here (not in the CLI) because ``obs`` is the one package the
    sanitizer's wall-clock lint exempts.
    """
    return time.monotonic()


def stop_clock(t0: float) -> float:
    """Wall seconds elapsed since the matching :func:`start_clock`."""
    return time.monotonic() - t0

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1

_ENV_RUNS_DIR = "REPRO_RUNS_DIR"


def config_hash(config: Dict[str, Any]) -> str:
    """Stable short hash of a config dict (canonical-JSON sha256)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def git_sha(cwd: Optional[str] = None) -> str:
    """Current commit sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def new_run_id(command: str, cfg_hash: str) -> str:
    """``<utc timestamp>-<command>-<hash8>`` — sortable and collision-safe.

    The stamp carries microseconds: ``list_runs`` sorts directory names
    and promises oldest-first, so back-to-back runs landing in the same
    wall-clock second must still sort in creation order (a
    second-resolution stamp would fall through to the command + config
    hash and shuffle them).
    """
    now = time.time()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(now))
    return f"{stamp}{int(now % 1.0 * 1e6):06d}-{command}-{cfg_hash[:8]}"


def resolve_runs_dir(explicit: Optional[str] = None) -> str:
    """Precedence: CLI flag > ``REPRO_RUNS_DIR`` > ``runs/``."""
    if explicit:
        return explicit
    return os.environ.get(_ENV_RUNS_DIR) or "runs"


@dataclass
class RunManifest:
    """Everything needed to identify, compare and re-render one run."""

    run_id: str
    command: str
    config: Dict[str, Any]
    config_hash: str
    seed: Optional[int] = None
    git_sha: str = "unknown"
    created: str = ""              #: ISO-8601 UTC wall time.
    wall_seconds: float = 0.0
    results: Dict[str, Any] = field(default_factory=dict)
    artifacts: List[str] = field(default_factory=list)
    schema_version: int = MANIFEST_SCHEMA_VERSION

    @classmethod
    def new(cls, command: str, config: Dict[str, Any],
            seed: Optional[int] = None) -> "RunManifest":
        h = config_hash(config)
        return cls(
            run_id=new_run_id(command, h), command=command,
            config=dict(config), config_hash=h, seed=seed,
            git_sha=git_sha(),
            created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def write_manifest(manifest: RunManifest, runs_dir: Optional[str] = None,
                   overwrite: bool = False) -> str:
    """Write ``<runs_dir>/<run_id>/manifest.json`` atomically; its path.

    If an identical run id already exists (same command + config hash
    within one second), a ``-2``/``-3`` suffix keeps the runs distinct —
    unless ``overwrite`` is set, which re-writes the manifest in place
    (used to fold artifact paths back into a just-reserved manifest).
    """
    base = resolve_runs_dir(runs_dir)
    run_dir = os.path.join(base, manifest.run_id)
    if not overwrite:
        n = 1
        while os.path.exists(os.path.join(run_dir, "manifest.json")):
            n += 1
            run_dir = os.path.join(base, f"{manifest.run_id}-{n}")
        if n > 1:
            manifest.run_id = f"{manifest.run_id}-{n}"
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "manifest.json")
    with atomic_write(path) as fh:
        json.dump(manifest.as_dict(), fh, indent=2, sort_keys=True,
                  default=str)
        fh.write("\n")
    return path


def load_manifest(run_id_or_path: str,
                  runs_dir: Optional[str] = None) -> RunManifest:
    """Load by run id (under the runs dir) or by direct path."""
    if os.path.isfile(run_id_or_path):
        path = run_id_or_path
    else:
        path = os.path.join(resolve_runs_dir(runs_dir), run_id_or_path,
                            "manifest.json")
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    known = {f for f in RunManifest.__dataclass_fields__}
    return RunManifest(**{k: v for k, v in data.items() if k in known})


def list_runs(runs_dir: Optional[str] = None) -> List[RunManifest]:
    """Every readable manifest under the runs dir, oldest first."""
    base = resolve_runs_dir(runs_dir)
    out: List[RunManifest] = []
    if not os.path.isdir(base):
        return out
    for name in sorted(os.listdir(base)):
        path = os.path.join(base, name, "manifest.json")
        if not os.path.isfile(path):
            continue
        try:
            out.append(load_manifest(path))
        except (OSError, ValueError, TypeError, KeyError):
            continue  # a foreign or truncated dir entry is not our problem
    return out


def flatten_numeric(data: Any, prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts/lists to ``dotted.path -> number`` leaves."""
    out: Dict[str, float] = {}
    if isinstance(data, dict):
        for k in sorted(data):
            out.update(flatten_numeric(data[k], f"{prefix}{k}."))
    elif isinstance(data, (list, tuple)):
        for i, v in enumerate(data):
            out.update(flatten_numeric(v, f"{prefix}{i}."))
    elif isinstance(data, bool):
        pass
    elif isinstance(data, (int, float)):
        out[prefix.rstrip(".")] = float(data)
    return out


def flatten_leaves(data: Any, prefix: str = "") -> Dict[str, Any]:
    """Flatten to ``dotted.path -> leaf`` keeping *every* leaf value.

    Unlike :func:`flatten_numeric` this keeps strings, booleans and
    nulls, so a diff can report keys that exist in only one run (or
    changed to a non-numeric value) instead of silently dropping them.
    """
    out: Dict[str, Any] = {}
    if isinstance(data, dict):
        for k in sorted(data):
            out.update(flatten_leaves(data[k], f"{prefix}{k}."))
    elif isinstance(data, (list, tuple)):
        for i, v in enumerate(data):
            out.update(flatten_leaves(v, f"{prefix}{i}."))
    else:
        out[prefix.rstrip(".")] = data
    return out


def trace_artifact(manifest: RunManifest) -> Optional[str]:
    """The run's archived trace path (plain or gzip), if it still exists."""
    for path in manifest.artifacts:
        if path.endswith((".jsonl", ".jsonl.gz")) and os.path.exists(path):
            return path
    return None


def diff_runs(a: RunManifest, b: RunManifest) -> str:
    """Human-readable diff: config changes, then numeric result deltas."""
    lines: List[str] = [
        f"run A: {a.run_id}  (config {a.config_hash}, git {a.git_sha})",
        f"run B: {b.run_id}  (config {b.config_hash}, git {b.git_sha})",
        "",
    ]
    keys = sorted(set(a.config) | set(b.config))
    changed: List[Tuple[str, Any, Any]] = []
    for k in keys:
        va, vb = a.config.get(k, "<absent>"), b.config.get(k, "<absent>")
        if va != vb:
            changed.append((k, va, vb))
    if changed:
        lines.append("config changes:")
        for k, va, vb in changed:
            lines.append(f"  {k}: {va} -> {vb}")
    else:
        lines.append("config: identical")
    lines.append("")

    fa, fb = flatten_numeric(a.results), flatten_numeric(b.results)
    la, lb = flatten_leaves(a.results), flatten_leaves(b.results)
    rows: List[str] = []
    for k in sorted(set(fa) & set(fb)):
        va, vb = fa[k], fb[k]
        if va == vb:
            continue
        delta = vb - va
        pct = f" ({delta / va * 100.0:+.1f}%)" if va else ""
        rows.append(f"  {k}: {va:g} -> {vb:g}  [{delta:+g}]{pct}")
    # Non-numeric leaves matter too: a result that changed from a number
    # to a string (or is textual in both runs) must not vanish from the
    # diff just because it cannot produce a delta.
    other: List[str] = []
    for k in sorted((set(la) & set(lb)) - (set(fa) & set(fb))):
        va, vb = la[k], lb[k]
        if va != vb:
            other.append(f"  {k}: {va!r} -> {vb!r}")
    # Added/removed keys come from *all* leaves, so a key whose value is
    # non-numeric in the run that has it is still reported.
    only_a = sorted(set(la) - set(lb))
    only_b = sorted(set(lb) - set(la))
    if rows:
        lines.append("result deltas (A -> B):")
        lines.extend(rows)
    else:
        lines.append("results: no differing shared numeric fields")
    if other:
        lines.append("non-numeric changes (A -> B):")
        lines.extend(other)
    if only_a:
        lines.append(f"removed (only in A): {', '.join(only_a[:8])}"
                     + (" ..." if len(only_a) > 8 else ""))
    if only_b:
        lines.append(f"added (only in B): {', '.join(only_b[:8])}"
                     + (" ..." if len(only_b) > 8 else ""))
    return "\n".join(lines)
