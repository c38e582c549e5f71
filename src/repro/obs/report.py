"""Self-contained run reports in markdown.

:func:`render_run_report` assembles the analysis layer's renderers into
one document: run identity + configuration, the critical-path phase
waterfall, per-component blame and the dominant component with its share
of the path, the phase timeline, sparkline tables of every sampled
telemetry series, and the final metrics summary.  It reads the trace
alone — a live tracer or a recorded run directory's ``trace.jsonl.gz``
re-read — plus the ``metrics.json`` summary, so both render the same
sections, units included, and ``repro report RUN`` needs nothing but the
runs directory.

Everything degrades gracefully: a trace with no spans skips the
waterfall instead of failing, a run without telemetry skips the series
tables — the report renders whatever evidence exists.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.critical_path import (
    build_span_dag,
    critical_path,
    dominant_component,
    render_blame,
    render_waterfall,
)
from ..analysis.timeline import extract_phases, render_timeline
from ..simulate.telemetry import KERNEL_SERIES_UNITS

__all__ = ["sparkline", "render_run_report"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Unicode block sparkline of ``values``, resampled to ``width``."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        # Bucket-max resampling: peaks survive, which is what you look
        # for in a queue-depth or utilization strip.
        step = len(vals) / width
        vals = [max(vals[int(i * step):max(int((i + 1) * step),
                                           int(i * step) + 1)])
                for i in range(width)]
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _BLOCKS[0] * len(vals)
    return "".join(_BLOCKS[min(len(_BLOCKS) - 1,
                               int((v - lo) / span * len(_BLOCKS)))]
                   for v in vals)


def _code(text: str) -> List[str]:
    return ["```", text, "```", ""]


def _config_section(manifest) -> List[str]:
    lines = ["## Run", ""]
    rows = [("run id", manifest.run_id), ("command", manifest.command),
            ("created (UTC)", manifest.created),
            ("git sha", manifest.git_sha),
            ("config hash", manifest.config_hash),
            ("seed", manifest.seed),
            ("wall seconds", f"{manifest.wall_seconds:.2f}")]
    lines.append("| field | value |")
    lines.append("| --- | --- |")
    for k, v in rows:
        lines.append(f"| {k} | `{v}` |")
    lines.append("")
    if manifest.config:
        lines.append("## Configuration")
        lines.append("")
        lines.append("| option | value |")
        lines.append("| --- | --- |")
        for k in sorted(manifest.config):
            lines.append(f"| {k} | `{manifest.config[k]}` |")
        lines.append("")
    return lines


def _critical_path_sections(dag) -> List[str]:
    lines: List[str] = []
    try:
        cp = critical_path(dag)
    except ValueError:
        return ["_(no spans in trace — waterfall and blame skipped)_", ""]
    lines.append("## Phase waterfall")
    lines.append("")
    lines.extend(_code(render_waterfall(cp)))
    lines.append("## Critical-path blame")
    lines.append("")
    lines.extend(_code(render_blame(cp.blame())))
    try:
        comp, sec = dominant_component(cp)
        lines.append(f"Dominant component: **{comp}** ({sec:.3f}s, "
                     f"{sec / max(cp.total, 1e-12):.0%} of the critical path).")
        lines.append("")
    except ValueError:
        pass
    return lines


def _timeline_section(dag) -> List[str]:
    try:
        phases = extract_phases(dag, allow_open=True)
    except KeyError:
        return []
    if not phases:
        return []
    return ["## Timeline", ""] + _code(
        render_timeline(phases, title="phases"))


def _telemetry_section(series: Dict[str, List[Tuple[float, float]]],
                       units: Dict[str, str]) -> List[str]:
    if not series:
        return []
    lines = ["## Telemetry time-series", "",
             f"{len(series)} sampled series.", "",
             "| series | unit | n | min | mean | max | last | trend |",
             "| --- | --- | ---: | ---: | ---: | ---: | ---: | --- |"]
    for name in sorted(series):
        pts = series[name]
        vals = [v for _, v in pts]
        if not vals:
            continue
        mean = sum(vals) / len(vals)
        lines.append(
            f"| `{name}` | {units.get(name, '')} | {len(vals)} "
            f"| {min(vals):g} | {mean:.4g} | {max(vals):g} "
            f"| {vals[-1]:g} | `{sparkline(vals)}` |")
    lines.append("")
    return lines


def _metrics_section(summary: Dict[str, Any]) -> List[str]:
    if not summary:
        return []
    lines = ["## Metrics summary", "",
             "| instrument | kind | value | unit |",
             "| --- | --- | ---: | --- |"]
    for name in sorted(summary):
        d = summary[name]
        value = d.get("value", d.get("mean", ""))
        if isinstance(value, float):
            value = f"{value:.6g}"
        lines.append(f"| `{name}` | {d.get('kind', '?')} | {value} "
                     f"| {d.get('unit', '')} |")
    lines.append("")
    return lines


def render_run_report(manifest=None, records=None, telemetry=None,
                      metrics_summary: Optional[Dict[str, Any]] = None,
                      title: str = "Run report") -> str:
    """Assemble the markdown report from whatever evidence is present.

    ``records`` is an iterable of :class:`TraceRecord` (live tracer or
    ``read_jsonl`` reload); ``telemetry`` is a ``{name: [(t, v), ...]}``
    mapping as returned by
    :func:`repro.analysis.trace_export.telemetry_series`, whose units come
    from the kernel series table and from ``metrics_summary``.
    """
    lines: List[str] = [f"# {title}", ""]
    if manifest is not None:
        lines.extend(_config_section(manifest))

    recs = list(records) if records is not None else []
    if recs:
        dag = build_span_dag(recs)
        lines.extend(_critical_path_sections(dag))
        lines.extend(_timeline_section(dag))

    units = dict(KERNEL_SERIES_UNITS)
    units.update((name, d["unit"]) for name, d
                 in (metrics_summary or {}).items() if "unit" in d)
    lines.extend(_telemetry_section(telemetry or {}, units))
    lines.extend(_metrics_section(metrics_summary or {}))

    if manifest is not None and manifest.results:
        from .registry import flatten_numeric
        flat = flatten_numeric(manifest.results)
        if flat:
            lines.append("## Recorded results")
            lines.append("")
            lines.append("| metric | value |")
            lines.append("| --- | ---: |")
            for k in sorted(flat):
                lines.append(f"| `{k}` | {flat[k]:g} |")
            lines.append("")
    if manifest is not None and manifest.artifacts:
        lines.append("## Artifacts")
        lines.append("")
        for a in manifest.artifacts:
            lines.append(f"- `{a}`")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
