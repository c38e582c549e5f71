"""OpenMetrics text exposition of a run's final metric state.

A third serialization next to ``metrics.json`` and the Chrome counter
tracks: the `OpenMetrics text format
<https://prometheus.io/docs/specifications/om/open_metrics_spec/>`_ that
Prometheus-family scrapers ingest directly.  The snapshot is
end-of-run state, not a live scrape endpoint — it exists so a fleet of
archived runs can be loaded into any off-the-shelf metrics backend
without bespoke parsing.

* counters -> ``<name>_total`` with ``# TYPE ... counter``;
* gauges -> plain samples with ``# TYPE ... gauge``;
* histograms -> ``_bucket{le="..."}`` cumulative series plus ``_count``
  and ``_sum``;
* telemetry probe series (optional) -> gauges named
  ``telemetry_<series>`` carrying the *last* sampled value, with the
  sample count as a companion ``_samples`` gauge.

Instrument names are sanitized to the ``[a-zA-Z_][a-zA-Z0-9_]*`` charset
(dots and dashes become underscores).  Label *values* are escaped per
the exposition format (backslash, double quote and newline become
``\\\\``, ``\\"`` and ``\\n``), so a run id or app name containing any
of those survives the round trip.  :func:`parse_openmetrics` is the
matching validator: the CI ``report-smoke`` job round-trips every
snapshot through it, so the emitter cannot silently drift off-spec.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .trace_export import atomic_write

__all__ = ["openmetrics_snapshot", "write_openmetrics", "parse_openmetrics",
           "escape_label_value", "unescape_label_value", "format_labels"]

_NAME_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")
_LABEL_NAME_OK = _NAME_OK
_VALUE_OK = re.compile(r"(-?[0-9.eE+-]+|[+-]?Inf|NaN)\Z")


def _metric_name(name: str, suffix: str = "") -> str:
    safe = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not re.match(r"[a-zA-Z_]", safe):
        safe = "_" + safe
    return safe + suffix


def _fmt(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    return repr(float(v))


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\`` then ``"``
    then newline — the three characters that would corrupt the line."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def unescape_label_value(value: str) -> str:
    """Inverse of :func:`escape_label_value` (strict left-to-right scan)."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            else:                      # \\ and \" unescape to themselves;
                out.append(nxt)        # anything else is passed through.
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def format_labels(labels: Optional[Dict[str, str]]) -> str:
    """Render ``{name: value}`` as ``{name="escaped value",...}``.

    Label names are sanitized like metric names; values are escaped, not
    sanitized — arbitrary text is legal inside the quotes.
    """
    if not labels:
        return ""
    parts = [f'{_metric_name(str(k))}="{escape_label_value(str(v))}"'
             for k, v in sorted(labels.items())]
    return "{" + ",".join(parts) + "}"


def openmetrics_snapshot(metrics=None, telemetry=None,
                         labels: Optional[Dict[str, str]] = None) -> str:
    """Render the registry (and optional probe) as OpenMetrics text.

    ``labels`` (e.g. ``{"run_id": ...}``) are attached to every sample
    line, so snapshots from many archived runs can be loaded into one
    backend and still be told apart.
    """
    lines: List[str] = []
    label_str = format_labels(labels)

    def header(name: str, mtype: str, unit: str, help_text: str) -> None:
        lines.append(f"# TYPE {name} {mtype}")
        if unit:
            lines.append(f"# UNIT {name} {_metric_name(unit)}")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")

    def label_with(extra_key: str, extra_val: str) -> str:
        merged = dict(labels or {})
        merged[extra_key] = extra_val
        return format_labels(merged)

    if metrics is not None:
        for raw_name in metrics.names():
            inst = metrics.get(raw_name)
            if inst.kind == "counter":
                name = _metric_name(raw_name)
                header(name, "counter", inst.unit,
                       inst.help or f"counter {raw_name}")
                lines.append(f"{name}_total{label_str} {_fmt(inst.value)}")
            elif inst.kind == "gauge":
                name = _metric_name(raw_name)
                header(name, "gauge", inst.unit,
                       inst.help or f"gauge {raw_name}")
                lines.append(f"{name}{label_str} {_fmt(inst.value)}")
            elif inst.kind == "histogram":
                name = _metric_name(raw_name)
                header(name, "histogram", inst.unit,
                       inst.help or f"histogram {raw_name}")
                cum = 0
                for bound, n in zip(list(inst.bounds) + [float("inf")],
                                    inst.bucket_counts):
                    cum += n
                    le = "+Inf" if bound == float("inf") else _fmt(bound)
                    lines.append(f"{name}_bucket"
                                 f"{label_with('le', le)} {cum}")
                lines.append(f"{name}_count{label_str} {inst.count}")
                lines.append(f"{name}_sum{label_str} {_fmt(inst.total)}")
    if telemetry is not None:
        for series in telemetry:
            name = _metric_name(f"telemetry_{series.name}")
            stats = series.stats()
            header(name, "gauge", series.unit,
                   f"last probe sample of time-series {series.name}")
            lines.append(f"{name}{label_str} {_fmt(stats['last'])}")
            lines.append(f"# TYPE {name}_samples gauge")
            lines.append(f"{name}_samples{label_str} {int(stats['n'])}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(path: str, metrics=None, telemetry=None,
                      labels: Optional[Dict[str, str]] = None) -> int:
    """Write the snapshot atomically; returns the number of sample lines."""
    text = openmetrics_snapshot(metrics=metrics, telemetry=telemetry,
                                labels=labels)
    with atomic_write(path) as fh:
        fh.write(text)
    return sum(1 for line in text.splitlines()
               if line and not line.startswith("#"))


def _parse_labels(text: str, lineno: int) -> Tuple[Dict[str, str], int]:
    """Parse the ``{...}`` label block with escape-aware scanning.

    Returns ``(labels, index one past the closing brace)``.  A regex
    cannot do this: an escaped quote or a ``}`` inside a quoted value
    must not terminate the block.
    """
    labels: Dict[str, str] = {}
    i = 1                              # past the opening '{'
    while i < len(text):
        if text[i] == "}":
            return labels, i + 1
        m = re.match(r"[a-zA-Z_][a-zA-Z0-9_]*", text[i:])
        if m is None:
            raise ValueError(f"line {lineno}: bad label name at "
                             f"{text[i:i + 12]!r}")
        name = m.group(0)
        i += len(name)
        if not text.startswith('="', i):
            raise ValueError(f"line {lineno}: label {name!r} missing "
                             f'="..." value')
        i += 2
        raw: List[str] = []
        while i < len(text) and text[i] != '"':
            if text[i] == "\\":
                if i + 1 >= len(text):
                    raise ValueError(f"line {lineno}: dangling escape in "
                                     f"label {name!r}")
                raw.append(text[i:i + 2])
                i += 2
            else:
                raw.append(text[i])
                i += 1
        if i >= len(text):
            raise ValueError(f"line {lineno}: unterminated label value "
                             f"for {name!r}")
        i += 1                         # past the closing '"'
        labels[name] = unescape_label_value("".join(raw))
        if i < len(text) and text[i] == ",":
            i += 1
    raise ValueError(f"line {lineno}: unterminated label block")


def _split_sample(line: str, lineno: int
                  ) -> Tuple[str, Optional[Dict[str, str]], float]:
    m = re.match(r"[a-zA-Z_][a-zA-Z0-9_]*", line)
    if m is None:
        raise ValueError(f"line {lineno}: malformed sample {line!r}")
    name = m.group(0)
    rest = line[len(name):]
    labels: Optional[Dict[str, str]] = None
    if rest.startswith("{"):
        labels, end = _parse_labels(rest, lineno)
        rest = rest[end:]
    if not rest.startswith(" "):
        raise ValueError(f"line {lineno}: malformed sample {line!r}")
    value = rest.strip()
    if not _VALUE_OK.match(value):
        raise ValueError(f"line {lineno}: malformed sample {line!r}")
    return name, labels, float(value)


def parse_openmetrics(text: str) -> Dict[str, List[Tuple[Optional[Dict[str,
                                                                       str]],
                                                         float]]]:
    """Strict-enough parser for our own exposition: returns
    ``{sample name: [(labels dict or None, value), ...]}``.

    Label values are unescaped, so whatever went into
    :func:`escape_label_value` comes back byte-identical.  Raises
    ``ValueError`` on a malformed line, a missing ``# EOF`` terminator,
    a sample whose family has no ``# TYPE``, an invalid metric name, or
    a broken label block — the failure modes an emitter bug would
    produce.
    """
    samples: Dict[str, List[Tuple[Optional[Dict[str, str]], float]]] = {}
    typed: set = set()
    body = text.splitlines()
    if not body or body[-1] != "# EOF":
        raise ValueError("snapshot does not end with '# EOF'")
    for i, line in enumerate(body[:-1], start=1):
        if not line.strip():
            raise ValueError(f"line {i}: blank line inside exposition")
        if line.startswith("#"):
            parts = line.split()
            if len(parts) < 3 or parts[1] not in ("TYPE", "UNIT", "HELP"):
                raise ValueError(f"line {i}: malformed comment {line!r}")
            if parts[1] == "TYPE":
                if not _NAME_OK.match(parts[2]):
                    raise ValueError(f"line {i}: bad metric name {parts[2]!r}")
                typed.add(parts[2])
            continue
        name, labels, value = _split_sample(line, i)
        family = re.sub(r"_(total|count|sum|bucket|samples)\Z", "", name)
        if family not in typed and name not in typed:
            raise ValueError(f"line {i}: sample {name!r} has no # TYPE")
        samples.setdefault(name, []).append((labels, value))
    return samples
