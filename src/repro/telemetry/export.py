"""Telemetry exporters: JSON-lines dumps, Prometheus text, span trees.

Three consumers, three formats:

* **run directories** — :func:`write_spans_jsonl` /
  :func:`write_metrics_json` persist one run's spans and metric
  snapshot as plain files next to its other outputs;
* **scrapers** — :func:`render_prometheus` produces the text
  exposition format (version 0.0.4) served by ``GET /metrics``;
* **humans** — :func:`render_span_tree` draws the span hierarchy with
  each span's duration and self time, which is what
  ``python -m repro trace`` prints.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.spans import Span

__all__ = [
    "spans_to_rows",
    "rows_to_trees",
    "write_spans_jsonl",
    "write_metrics_json",
    "render_prometheus",
    "render_span_tree",
]


def spans_to_rows(roots: list[Span]) -> list[dict[str, object]]:
    """Flat depth-first JSON rows of the given span trees."""
    rows: list[dict[str, object]] = []
    for root in roots:
        for span in root.walk():
            rows.append(span.as_dict())
    return rows


def rows_to_trees(rows: list[dict]) -> list[Span]:
    """Rebuild :class:`Span` trees from flat rows (inverse of
    :func:`spans_to_rows`).

    Rows whose ``parent_id`` was never recorded — a crashed run, a
    partial export — are *orphans* and are promoted to roots rather
    than dropped, so a damaged trace still renders.
    """
    spans: dict[int, Span] = {}
    for row in rows:
        span = Span(str(row["name"]), None, dict(row.get("annotations") or {}))
        span.span_id = int(row["span_id"])
        span.started_at = float(row["started_at"])
        seconds = row.get("seconds")
        span.seconds = None if seconds is None else float(seconds)
        spans[span.span_id] = span
    roots: list[Span] = []
    for row in rows:
        span = spans[int(row["span_id"])]
        parent_id = row.get("parent_id")
        parent = spans.get(int(parent_id)) if parent_id is not None else None
        if parent is not None and parent is not span:
            span.parent_id = parent.span_id
            parent.children.append(span)
        else:
            roots.append(span)
    return roots


def write_spans_jsonl(path: str | Path, roots: list[Span]) -> Path:
    """Write one span per line (flat rows, ``parent_id`` links the tree)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for row in spans_to_rows(roots):
            handle.write(json.dumps(row, default=str) + "\n")
    return path


def write_metrics_json(path: str | Path, registry: MetricsRegistry) -> Path:
    """Write the registry's full snapshot as one JSON document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(registry.snapshot(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def _format_value(value: float) -> str:
    """Prometheus-style number formatting (integers without the dot)."""
    if value == math.inf:
        return "+Inf"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (0.0.4)."""
    lines: list[str] = []
    for instrument in registry.instruments():
        name = instrument.name
        # Every metric gets a HELP line (falling back to its own name)
        # so exposition parsers that require the full comment preamble
        # accept the endpoint.
        lines.append(
            f"# HELP {name} {_escape_help(instrument.help or name)}"
        )
        lines.append(f"# TYPE {name} {instrument.kind}")
        if isinstance(instrument, Histogram):
            for bound, cumulative in instrument.cumulative_counts():
                lines.append(
                    f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
                )
            lines.append(f"{name}_sum {_format_value(instrument.sum)}")
            lines.append(f"{name}_count {instrument.count}")
        else:
            lines.append(f"{name} {_format_value(instrument.value)}")
    return "\n".join(lines) + "\n"


def _annotation_text(span: Span) -> str:
    if not span.annotations:
        return ""
    parts = [f"{key}={value}" for key, value in span.annotations.items()]
    return "  [" + " ".join(parts) + "]"


def _tree_lines(span: Span, prefix: str, is_last: bool, is_root: bool) -> list[str]:
    if is_root:
        connector, child_prefix = "", ""
    else:
        connector = prefix + ("└─ " if is_last else "├─ ")
        child_prefix = prefix + ("   " if is_last else "│  ")
    seconds = (
        "?" if span.seconds is None
        else f"{span.seconds * 1000:9.2f} ms  self "
        f"{span.self_seconds() * 1000:.2f} ms"
    )
    lines = [f"{connector}{span.name}  {seconds}{_annotation_text(span)}"]
    for index, child in enumerate(span.children):
        lines.extend(
            _tree_lines(
                child, child_prefix, index == len(span.children) - 1, False
            )
        )
    return lines


def render_span_tree(root: Span) -> str:
    """An indented, human-readable tree of one trace with timings.

    Each finished span shows its duration and its self time
    (:meth:`~repro.telemetry.spans.Span.self_seconds`), the part no
    child span accounts for.
    """
    return "\n".join(_tree_lines(root, "", True, True))
