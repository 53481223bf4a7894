"""End-to-end telemetry: span tracing, a metrics registry, exporters.

The measurement backbone of the platform (production graph/data systems
treat instrumentation as a first-class layer — every design decision in
the columnar-graph-DBMS line of work is driven by per-operator timing
breakdowns, and this package gives the reproduction the same substrate):

:mod:`repro.telemetry.spans`
    The span tracer and the one timing source (context-manager API,
    thread-local stack, explicit cross-thread context propagation).
    Spans are always measured and linked, so reported durations —
    stage seconds, job seconds, request latencies — are span seconds;
    enabling the tracer only keeps the finished trees for export.
:mod:`repro.telemetry.metrics`
    Named counters, gauges, and fixed-bucket histograms with
    thread-safe mutation and snapshot/reset semantics.  The engine
    cache, serving cache, request coalescer, storage connection pool,
    and matching stages all register here.
:mod:`repro.telemetry.export`
    JSON-lines span dumps, Prometheus text exposition (``GET
    /metrics``), and the human-readable span tree behind
    ``python -m repro trace``.
"""

from repro.telemetry.export import (
    render_prometheus,
    render_span_tree,
    rows_to_trees,
    spans_to_rows,
    write_metrics_json,
    write_spans_jsonl,
)
from repro.telemetry.logging import (
    JsonFormatter,
    RequestIdFilter,
    bind_request_id,
    configure_structured_logging,
    current_request_id,
    new_request_id,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
)
from repro.telemetry.profile import (
    NullProfiler,
    SamplingProfiler,
    maybe_profile,
)
from repro.telemetry.spans import (
    Span,
    SpanContext,
    Tracer,
    annotate,
    get_tracer,
    span,
)
from repro.telemetry.store import TELEMETRY_SCHEMA, TelemetryError, TelemetryStore

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "annotate",
    "get_tracer",
    "span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "render_prometheus",
    "render_span_tree",
    "rows_to_trees",
    "spans_to_rows",
    "write_metrics_json",
    "write_spans_jsonl",
    "JsonFormatter",
    "RequestIdFilter",
    "bind_request_id",
    "configure_structured_logging",
    "current_request_id",
    "new_request_id",
    "NullProfiler",
    "SamplingProfiler",
    "maybe_profile",
    "TELEMETRY_SCHEMA",
    "TelemetryError",
    "TelemetryStore",
]
