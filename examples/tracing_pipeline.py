#!/usr/bin/env python3
"""End-to-end tracing of a matching pipeline run.

The telemetry subsystem (:mod:`repro.telemetry`) records every pipeline
stage as a span — including the engine job that wraps it and the
columnar comparison kernels inside it — and counts cache hits,
candidate pairs, and compared pairs in a process-wide metrics registry.
This example:

1. enables the default tracer and runs a matching pipeline through the
   execution engine, twice (the second run hits the engine's result
   cache);
2. prints the resulting span tree — one line per stage, with wall
   time, self time and annotations like pair counts and
   ``cached=True``;
3. prints the metrics registry in Prometheus text format, the same
   document ``GET /metrics`` serves.

Run with::

    python examples/tracing_pipeline.py
"""

from __future__ import annotations

from repro.datagen import make_person_benchmark
from repro.engine import ExperimentEngine, JobSpec
from repro.core.platform import FrostPlatform
from repro.streaming import build_pipeline_and_index
from repro.telemetry import get_metrics, get_tracer, render_span_tree
from repro.telemetry.export import render_prometheus

CONFIG = {
    "key": {"kind": "first_token", "attribute": "last_name"},
    "similarities": {
        "first_name": "jaro_winkler",
        "last_name": "jaro_winkler",
        "city": "jaro_winkler",
    },
    "threshold": 0.8,
}


def main() -> None:
    benchmark = make_person_benchmark(300, seed=7)
    dataset, gold = benchmark.dataset, benchmark.gold

    platform = FrostPlatform()
    platform.add_dataset(dataset)
    platform.add_gold(dataset.name, gold)

    pipeline, _ = build_pipeline_and_index(CONFIG)

    tracer = get_tracer()
    registry = get_metrics()
    tracer.reset()
    registry.reset()
    tracer.enable()
    try:
        engine = ExperimentEngine(platform, max_workers=2)
        with tracer.span("example.trace", records=len(dataset)):
            # Two identical jobs, chained so the second one finds the
            # first one's result in the content-addressed cache.
            first = engine.submit(
                JobSpec(
                    "pipeline",
                    {"pipeline": pipeline, "dataset": dataset.name},
                    job_id="traced#0",
                )
            )
            engine.submit(
                JobSpec(
                    "pipeline",
                    {"pipeline": pipeline, "dataset": dataset.name},
                    job_id="traced#1",
                    depends_on=(first,),
                )
            )
            results = engine.run()
    finally:
        tracer.disable()

    for job_id, result in sorted(results.items()):
        print(f"{job_id}: {result.state.value} (cached={result.cached})")

    for root in tracer.roots():
        print()
        print(render_span_tree(root))

    print()
    print(render_prometheus(registry), end="")


if __name__ == "__main__":
    main()
