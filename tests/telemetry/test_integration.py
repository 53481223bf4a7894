"""End-to-end telemetry: one traced pipeline run, one coherent tree.

The tentpole guarantee: enabling the default tracer and running a
pipeline through the engine produces a single span tree covering
blocking, comparison (including the columnar kernels), clustering, and
the engine job wrapper — with cache hits visible both as span
annotations and as registry counters.
"""

from __future__ import annotations

import pytest

from repro.core.platform import FrostPlatform
from repro.datagen import make_person_benchmark
from repro.engine import ExperimentEngine, JobSpec
from repro.streaming import build_pipeline_and_index, build_session
from repro.telemetry import get_metrics, get_tracer

CONFIG = {
    "key": {"kind": "first_token", "attribute": "last_name"},
    "similarities": {
        "first_name": "jaro_winkler",
        "last_name": "jaro_winkler",
        "city": "jaro_winkler",
    },
    "threshold": 0.8,
}


@pytest.fixture
def telemetry():
    tracer = get_tracer()
    registry = get_metrics()
    tracer.reset()
    registry.reset()
    tracer.enable()
    yield tracer, registry
    tracer.disable()
    tracer.reset()
    registry.reset()


def _span_names(root):
    return [span.name for span in root.walk()]


def test_traced_engine_run_builds_one_coherent_tree(telemetry):
    tracer, registry = telemetry
    benchmark = make_person_benchmark(200, seed=11)
    platform = FrostPlatform()
    platform.add_dataset(benchmark.dataset)
    platform.add_gold(benchmark.dataset.name, benchmark.gold)
    pipeline, _ = build_pipeline_and_index(CONFIG)
    engine = ExperimentEngine(platform, max_workers=2)

    with tracer.span("test.run"):
        first = engine.submit(
            JobSpec(
                "pipeline",
                {"pipeline": pipeline, "dataset": benchmark.dataset.name},
                job_id="traced#0",
            )
        )
        engine.submit(
            JobSpec(
                "pipeline",
                {"pipeline": pipeline, "dataset": benchmark.dataset.name},
                job_id="traced#1",
                depends_on=(first,),
            )
        )
        results = engine.run()

    assert all(r.state.value == "succeeded" for r in results.values())
    assert results["traced#0"].cached is False
    assert results["traced#1"].cached is True

    (root,) = tracer.roots()
    names = _span_names(root)
    # one tree spans submission, the engine's worker thread, every
    # pipeline stage, and the comparison kernels
    assert root.name == "test.run"
    for stage in (
        "engine.job",
        "pipeline.run",
        "pipeline.prepare",
        "pipeline.candidates",
        "pipeline.similarity",
        "comparison.columnar",
        "pipeline.decision",
        "pipeline.clustering",
    ):
        assert stage in names, f"missing span {stage!r} in {sorted(set(names))}"
    assert names.count("comparison.columnar") == 1  # the uncached run
    assert names.count("engine.job") == 2

    jobs = [span for span in root.walk() if span.name == "engine.job"]
    cached_flags = sorted(span.annotations.get("cached") for span in jobs)
    assert cached_flags == [False, True]
    # the cached job must not re-run the pipeline
    cached_job = next(s for s in jobs if s.annotations.get("cached"))
    assert _span_names(cached_job) == [
        "engine.job", "engine.cache_key", "engine.after",
    ]

    # the kernel span carries the pair count it scored
    (kernels,) = [
        span for span in root.walk() if span.name == "comparison.columnar"
    ]
    candidates = next(
        span for span in root.walk() if span.name == "pipeline.candidates"
    )
    assert kernels.annotations["pairs"] == candidates.annotations["pairs"]

    values = registry.values()
    assert values["frost_engine_cache_hits_total"] == 1
    assert values["frost_engine_cache_misses_total"] == 1
    assert values["frost_blocking_candidates_total"] > 0
    assert values["frost_comparison_pairs_total"] == (
        candidates.annotations["pairs"]
    )
    assert values["frost_clustering_matches_total"] > 0
    assert values["frost_engine_job_seconds_count"] == 2


def test_engine_work_inside_a_job_is_traced(telemetry):
    tracer, _ = telemetry
    benchmark = make_person_benchmark(120, seed=5)
    dataset, gold = benchmark.dataset.name, benchmark.gold.name
    platform = FrostPlatform()
    platform.add_dataset(benchmark.dataset)
    platform.add_gold(dataset, benchmark.gold)
    pipeline, _ = build_pipeline_and_index(CONFIG)
    engine = ExperimentEngine(platform, max_workers=1)

    with tracer.span("test.run"):
        engine.run([JobSpec("pipeline", {"pipeline": pipeline, "dataset": dataset},
                            job_id="match")])
        engine.run([JobSpec("metrics", {"dataset": dataset, "gold": gold},
                            job_id="metrics")])

    (root,) = tracer.roots()
    jobs = {
        span.annotations["job"]: [child.name for child in span.children]
        for span in root.walk() if span.name == "engine.job"
    }
    assert jobs["match"] == [
        "engine.cache_key", "engine.pipeline", "engine.encode", "engine.after",
    ]
    assert jobs["metrics"] == ["engine.cache_key", "engine.metrics"]
    (compute,) = [span for span in root.walk() if span.name == "engine.pipeline"]
    assert [child.name for child in compute.children] == ["pipeline.run"]


def test_streaming_ingest_is_traced_and_counted(telemetry):
    tracer, registry = telemetry
    benchmark = make_person_benchmark(120, seed=5)
    records = list(benchmark.dataset)
    session = build_session(CONFIG, name="traced-stream")
    session.ingest(records[:100])
    session.ingest(records[100:])

    roots = tracer.roots()
    assert [root.name for root in roots] == ["stream.ingest", "stream.ingest"]
    assert roots[0].annotations["records"] == 100
    assert roots[1].annotations["records"] == 20
    assert "delta_candidates" in roots[1].annotations

    values = registry.values()
    assert values["frost_stream_batches_total"] == 2
    assert values["frost_stream_records_total"] == 120


def test_disabled_tracing_leaves_no_spans_behind():
    """Spans are still measured (a job has seconds), but no tree is kept."""
    import http.client

    from repro.server.api import FrostApi
    from repro.server.http import FrostHttpServer

    tracer = get_tracer()
    tracer.reset()
    assert tracer.enabled is False
    benchmark = make_person_benchmark(80, seed=3)
    pipeline, _ = build_pipeline_and_index(CONFIG)
    run = pipeline.run(benchmark.dataset)
    assert run.experiment is not None
    platform = FrostPlatform()
    platform.add_dataset(benchmark.dataset)
    job = ExperimentEngine(platform, max_workers=1).run([JobSpec(
        "pipeline", {"pipeline": pipeline, "dataset": benchmark.dataset.name},
        job_id="match",
    )])["match"]
    assert job.seconds > 0.0
    with FrostHttpServer(FrostApi(platform), port=0) as server:
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        connection.request("GET", "/healthz")
        assert connection.getresponse().status == 200
        connection.close()
    assert tracer.roots() == []
