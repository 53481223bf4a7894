"""Spans are the one timing source.

Every span is measured and linked whether tracing is on or off, so the
durations the system reports — a pipeline's stage seconds and runtime,
an engine job's seconds, the HTTP access log and latency metrics, the
serving and graph-traversal histograms — are the seconds of a span, and
spans leave no untraced gaps: child spans account for the time of the
spans that enclose them.
"""

from __future__ import annotations

import gc
import http.client
import logging

import pytest

from repro.core.platform import FrostPlatform
from repro.datagen import make_person_benchmark
from repro.engine import ExperimentEngine, JobSpec
from repro.server.api import FrostApi
from repro.server.http import FrostHttpServer
from repro.storage.database import FrostStore
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
STAGES = {
    "pipeline.prepare": "preparation",
    "pipeline.candidates": "candidates",
    "pipeline.similarity": "similarity",
    "pipeline.decision": "decision",
    "pipeline.clustering": "clustering",
    "pipeline.fusion": "fusion",
}


@pytest.fixture
def tracer():
    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    yield tracer
    tracer.disable()
    tracer.reset()


def _platform(records: int, seed: int):
    benchmark = make_person_benchmark(records, seed=seed)
    platform = FrostPlatform()
    platform.add_dataset(benchmark.dataset)
    platform.add_gold(benchmark.dataset.name, benchmark.gold)
    return benchmark, platform


def _coverage(span) -> float:
    """The share of a span's seconds its children account for."""
    return 1.0 - span.self_seconds() / span.seconds


def _get(port: int, path: str) -> int:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


class TestReportedNumbersAreSpanNumbers:
    @pytest.mark.parametrize("fuse", [False, True])
    def test_stage_seconds_are_the_stage_spans(self, tracer, fuse):
        benchmark, _ = _platform(300, seed=3)
        pipeline, _ = build_pipeline_and_index(CONFIG)
        pipeline.fuse = fuse
        run = pipeline.run(benchmark.dataset)
        (root,) = tracer.roots()
        assert root.name == "pipeline.run"
        assert run.stage_seconds == {
            STAGES[stage.name]: stage.seconds for stage in root.children
        }
        assert list(run.stage_seconds) == [
            "preparation", "candidates", "similarity", "decision", "clustering",
        ] + (["fusion"] if fuse else [])
        assert run.experiment.metadata["runtime_seconds"] == sum(
            stage.seconds for stage in root.children
        )

    def test_job_seconds_are_the_job_span(self, tracer):
        benchmark, platform = _platform(200, seed=3)
        pipeline, _ = build_pipeline_and_index(CONFIG)
        engine = ExperimentEngine(platform, max_workers=2)
        dataset, gold = benchmark.dataset.name, benchmark.gold.name
        with tracer.span("test.run"):
            results = engine.run([
                JobSpec("pipeline", {"pipeline": pipeline, "dataset": dataset,
                                     "register_as": "m"}, job_id="match"),
                JobSpec("metrics", {"dataset": dataset, "gold": gold,
                                    "experiments": ["m"]},
                        job_id="metrics", depends_on=("match",)),
            ])
        (root,) = tracer.roots()
        spans = {
            span.annotations["job"]: span
            for span in root.walk() if span.name == "engine.job"
        }
        assert set(spans) == set(results) == {"match", "metrics"}
        for job_id, result in results.items():
            assert result.seconds == spans[job_id].seconds > 0.0

    def test_failed_job_seconds_are_the_job_span(self, tracer):
        _, platform = _platform(50, seed=3)
        engine = ExperimentEngine(platform, max_workers=1)
        with tracer.span("test.run"):
            result = engine.run([
                JobSpec("metrics", {"dataset": "ghost", "gold": "ghost"},
                        job_id="ghost"),
            ])["ghost"]
        (root,) = tracer.roots()
        (job,) = [span for span in root.walk() if span.name == "engine.job"]
        assert result.state.value == "failed"
        assert "error" in job.annotations
        assert result.seconds == job.seconds > 0.0

    def test_access_log_duration_is_the_request_span(
        self, tracer, people_dataset, people_gold, caplog
    ):
        platform = FrostPlatform()
        platform.add_dataset(people_dataset)
        platform.add_gold(people_dataset.name, people_gold)
        histogram = get_metrics().histogram(
            "frost_http_datasets_request_seconds"
        )
        before = histogram.sum
        with caplog.at_level(logging.DEBUG, logger="repro.server.access"):
            with FrostHttpServer(FrostApi(platform), port=0) as server:
                assert _get(server.port, "/datasets") == 200
        (request,) = [
            root for root in tracer.roots() if root.name == "http.request"
        ]
        (logged,) = [
            record for record in caplog.records
            if record.name == "repro.server.access"
        ]
        assert logged.duration_ms == round(request.seconds * 1000.0, 3)
        assert histogram.sum - before == pytest.approx(request.seconds)

    def test_serving_latency_is_the_fetch_span(self, tracer):
        from repro.serving import ServingLayer

        benchmark, platform = _platform(60, seed=3)
        layer = ServingLayer(platform)
        histogram = get_metrics().histogram("frost_serving_request_seconds")
        before = histogram.sum, histogram.count
        layer.profile_payload(benchmark.dataset.name)
        layer.profile_payload(benchmark.dataset.name)  # a cache hit
        fetches = [
            root for root in tracer.roots() if root.name == "serving.fetch"
        ]
        assert len(fetches) == 2
        assert histogram.count - before[1] == 2
        assert histogram.sum - before[0] == pytest.approx(
            sum(fetch.seconds for fetch in fetches)
        )

    def test_traversal_seconds_are_the_query_span(self, tracer):
        from repro.graph.model import MatchGraph

        graph = MatchGraph("g", 0.5)
        for native in ("a", "b", "c"):
            graph.add_node(native)
        graph.add_edge(0, 1, 0.9)
        graph.add_edge(1, 2, 0.8)
        histogram = get_metrics().histogram("frost_graph_traversal_seconds")
        before = histogram.sum
        graph.neighbors("a", k=2)
        (query,) = tracer.roots()
        assert query.name == "graph.query"
        assert query.annotations["kind"] == "neighbors"
        assert histogram.sum - before == pytest.approx(query.seconds)


class TestFinishedJobs:
    def test_a_finished_job_holds_no_span(self):
        _, platform = _platform(50, seed=3)
        pipeline, _ = build_pipeline_and_index(CONFIG)
        engine = ExperimentEngine(platform, max_workers=1)
        with get_tracer().span("submitter"):
            engine.submit(JobSpec(
                "pipeline",
                {"pipeline": pipeline, "dataset": platform.dataset_names()[0]},
                job_id="match",
            ))
            engine.submit(JobSpec("metrics", {"dataset": "ghost", "gold": "x"},
                                  job_id="ghost"))
            engine.submit(JobSpec("metrics", {"dataset": "ghost", "gold": "x"},
                                  job_id="skipped", depends_on=("ghost",)))
            engine.submit(JobSpec("metrics", {"dataset": "ghost", "gold": "x"},
                                  job_id="cancelled"))
            assert engine.cancel("cancelled")
        engine.run()
        states = {job: engine.result(job).state.value for job in engine._entries}
        assert states == {
            "match": "succeeded", "ghost": "failed",
            "skipped": "skipped", "cancelled": "cancelled",
        }
        assert all(entry.ctx is None for entry in engine._entries.values())


class TestSpansCoverWhatTheyEnclose:
    """Child spans account for the wall time of the spans above them.

    Spans read wall time, so a pause in the few statements between two
    child spans — a scheduler stall, or a full garbage collection that
    an allocation there triggers — counts as self time.  Each test
    starts from a collected heap, as every perfbench pass does, and
    ingests 300-record batches, so one such pause stays a small share
    of a batch.
    """

    def test_pipeline_and_engine_job_spans(self, tracer):
        benchmark, platform = _platform(2000, seed=7)
        dataset, gold = benchmark.dataset.name, benchmark.gold.name
        pipeline, _ = build_pipeline_and_index(CONFIG)
        engine = ExperimentEngine(platform, max_workers=1)
        gc.collect()
        with tracer.span("test.run"):
            engine.run([JobSpec(
                "pipeline",
                {"pipeline": pipeline, "dataset": dataset, "register_as": "m"},
                job_id="match",
            )])
            engine.run([
                JobSpec("metrics", {"dataset": dataset, "gold": gold,
                                    "experiments": ["m"]}, job_id="metrics"),
                JobSpec("diagram", {"dataset": dataset, "gold": gold,
                                    "experiment": "m", "samples": 50},
                        job_id="diagram"),
            ])
        (root,) = tracer.roots()
        covered = {}
        for span in root.walk():
            if span.name in ("pipeline.run", "pipeline.similarity"):
                covered[span.name] = _coverage(span)
            elif span.name == "engine.job":
                covered[span.annotations["kind"]] = _coverage(span)
        assert set(covered) == {
            "pipeline.run", "pipeline.similarity",
            "pipeline", "metrics", "diagram",
        }
        assert all(share >= 0.95 for share in covered.values()), covered

    def test_stream_ingest_spans(self, tracer, tmp_path):
        benchmark = make_person_benchmark(3000, seed=7)
        records = list(benchmark.dataset)
        gc.collect()
        with FrostStore(tmp_path / "stream.db") as store:
            session = build_session(CONFIG, store=store, name="covered")
            for start in range(0, len(records), 300):
                session.ingest(records[start:start + 300])
        ingests = [root for root in tracer.roots() if root.name == "stream.ingest"]
        assert len(ingests) == 10
        children = {child.name for child in ingests[-1].children}
        assert {"stream.delta_index", "stream.persist"} <= children
        covered = [_coverage(span) for span in ingests]
        assert min(covered) >= 0.90, covered
