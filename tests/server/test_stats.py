"""Tests for GET /stats and serving-layer behavior over the HTTP API."""

import json
import urllib.request

import pytest

from repro.core import Experiment
from repro.core.platform import FrostPlatform
from repro.server.api import FrostApi
from repro.server.http import FrostHttpServer


@pytest.fixture
def platform(people_dataset, people_gold, people_experiment):
    platform = FrostPlatform()
    platform.add_dataset(people_dataset)
    platform.add_gold(people_dataset.name, people_gold)
    platform.add_experiment(people_dataset.name, people_experiment)
    return platform


@pytest.fixture
def api(platform):
    return FrostApi(platform)


class TestStatsRoute:
    def test_shape(self, api):
        stats = api.handle("/stats")
        assert stats["datasets"] == 1
        assert stats["durable"] is False
        assert stats["engine"] is None  # not created yet: /jobs untouched
        serving = stats["serving"]
        assert serving["requests"] == 0
        assert serving["computations"] == 0
        assert set(serving["cache"]) == {
            "entries", "max_entries", "hits", "misses", "puts", "evictions",
        }
        assert set(serving["coalescer"]) == {"leaders", "followers", "in_flight"}

    def test_counters_track_cached_reads(self, api):
        query = {"gold": "people-gold"}
        api.handle("/datasets/people/metrics", query)
        api.handle("/datasets/people/metrics", query)
        api.handle("/datasets/people/metrics", query)
        serving = api.handle("/stats")["serving"]
        assert serving["requests"] == 3
        assert serving["computations"] == 1
        assert serving["cache"]["hits"] == 2
        assert serving["cache"]["misses"] == 1

    def test_stats_itself_is_not_a_served_evaluation(self, api):
        before = api.handle("/stats")["serving"]["requests"]
        api.handle("/stats")
        assert api.handle("/stats")["serving"]["requests"] == before

    def test_engine_progress_appears_once_jobs_ran(self, api):
        api.handle(
            "/jobs",
            {"wait": "1"},
            method="POST",
            body={"kind": "metrics", "params": {
                "dataset": "people", "gold": "people-gold",
            }},
        )
        stats = api.handle("/stats")
        assert stats["engine"]["total"] == 1
        assert stats["engine"]["succeeded"] == 1

    def test_registry_write_invalidates_through_the_api(self, api, platform):
        query = {"gold": "people-gold"}
        before = api.handle("/datasets/people/metrics", query)
        platform.add_experiment(
            "people", Experiment([("p3", "p4", 0.9)], name="late-run")
        )
        after = api.handle("/datasets/people/metrics", query)
        assert set(before["metrics"]) == {"people-run"}
        assert set(after["metrics"]) == {"people-run", "late-run"}
        assert api.handle("/stats")["serving"]["computations"] == 2


class TestServingOverHttp:
    @pytest.fixture
    def server(self, api):
        with FrostHttpServer(api, port=0) as server:
            yield server

    def _fetch(self, server, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}{path}", timeout=5
        ) as response:
            return response.read()

    def test_repeated_requests_are_byte_identical_and_cached(self, server):
        path = "/datasets/people/diagram?exp=people-run&gold=people-gold&n=10"
        first = self._fetch(server, path)
        second = self._fetch(server, path)
        assert first == second
        stats = json.loads(self._fetch(server, "/stats"))
        assert stats["serving"]["computations"] == 1
        assert stats["serving"]["cache"]["hits"] == 1

    def test_concurrent_clients_served_consistently(self, server):
        import concurrent.futures

        path = "/datasets/people/metrics?gold=people-gold"
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            bodies = list(
                pool.map(lambda _: self._fetch(server, path), range(16))
            )
        assert len(set(bodies)) == 1
        stats = json.loads(self._fetch(server, "/stats"))
        assert stats["serving"]["requests"] == 16
        # every request beyond the coalesced cold computation(s) hit
        assert stats["serving"]["computations"] + (
            stats["serving"]["cache"]["hits"]
        ) >= 16
