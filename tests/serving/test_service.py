"""Tests for the ServingLayer facade: read-through, coalescing, cache keys."""

import threading

import pytest

from repro.core import Experiment, GoldStandard
from repro.core.platform import FrostPlatform
from repro.serving import ServingLayer, platform_from_store
from repro.storage.database import FrostStore
from repro.streaming import build_session

from tests.graph.test_build import CONFIG, records


@pytest.fixture
def platform(people_dataset, people_gold, people_experiment):
    platform = FrostPlatform()
    platform.add_dataset(people_dataset)
    platform.add_gold(people_dataset.name, people_gold)
    platform.add_experiment(people_dataset.name, people_experiment)
    return platform


@pytest.fixture
def serving(platform):
    return ServingLayer(platform, max_entries=32)


class TestReadThrough:
    def test_metrics_payload_matches_platform(self, serving, platform):
        payload = serving.metrics_payload("people", "people-gold", None, ["f1"])
        assert payload == {
            "gold": "people-gold",
            "metrics": platform.metrics_table(
                "people", "people-gold", None, ["f1"]
            ),
        }

    def test_second_identical_request_hits_the_cache(self, serving):
        first = serving.metrics_payload("people", "people-gold", None, None)
        second = serving.metrics_payload("people", "people-gold", None, None)
        assert first is second  # served from the cache, not recomputed
        stats = serving.stats()
        assert stats["requests"] == 2
        assert stats["computations"] == 1
        assert stats["cache"]["hits"] == 1

    def test_distinct_configs_compute_separately(self, serving):
        serving.diagram_payload("people", "people-run", "people-gold", 10)
        serving.diagram_payload("people", "people-run", "people-gold", 20)
        assert serving.stats()["computations"] == 2

    def test_all_served_kinds_cache(self, serving):
        serving.profile_payload("people")
        serving.profile_payload("people")
        serving.categorize_payload("people", "people-run", "people-gold", None)
        serving.categorize_payload("people", "people-run", "people-gold", None)
        serving.timeline_payload("people", "people-run", "people-gold", 1.0, 0.5)
        serving.timeline_payload("people", "people-run", "people-gold", 1.0, 0.5)
        serving.intersection_payload("people", ["people-run"], [])
        serving.intersection_payload("people", ["people-run"], [])
        stats = serving.stats()
        assert stats["computations"] == 4
        assert stats["cache"]["hits"] == 4

    @pytest.mark.parametrize(
        "fetch, field, names",
        [
            pytest.param(
                lambda serving, name: serving.profile_payload(name),
                "name", ("one", "two"), id="profile-dataset",
            ),
            pytest.param(
                lambda serving, name: serving.diagram_payload(
                    "one", name, "gold-a", 5
                ),
                "experiment", ("run-a", "run-b"), id="diagram-experiment",
            ),
            pytest.param(
                lambda serving, name: serving.diagram_payload(
                    "one", "run-a", name, 5
                ),
                "gold", ("gold-a", "gold-b"), id="diagram-gold",
            ),
            pytest.param(
                lambda serving, name: serving.metrics_payload(
                    "one", name, None, None
                ),
                "gold", ("gold-a", "gold-b"), id="metrics-gold",
            ),
        ],
    )
    def test_equal_contents_under_another_name_serve_that_name(
        self, twin_platform, fetch, field, names
    ):
        serving = ServingLayer(twin_platform)
        for name in names:
            assert fetch(serving, name)[field] == name
        assert serving.stats()["computations"] == len(names)

    def test_unknown_names_raise_before_caching(self, serving):
        with pytest.raises(KeyError):
            serving.metrics_payload("ghost", "people-gold", None, None)
        with pytest.raises(KeyError):
            serving.metrics_payload("people", "ghost", None, None)
        assert serving.stats()["computations"] == 0


class TestInvalidation:
    def test_registry_write_invalidates_served_payloads(self, serving, platform):
        before = serving.metrics_payload("people", "people-gold", None, None)
        assert set(before["metrics"]) == {"people-run"}
        platform.add_experiment(
            "people", Experiment([("p3", "p4", 0.9)], name="late-run")
        )
        after = serving.metrics_payload("people", "people-gold", None, None)
        assert set(after["metrics"]) == {"people-run", "late-run"}

    def test_write_to_another_dataset_keeps_entries(
        self, serving, platform, abcd_dataset, abcd_gold
    ):
        platform.add_dataset(abcd_dataset)
        serving.metrics_payload("people", "people-gold", None, None)
        platform.add_gold("abcd", abcd_gold)
        assert serving.stats()["cache"]["entries"] == 1
        serving.metrics_payload("people", "people-gold", None, None)
        assert serving.stats()["computations"] == 1  # still cached

    def test_new_gold_registration_keeps_the_table_cached(
        self, serving, platform
    ):
        first = serving.metrics_payload("people", "people-gold", None, None)
        platform.add_gold(
            "people",
            GoldStandard.from_pairs([("p1", "p2")], name="gold-2"),
        )
        again = serving.metrics_payload("people", "people-gold", None, None)
        assert again is first  # the table reads nothing the write changed
        assert serving.stats()["computations"] == 1
        assert again == {
            "gold": "people-gold",
            "metrics": platform.metrics_table("people", "people-gold"),
        }

    def test_an_experiment_taking_a_gold_name_is_served(self, serving, platform):
        platform.add_gold(
            "people", GoldStandard.from_pairs([("p3", "p4")], name="late")
        )
        before = serving.intersection_payload("people", ["late"], [])
        assert before["pairs"] == [["p3", "p4"]]
        # an experiment shadows a gold of the same name
        platform.add_experiment(
            "people", Experiment([("p5", "p6", 0.9)], name="late")
        )
        after = serving.intersection_payload("people", ["late"], [])
        assert after["pairs"] == [["p5", "p6"]]

    def test_graph_batch_written_through_another_store_is_served(
        self, tmp_path
    ):
        path = tmp_path / "graph.db"
        everyone = records()
        with FrostStore(path) as reader, FrostStore(path) as writer:
            session = build_session(CONFIG, store=writer, name="s")
            serving = ServingLayer(FrostPlatform())
            serving.attach_store(reader)
            session.ingest(everyone[:4])
            assert serving.graph_summary_payload("s")["node_count"] == 4
            session.ingest(everyone[4:6])
            assert serving.graph_summary_payload("s")["node_count"] == 6
            assert serving.stats()["computations"] == 2


class TestCoalescing:
    def test_concurrent_identical_requests_compute_once(
        self, serving, platform, monkeypatch
    ):
        release = threading.Event()
        computations = []
        original = platform.metrics_table

        def slow_metrics_table(*args, **kwargs):
            computations.append(1)
            assert release.wait(timeout=10)
            return original(*args, **kwargs)

        monkeypatch.setattr(platform, "metrics_table", slow_metrics_table)
        results = []
        barrier = threading.Barrier(6)

        def client():
            barrier.wait(timeout=10)
            results.append(
                serving.metrics_payload("people", "people-gold", None, None)
            )

        threads = [threading.Thread(target=client) for _ in range(6)]
        for thread in threads:
            thread.start()
        # all six are either queued on the flight or inside compute
        for _ in range(1000):
            if serving.coalescer.stats()["followers"] >= 1:
                break
            threading.Event().wait(0.001)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert len(results) == 6
        assert all(result == results[0] for result in results)
        assert computations == [1]
        stats = serving.stats()
        assert stats["requests"] == 6
        assert stats["computations"] == 1


class TestBootstrap:
    def test_platform_from_store_round_trips(
        self, people_dataset, people_gold, people_experiment, tmp_path
    ):
        with FrostStore(tmp_path / "serve.db") as store:
            store.save_dataset(people_dataset)
            store.save_gold_standard(people_dataset.name, people_gold)
            store.save_experiment(people_dataset.name, people_experiment)
            platform = platform_from_store(store)
        assert platform.dataset_names() == ["people"]
        assert platform.experiment_names("people") == ["people-run"]
        assert platform.gold_names("people") == ["people-gold"]
        direct = FrostPlatform()
        direct.add_dataset(people_dataset)
        direct.add_gold(people_dataset.name, people_gold)
        direct.add_experiment(people_dataset.name, people_experiment)
        assert platform.metrics_table("people", "people-gold") == (
            direct.metrics_table("people", "people-gold")
        )

    def test_empty_store_yields_empty_platform(self, tmp_path):
        with FrostStore(tmp_path / "empty.db") as store:
            platform = platform_from_store(store)
        assert platform.dataset_names() == []
