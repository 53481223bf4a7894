"""Graph persistence: builds, incremental updates, schema migration.

The acceptance invariant lives here: streaming incremental graph
updates must produce a graph identical to a from-scratch rebuild after
EVERY batch — the same stored node and edge rows, and the same
component memberships in the live graph and in one loaded from the
store — hypothesis-tested over randomized batch splits.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import Dataset, Record
from repro.graph import (
    GraphUpdater,
    build_graph_from_experiment,
    build_graph_from_run,
    load_graph,
)
from repro.storage.database import SCHEMA_VERSION, FrostStore, StorageError
from repro.streaming import StreamError, build_pipeline_and_index, build_session

CONFIG = {
    "key": {"kind": "first_token", "attribute": "name"},
    "similarities": {"name": "jaro_winkler", "zip": "exact"},
    "threshold": 0.6,
    "graph": True,
}

PEOPLE = [
    ("p01", "anna smith", "11111"),
    ("p02", "anna smyth", "11111"),
    ("p03", "bob jones", "22222"),
    ("p04", "bob jones", "22222"),
    ("p05", "carol white", "33333"),
    ("p06", "anna smith", "99999"),
    ("p07", "carol whyte", "33333"),
    ("p08", "dave green", "44444"),
    ("p09", "bob jonas", "22222"),
    ("p10", "eve black", "55555"),
]


def person(row) -> Record:
    native, name, zipcode = row
    return Record(native, {"name": name, "zip": zipcode})


def records() -> list[Record]:
    return [person(row) for row in PEOPLE]


def graph_rows(store: FrostStore, name: str, live) -> tuple:
    """Stored node and edge rows plus component memberships.

    The memberships of the live graph ``live`` must equal those of the
    graph loaded from the store.
    """
    document = store.load_graph(name)
    memberships = load_graph(store, name).component_nodes()
    assert live.component_nodes() == memberships
    return (document["nodes"], document["edges"], memberships)


def session_rows(session) -> tuple:
    return graph_rows(session._store, session.name, session._graph.graph)


def rebuild_rows(prefix: list[Record]) -> tuple:
    """From-scratch batch-pipeline graph over ``prefix``, as
    :func:`graph_rows`."""
    pipeline, _ = build_pipeline_and_index(CONFIG)
    run = pipeline.run(Dataset(prefix, name="rebuild"))
    store = FrostStore(":memory:")
    live = build_graph_from_run(store, "rebuild", run)
    return graph_rows(store, "rebuild", live)


class TestIncrementalEqualsRebuild:
    def test_fixed_split(self):
        store = FrostStore(":memory:")
        session = build_session(CONFIG, store=store, name="s")
        everyone = records()
        session.ingest(everyone[:4])
        session.ingest(everyone[4:7])
        session.ingest(everyone[7:])
        assert session_rows(session) == rebuild_rows(everyone)

    @given(sizes=st.lists(st.integers(min_value=1, max_value=4), max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_any_batch_split_after_every_batch(self, sizes):
        """Incremental graph == rebuild after EVERY batch, whatever the
        split — nodes, edges (scores + breakdowns), and memberships."""
        store = FrostStore(":memory:")
        session = build_session(CONFIG, store=store, name="s")
        everyone = records()
        cursor = 0
        batches = []
        for size in sizes:
            if cursor >= len(everyone):
                break
            batches.append(everyone[cursor:cursor + size])
            cursor += size
        if cursor < len(everyone):
            batches.append(everyone[cursor:])
        ingested: list[Record] = []
        for batch in batches:
            session.ingest(batch)
            ingested.extend(batch)
            assert session_rows(session) == rebuild_rows(ingested)


class TestGraphUpdater:
    def test_create_then_attach_round_trip(self):
        from repro.core.pairs import ScoredPair

        store = FrostStore(":memory:")
        updater = GraphUpdater.create(store, "g", 0.7)
        updater.apply_batch(
            [(0, "a"), (1, "b")], [ScoredPair.of("a", "b", 0.9)]
        )
        again = GraphUpdater.attach(store, "g")
        assert [
            (component["component"], component["records"])
            for component in again.graph.components()
        ] == [(0, ["a", "b"])]
        assert again.graph.threshold == 0.7

    def test_duplicate_graph_name_rejected(self):
        store = FrostStore(":memory:")
        GraphUpdater.create(store, "g", 0.5)
        with pytest.raises(StorageError, match="already stored"):
            GraphUpdater.create(store, "g", 0.5)

    def test_node_id_desync_rejected(self):
        store = FrostStore(":memory:")
        updater = GraphUpdater.create(store, "g", 0.5)
        with pytest.raises(StorageError, match="desync"):
            updater.apply_batch([(5, "a")], [])

    def test_failed_store_write_reloads_the_memory_twin(self):
        store = FrostStore(":memory:")
        updater = GraphUpdater.create(store, "g", 0.5)
        updater.apply_batch([(0, "a"), (1, "b")], [])
        # sabotage the next persisted batch: pre-insert its node row so
        # the primary key collides inside append_graph_batch
        store.append_graph_batch("g", [(2, "squatter")], [])
        with pytest.raises(StorageError, match="collides"):
            updater.apply_batch([(2, "c")], [])
        # the in-memory twin was reloaded from the store — no phantom
        # "c" node survives the failed write
        assert updater.graph.record_ids() == ["a", "b", "squatter"]

    def test_stream_attach_rejects_node_count_mismatch(self):
        store = FrostStore(":memory:")
        session = build_session(CONFIG, store=store, name="s")
        session.ingest(records()[:3])
        # a foreign graph with the wrong node count must not attach
        GraphUpdater.create(store, "other", 0.5)
        with pytest.raises(StreamError, match="rebuild the graph"):
            session.attach_graph(GraphUpdater.attach(store, "other"))

    def test_store_listing(self):
        store = FrostStore(":memory:")
        GraphUpdater.create(store, "b", 0.5)
        GraphUpdater.create(store, "a", 0.5)
        assert store.graph_names() == ["a", "b"]
        with pytest.raises(StorageError, match="no graph named"):
            store.graph_meta("c")


class TestBuilders:
    def test_build_from_run_includes_isolated_records(self):
        store = FrostStore(":memory:")
        pipeline, _ = build_pipeline_and_index(CONFIG)
        run = pipeline.run(Dataset(records(), name="people"))
        graph = build_graph_from_run(store, "g", run)
        assert graph.node_count == len(PEOPLE)
        assert graph.threshold == CONFIG["threshold"]
        # every scored candidate pair landed, accepted or not
        assert graph.edge_count == len(run.scored_pairs)
        assert graph.cluster_pairs() == run.experiment.pairs()

    def test_build_from_run_keeps_attribute_evidence(self):
        store = FrostStore(":memory:")
        pipeline, _ = build_pipeline_and_index(CONFIG)
        run = pipeline.run(Dataset(records()[:4], name="people"))
        build_graph_from_run(store, "g", run)
        graph = load_graph(store, "g")
        evidence = graph.evidence_path("p03", "p04")["edges"][0]["evidence"]
        assert set(evidence) == {"name", "zip"}

    def test_build_from_experiment_matches_clustering(self):
        store = FrostStore(":memory:")
        pipeline, _ = build_pipeline_and_index(CONFIG)
        dataset = Dataset(records(), name="people")
        run = pipeline.run(dataset)
        graph = build_graph_from_experiment(
            store, "g", dataset, run.experiment
        )
        assert graph.cluster_pairs() == run.experiment.pairs()

    def test_run_without_threshold_needs_explicit_one(self):
        store = FrostStore(":memory:")
        pipeline, _ = build_pipeline_and_index(CONFIG)
        run = pipeline.run(Dataset(records()[:3], name="people"))
        run.experiment.metadata.pop("threshold")
        with pytest.raises(ValueError, match="threshold"):
            build_graph_from_run(store, "g", run)


class TestSchemaMigration:
    def _seed_pre_graph_store(self, path) -> None:
        """A store file as a PR-6-era process would have left it:
        datasets + experiments persisted, no graph tables, version 1."""
        with FrostStore(path) as store:
            pipeline, _ = build_pipeline_and_index(CONFIG)
            dataset = Dataset(records(), name="people")
            run = pipeline.run(dataset)
            store.save_dataset(dataset)
            store.save_experiment("people", run.experiment)
        connection = sqlite3.connect(path)
        with connection:
            for table in ("graph_edges", "graph_nodes", "graphs"):
                connection.execute(f"DROP TABLE {table}")
            connection.execute("PRAGMA user_version = 1")
        connection.close()

    def test_pre_existing_store_migrates_and_builds_graph(self, tmp_path):
        """Satellite regression: resume a PR-6-era database and build
        the graph from its persisted matches."""
        path = str(tmp_path / "old.db")
        self._seed_pre_graph_store(path)
        with FrostStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION
            dataset = store.load_dataset("people")
            experiment = store.load_experiment("people", "streaming-config")
            graph = build_graph_from_experiment(
                store, "migrated", dataset, experiment
            )
            assert graph.cluster_pairs() == experiment.pairs()
        # the stamp survives the reopen
        with FrostStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION

    def test_newer_schema_version_is_refused(self, tmp_path):
        path = str(tmp_path / "future.db")
        FrostStore(path).close()
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("PRAGMA user_version = 99")
        connection.close()
        with pytest.raises(StorageError, match="newer"):
            FrostStore(path)
