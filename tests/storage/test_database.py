"""Tests for the SQLite-backed store (Appendix A.3)."""

import pytest

from repro.core import Experiment, Match
from repro.storage.database import FrostStore, StorageError


@pytest.fixture
def store():
    with FrostStore() as store:
        yield store


class TestDatasets:
    def test_round_trip(self, store, people_dataset):
        store.save_dataset(people_dataset)
        loaded = store.load_dataset("people")
        assert loaded.record_ids == people_dataset.record_ids
        assert loaded.attributes == people_dataset.attributes
        assert loaded["p3"].value("first") == "mary"
        assert loaded["p3"].value("zip") is None

    def test_numeric_ids_preserved_by_order(self, store, people_dataset):
        store.save_dataset(people_dataset)
        loaded = store.load_dataset("people")
        for record_id in people_dataset.record_ids:
            assert loaded.numeric_id(record_id) == people_dataset.numeric_id(
                record_id
            )

    def test_duplicate_name_rejected(self, store, people_dataset):
        store.save_dataset(people_dataset)
        with pytest.raises(StorageError, match="already stored"):
            store.save_dataset(people_dataset)

    def test_unknown_dataset(self, store):
        with pytest.raises(StorageError, match="no dataset"):
            store.load_dataset("nope")

    def test_dataset_names(self, store, people_dataset):
        assert store.dataset_names() == []
        store.save_dataset(people_dataset)
        assert store.dataset_names() == ["people"]


class TestExperiments:
    def test_round_trip(self, store, people_dataset, people_experiment):
        store.save_dataset(people_dataset)
        store.save_experiment("people", people_experiment)
        loaded = store.load_experiment("people", "people-run")
        assert loaded.pairs() == people_experiment.pairs()
        assert loaded.score_of("p1", "p2") == 0.95
        assert loaded.solution == "test-solution"

    def test_from_clustering_flag_survives(self, store, people_dataset):
        store.save_dataset(people_dataset)
        experiment = Experiment(
            [Match(pair=("p1", "p2"), score=0.9),
             Match(pair=("p1", "p3"), from_clustering=True)],
            name="flagged",
        )
        store.save_experiment("people", experiment)
        loaded = store.load_experiment("people", "flagged")
        assert loaded.original_pairs() == {("p1", "p2")}

    def test_metadata_round_trip(self, store, people_dataset):
        store.save_dataset(people_dataset)
        experiment = Experiment(
            [("p1", "p2")], name="meta", metadata={"threshold": 0.8}
        )
        store.save_experiment("people", experiment)
        assert store.load_experiment("people", "meta").metadata == {
            "threshold": 0.8
        }

    def test_unknown_record_rejected(self, store, people_dataset):
        store.save_dataset(people_dataset)
        bad = Experiment([("p1", "ghost")], name="bad")
        with pytest.raises(StorageError, match="unknown"):
            store.save_experiment("people", bad)

    def test_duplicate_name_rejected(self, store, people_dataset, people_experiment):
        store.save_dataset(people_dataset)
        store.save_experiment("people", people_experiment)
        with pytest.raises(StorageError, match="already stored"):
            store.save_experiment("people", people_experiment)

    def test_delete(self, store, people_dataset, people_experiment):
        store.save_dataset(people_dataset)
        store.save_experiment("people", people_experiment)
        store.delete_experiment("people", "people-run")
        assert store.experiment_names("people") == []
        with pytest.raises(StorageError, match="no experiment"):
            store.load_experiment("people", "people-run")

    def test_delete_unknown(self, store, people_dataset):
        store.save_dataset(people_dataset)
        with pytest.raises(StorageError, match="no experiment"):
            store.delete_experiment("people", "ghost")


class TestGoldStandards:
    def test_round_trip(self, store, people_dataset, people_gold):
        store.save_dataset(people_dataset)
        store.save_gold_standard("people", people_gold)
        loaded = store.load_gold_standard("people", "people-gold")
        assert loaded.pairs() == people_gold.pairs()

    def test_names(self, store, people_dataset, people_gold):
        store.save_dataset(people_dataset)
        store.save_gold_standard("people", people_gold)
        assert store.gold_standard_names("people") == ["people-gold"]

    def test_unknown_record_rejected(self, store, people_dataset):
        from repro.core import GoldStandard

        store.save_dataset(people_dataset)
        bad = GoldStandard.from_pairs([("p1", "ghost")], name="bad")
        with pytest.raises(StorageError, match="unknown record"):
            store.save_gold_standard("people", bad)


class TestPersistence:
    def test_survives_reopen(self, tmp_path, people_dataset, people_experiment):
        path = tmp_path / "frost.db"
        with FrostStore(path) as store:
            store.save_dataset(people_dataset)
            store.save_experiment("people", people_experiment)
        with FrostStore(path) as reopened:
            assert reopened.dataset_names() == ["people"]
            loaded = reopened.load_experiment("people", "people-run")
            assert loaded.pairs() == people_experiment.pairs()


_TELEMETRY_TABLES = (
    "telemetry_trajectories", "telemetry_profiles", "telemetry_metrics",
    "telemetry_spans", "telemetry_runs",
)

# The disk-blocking tables that store files of schema versions 3 and 4
# were created with, verbatim.  The store no longer creates them, but
# files that hold them must still open with their rows untouched.
_RETIRED_BLOCKING_SCHEMA = """
CREATE TABLE IF NOT EXISTS blocking_runs (
    run_id INTEGER PRIMARY KEY,
    scheme TEXT NOT NULL,
    config TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS blocking_keys (
    entry_id INTEGER PRIMARY KEY,
    run_id INTEGER NOT NULL REFERENCES blocking_runs(run_id),
    block_key TEXT NOT NULL,
    record_id TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_blocking_keys_run_key
    ON blocking_keys(run_id, block_key, record_id);
CREATE TABLE IF NOT EXISTS blocking_signatures (
    run_id INTEGER NOT NULL REFERENCES blocking_runs(run_id),
    record_id TEXT NOT NULL,
    signature BLOB NOT NULL,
    PRIMARY KEY (run_id, record_id)
);
"""
_BLOCKING_TABLES = ("blocking_runs", "blocking_keys", "blocking_signatures")

# The graph component table that store files of schema versions 2 to 4
# were created with, verbatim.  The store no longer creates it either;
# components are derived from the accepted edges on load.
_RETIRED_COMPONENT_SCHEMA = """
CREATE TABLE IF NOT EXISTS graph_components (
    graph_id INTEGER NOT NULL REFERENCES graphs(graph_id),
    node_id INTEGER NOT NULL,
    component INTEGER NOT NULL,
    PRIMARY KEY (graph_id, node_id)
);
CREATE INDEX IF NOT EXISTS idx_graph_components_component
    ON graph_components(graph_id, component);
"""


def _table_names(path) -> set[str]:
    import sqlite3

    connection = sqlite3.connect(path)
    try:
        return {
            name for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
    finally:
        connection.close()


def _table_rows(path, tables) -> dict[str, list[tuple]]:
    import sqlite3

    connection = sqlite3.connect(path)
    try:
        return {
            table: connection.execute(
                f"SELECT * FROM {table} ORDER BY rowid"
            ).fetchall()
            for table in tables
        }
    finally:
        connection.close()


class TestBlockingSchemaMigration:
    def _seed_v2_store(self, path, people_dataset) -> None:
        """A store file at schema version 2: datasets saved, no
        blocking or telemetry tables."""
        import sqlite3

        with FrostStore(path) as store:
            store.save_dataset(people_dataset)
        connection = sqlite3.connect(path)
        with connection:
            for table in _TELEMETRY_TABLES:
                connection.execute(f"DROP TABLE {table}")
            connection.execute("PRAGMA user_version = 2")
        connection.close()

    def test_v2_store_migrates_in_place(self, tmp_path, people_dataset):
        from repro.storage.database import SCHEMA_VERSION

        path = str(tmp_path / "old.db")
        self._seed_v2_store(path, people_dataset)
        with FrostStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION == 4
            # existing rows survive
            assert store.dataset_names() == ["people"]
        # the telemetry tables are added; the blocking tables are not
        tables = _table_names(path)
        assert set(_TELEMETRY_TABLES) <= tables
        assert not tables & set(_BLOCKING_TABLES)
        # the stamp survives the reopen
        with FrostStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION

    def test_store_with_blocking_tables_opens_resumes_and_serves(
        self, tmp_path
    ):
        import sqlite3

        from repro.core.platform import FrostPlatform
        from repro.serving.service import ServingLayer
        from repro.storage.database import SCHEMA_VERSION
        from repro.streaming import StreamingMatcher, build_session

        from tests.graph.test_build import CONFIG, records

        path = str(tmp_path / "blocking.db")
        everyone = records()
        with FrostStore(path) as store:
            build_session(CONFIG, store=store, name="s").ingest(everyone[:4])
        # what a store that spilled one blocking run holds on disk
        connection = sqlite3.connect(path)
        with connection:
            connection.executescript(_RETIRED_BLOCKING_SCHEMA)
            connection.execute(
                "INSERT INTO blocking_runs VALUES "
                "(1, 'standard_blocking', '{}', 1.5)"
            )
            connection.executemany(
                "INSERT INTO blocking_keys (run_id, block_key, record_id) "
                "VALUES (1, ?, ?)",
                [("anna", "p01"), ("anna", "p02"), ("bob", "p03")],
            )
            connection.execute(
                "INSERT INTO blocking_signatures VALUES (1, 'p01', ?)",
                (bytes(range(16)),),
            )
        connection.close()
        before = _table_rows(path, _BLOCKING_TABLES)
        assert [len(rows) for rows in before.values()] == [1, 3, 1]

        with FrostStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION == 4
            session = StreamingMatcher.resume(store, "s")
            assert (session.version, session.record_count) == (1, 4)
            assert session.ingest(everyone[4:6]).version == 2
            serving = ServingLayer(FrostPlatform())
            serving.attach_store(store)
            assert serving.graph_summary_payload("s")["node_count"] == 6
        assert _table_rows(path, _BLOCKING_TABLES) == before


class TestGraphComponentsSchemaMigration:
    def test_fresh_store_has_no_component_table(self, tmp_path):
        from repro.streaming import build_session

        from tests.graph.test_build import CONFIG, records

        path = str(tmp_path / "fresh.db")
        with FrostStore(path) as store:
            build_session(CONFIG, store=store, name="s").ingest(records())
        tables = _table_names(path)
        assert {"graphs", "graph_nodes", "graph_edges"} <= tables
        assert "graph_components" not in tables

    def test_store_with_component_rows_opens_resumes_and_serves(
        self, tmp_path
    ):
        import sqlite3

        from repro.core.platform import FrostPlatform
        from repro.serving.service import ServingLayer
        from repro.storage.database import SCHEMA_VERSION
        from repro.streaming import StreamingMatcher, build_session

        from tests.graph.test_build import CONFIG, records

        path = str(tmp_path / "components.db")
        everyone = records()
        with FrostStore(path) as store:
            session = build_session(CONFIG, store=store, name="s")
            session.ingest(everyone[:4])
            memberships = session._graph.graph.component_nodes()
        # what a store that still kept components holds on disk
        connection = sqlite3.connect(path)
        with connection:
            connection.executescript(_RETIRED_COMPONENT_SCHEMA)
            (graph_id,) = connection.execute(
                "SELECT graph_id FROM graphs WHERE name = 's'"
            ).fetchone()
            connection.executemany(
                "INSERT INTO graph_components VALUES (?, ?, ?)",
                [
                    (graph_id, node, label)
                    for label, members in memberships.items()
                    for node in members
                ],
            )
        connection.close()
        before = _table_rows(path, ["graph_components"])
        assert len(before["graph_components"]) == 4

        with FrostStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION == 4
            session = StreamingMatcher.resume(store, "s")
            assert (session.version, session.record_count) == (1, 4)
            assert session.ingest(everyone[4:6]).version == 2
            serving = ServingLayer(FrostPlatform())
            serving.attach_store(store)
            served = serving.graph_component_payload("s", "p03")
            assert served == session._graph.graph.component_of("p03")
            assert served["records"] == ["p03", "p04"]
            assert serving.graph_summary_payload("s")["node_count"] == 6
        assert _table_rows(path, ["graph_components"]) == before


class TestTelemetrySchemaMigration:
    def _seed_v3_store(self, path, people_dataset) -> None:
        """A store file at schema version 3: datasets saved, no
        telemetry tables."""
        import sqlite3

        with FrostStore(path) as store:
            store.save_dataset(people_dataset)
        connection = sqlite3.connect(path)
        with connection:
            for table in _TELEMETRY_TABLES:
                connection.execute(f"DROP TABLE {table}")
            connection.execute("PRAGMA user_version = 3")
        connection.close()

    def test_v3_store_migrates_to_v4_in_place(self, tmp_path, people_dataset):
        from repro.storage.database import SCHEMA_VERSION
        from repro.telemetry.spans import Tracer

        path = str(tmp_path / "pr9.db")
        self._seed_v3_store(path, people_dataset)
        with FrostStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION == 4
            assert store.dataset_names() == ["people"]
            # the migrated telemetry tables round-trip a trace
            tracer = Tracer(enabled=True)
            with tracer.span("migration.check"):
                pass
            warehouse = store.telemetry_store()
            run_id = warehouse.record_run("migrated", tracer.roots())
            spans = warehouse.run_spans(run_id)
            assert [span.name for span in spans] == ["migration.check"]
        with FrostStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION

    def test_newer_schema_version_refused(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "future.db")
        FrostStore(path).close()
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("PRAGMA user_version = 99")
        connection.close()
        before = _open_connections()
        with pytest.raises(StorageError, match="newer"):
            FrostStore(path)
        assert _open_connections() == before

    def test_a_file_that_is_not_sqlite_is_refused(self, tmp_path):
        path = tmp_path / "notadb"
        path.write_text("id,name\nr1,not a database\n" * 40)
        before = _open_connections()
        with pytest.raises(StorageError, match="cannot open store"):
            FrostStore(str(path))
        assert _open_connections() == before


def _open_connections() -> float:
    """Pooled connections opened and not yet closed, process-wide."""
    from repro.telemetry.metrics import get_metrics

    metrics = get_metrics()
    return (
        metrics.counter("frost_store_connections_opened_total", "").value
        - metrics.counter("frost_store_connections_closed_total", "").value
    )

