"""Tests for streaming matching sessions: snapshots, equivalence, durability."""

import pytest

from repro.core.records import Dataset, Record
from repro.datagen import make_person_benchmark
from repro.storage.database import FrostStore
from repro.streaming import (
    StreamError,
    build_pipeline_and_index,
    build_session,
    open_session,
    validate_config,
)

CONFIG = {
    "key": {"kind": "first_token", "attribute": "last"},
    "similarities": {
        "first": "jaro_winkler",
        "last": "jaro_winkler",
        "zip": "exact",
    },
    "threshold": 0.8,
}


def person(record_id, first, last, zip_code=None):
    return Record(record_id, {"first": first, "last": last, "zip": zip_code})


BATCH_ONE = [
    person("p1", "john", "smith", "12345"),
    person("p2", "jon", "smith", "12345"),
    person("p3", "mary", "jones", "99999"),
]
BATCH_TWO = [
    person("p4", "maria", "jones", "99999"),
    person("p5", "johnny", "smith", "12345"),
]


class TestIngest:
    def test_snapshots_are_versioned_with_lineage(self):
        session = build_session(CONFIG)
        first = session.ingest(BATCH_ONE)
        second = session.ingest(BATCH_TWO)
        assert (first.version, first.parent_version) == (1, None)
        assert (second.version, second.parent_version) == (2, 1)
        assert session.version == 2
        assert [s.version for s in session.snapshots] == [1, 2]

    def test_delta_work_only(self):
        """The second batch scores new-vs-{new,old} pairs, nothing else."""
        session = build_session(CONFIG)
        session.ingest(BATCH_ONE)
        snapshot = session.ingest(BATCH_TWO)
        # smith block: p5 against p1, p2; jones block: p4 against p3
        assert snapshot.delta_candidates == 3

    def test_clusters_maintained_across_batches(self):
        session = build_session(CONFIG)
        session.ingest(BATCH_ONE)
        session.ingest(BATCH_TWO)
        assert set(session.clusters().clusters) == {
            ("p1", "p2", "p5"),
            ("p3", "p4"),
        }

    def test_duplicate_record_across_batches_rejected(self):
        session = build_session(CONFIG)
        session.ingest(BATCH_ONE)
        with pytest.raises(StreamError, match="already ingested"):
            session.ingest([person("p1", "john", "smith")])
        assert session.version == 1  # failed batch leaves no snapshot

    def test_json_rows_are_coerced(self):
        session = build_session(CONFIG)
        snapshot = session.ingest(
            [
                {"id": "p1", "first": "john", "last": "smith"},
                {"id": "p2", "first": "jon", "last": "smith"},
            ]
        )
        assert snapshot.record_count == 2
        assert snapshot.accepted_matches == 1

    def test_status_and_experiment(self):
        session = build_session(CONFIG, name="crm")
        session.ingest(BATCH_ONE)
        status = session.status()
        assert status["name"] == "crm"
        assert status["records"] == 3
        assert status["durable"] is False
        experiment = session.experiment()
        assert experiment.solution == "streaming"
        assert {m.pair for m in experiment} == {("p1", "p2")}


class TestBatchEquivalence:
    def test_incremental_equals_full_recompute(self):
        """The acceptance property: after k ingests the clustering is
        identical to one batch run over the union of the records."""
        session = build_session(CONFIG)
        session.ingest(BATCH_ONE)
        session.ingest(BATCH_TWO)
        pipeline, _ = build_pipeline_and_index(CONFIG)
        full = pipeline.run(Dataset(BATCH_ONE + BATCH_TWO, name="union"))
        assert set(session.clusters().clusters) == set(
            full.experiment.clustering().clusters
        )

    def test_equivalence_is_batch_split_invariant(self):
        """Any partition of the stream into batches converges to the
        same clusters (delta blocking is exact for key-based schemes)."""
        records = BATCH_ONE + BATCH_TWO
        one_by_one = build_session(CONFIG)
        for record in records:
            one_by_one.ingest([record])
        all_at_once = build_session(CONFIG)
        all_at_once.ingest(records)
        assert set(one_by_one.clusters().clusters) == set(
            all_at_once.clusters().clusters
        )


RESUME_KEYS = {
    "first_token": {"kind": "first_token", "attribute": "last_name"},
    "soundex": {"kind": "soundex", "attribute": "last_name"},
    "token_capped": {
        "kind": "token", "attributes": ["first_name", "last_name"],
        "max_block_size": 4,
    },
    "lsh_capped": {
        "kind": "lsh", "num_perm": 16, "bands": 4, "max_block_size": 25,
    },
    # default banding (128 permutations, 32 bands), uncapped: the
    # highest key fan-out a stream config can ask for
    "lsh_default": {"kind": "lsh"},
}


@pytest.fixture(scope="module")
def people():
    return list(make_person_benchmark(240, seed=3).dataset)


class TestDurability:
    @pytest.mark.parametrize("kind", sorted(RESUME_KEYS))
    def test_a_resumed_index_emits_what_the_live_one_emits(
        self, kind, people, tmp_path
    ):
        """A durable stream rebuilds its delta index in memory from the
        persisted block rows: reopened from its file, it holds the
        blocks of a store-less session fed the same batches, and the
        next batch emits and clusters the same."""
        config = {
            "key": RESUME_KEYS[kind],
            "similarities": {
                "first_name": "jaro_winkler",
                "last_name": "jaro_winkler",
            },
            "threshold": 0.85,
        }
        live = build_session(config)
        path = tmp_path / "stream.db"
        with FrostStore(path) as store:
            durable = build_session(config, store=store, name="s")
            assert durable.ingest(people[:150]) == live.ingest(people[:150])
        with FrostStore(path) as store:
            resumed = open_session(store, "s")
            assert resumed.index.block_items() == live.index.block_items()
            assert resumed.status()["blocks"] == live.status()["blocks"]
            snapshot = resumed.ingest(people[150:])
            assert snapshot == live.ingest(people[150:])
            assert snapshot.delta_candidates > 0
            assert set(resumed.clusters().clusters) == set(
                live.clusters().clusters
            )

    def test_resume_restores_full_state(self):
        store = FrostStore(":memory:")
        session = build_session(CONFIG, store=store, name="crm")
        session.ingest(BATCH_ONE)
        session.ingest(BATCH_TWO)

        resumed = open_session(store, "crm")
        assert resumed.version == 2
        assert resumed.record_count == 5
        assert set(resumed.clusters().clusters) == set(
            session.clusters().clusters
        )
        assert [s.as_dict() for s in resumed.snapshots] == [
            s.as_dict() for s in session.snapshots
        ]

    def test_resumed_session_keeps_ingesting(self):
        store = FrostStore(":memory:")
        build_session(CONFIG, store=store, name="crm").ingest(BATCH_ONE)
        resumed = open_session(store, "crm")
        snapshot = resumed.ingest(BATCH_TWO)
        assert snapshot.version == 2
        assert set(resumed.clusters().clusters) == {
            ("p1", "p2", "p5"),
            ("p3", "p4"),
        }
        # and the continuation itself is durable
        assert open_session(store, "crm").version == 2

    def test_duplicate_stream_name_rejected(self):
        store = FrostStore(":memory:")
        build_session(CONFIG, store=store, name="crm")
        with pytest.raises(StreamError, match="already exists"):
            build_session(CONFIG, store=store, name="crm")

    def test_closed_store_is_not_a_name_clash(self, tmp_path):
        from repro.storage.database import StorageError

        store = FrostStore(tmp_path / "streams.db")
        store.close()
        with pytest.raises(StorageError, match="is closed"):
            build_session(CONFIG, store=store, name="crm")

    def test_failed_persist_rolls_the_session_back(self):
        """A store rejection (e.g. a concurrent writer took the version)
        must leave the live session exactly as before the batch."""
        store = FrostStore(":memory:")
        session = build_session(CONFIG, store=store, name="crm")
        session.ingest(BATCH_ONE)
        before = session.status()
        before_clusters = set(session.clusters().clusters)

        # another writer (a second live session on the same stream)
        # persists version 2 first
        shadow = open_session(store, "crm")
        shadow.ingest([person("x1", "kim", "lee")])

        from repro.storage.database import StorageError

        with pytest.raises(StorageError, match="collides"):
            session.ingest(BATCH_TWO)
        assert session.status() == before
        assert set(session.clusters().clusters) == before_clusters
        # the rolled-back records are ingestable again after a resync
        resynced = open_session(store, "crm")
        snapshot = resynced.ingest(BATCH_TWO)
        assert snapshot.version == 3

    def test_snapshot_lineage_persisted(self):
        store = FrostStore(":memory:")
        session = build_session(CONFIG, store=store, name="crm")
        session.ingest(BATCH_ONE)
        session.ingest(BATCH_TWO)
        lineage = store.stream_snapshot_lineage("crm")
        assert [row["version"] for row in lineage] == [1, 2]
        assert lineage[1]["parent_version"] == 1
        assert lineage[1]["record_count"] == 5


class TestConfigValidation:
    def test_unknown_key_kind(self):
        with pytest.raises(ValueError, match="key.kind"):
            validate_config({**CONFIG, "key": {"kind": "nope"}})

    def test_missing_attribute(self):
        with pytest.raises(ValueError, match="attribute"):
            validate_config({**CONFIG, "key": {"kind": "prefix"}})

    def test_unknown_similarity(self):
        with pytest.raises(ValueError, match="unknown similarity"):
            validate_config({**CONFIG, "similarities": {"first": "nope"}})

    def test_unknown_preparer(self):
        with pytest.raises(ValueError, match="unknown preparer"):
            validate_config({**CONFIG, "preparers": ["nope"]})

    def test_token_config_builds(self):
        config = {
            "key": {"kind": "token", "attributes": ["last"],
                    "min_token_length": 3},
            "similarities": {"last": "jaro_winkler"},
            "threshold": 0.9,
        }
        session = build_session(config)
        snapshot = session.ingest(BATCH_ONE)
        assert snapshot.record_count == 3

    @pytest.mark.parametrize(
        "retired",
        [
            {"columnar": False},
            {"parallelism": {"workers": 2, "shards": 4}},
            {"blocking_storage": "disk"},
            {"blocking_storage": "tape"},
        ],
        ids=["columnar", "parallelism", "blocking_storage",
             "blocking_storage_any_value"],
    )
    def test_legacy_columnar_key_is_ignored(self, retired):
        """A config or a stored stream carrying a retired key
        (``columnar``, ``parallelism``, ``blocking_storage``) still
        validates, builds, and resumes to the same clusters — whatever
        its value, including one the knob's own validation rejected."""
        legacy = {**CONFIG, **retired}
        assert validate_config(legacy) == validate_config(CONFIG)
        build_pipeline_and_index(legacy)
        store = FrostStore(":memory:")
        store.create_stream("legacy", {**validate_config(CONFIG), **retired})
        open_session(store, "legacy").ingest(BATCH_ONE)
        resumed = open_session(store, "legacy")
        resumed.ingest(BATCH_TWO)
        assert not set(retired) & set(resumed.status())
        fresh = build_session(CONFIG)
        fresh.ingest(BATCH_ONE)
        fresh.ingest(BATCH_TWO)
        assert set(resumed.clusters().clusters) == set(
            fresh.clusters().clusters
        )
