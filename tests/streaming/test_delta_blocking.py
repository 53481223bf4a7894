"""Tests for the incremental blocking index (delta candidate emission)."""

import pytest

from repro.core.pairs import make_pair
from repro.core.records import Dataset, Record
from repro.datagen.domains import person_entity
from repro.datagen.generator import (
    CorruptionModel,
    DirtyDatasetGenerator,
    cluster_sizes_zipf,
)
from repro.matching.blocking import (
    first_token_key,
    standard_blocking,
    token_blocking,
)
from repro.streaming.config import (
    candidate_generator_from_key,
    delta_index_from_key,
)
from repro.streaming.delta_blocking import (
    IncrementalBlockingIndex,
    single_key,
    token_keys,
)


def person(record_id, last, city=None):
    return Record(record_id, {"last": last, "city": city})


class TestSingleKeyIndex:
    def test_first_batch_emits_within_batch_pairs(self):
        index = IncrementalBlockingIndex(single_key(first_token_key("last")))
        delta = index.ingest(
            [person("a", "smith"), person("b", "smith"), person("c", "jones")]
        )
        assert delta == [("a", "b")]

    def test_second_batch_emits_only_delta(self):
        index = IncrementalBlockingIndex(single_key(first_token_key("last")))
        index.ingest([person("a", "smith"), person("b", "smith")])
        delta = index.ingest([person("c", "smith"), person("d", "jones")])
        assert delta == [("a", "c"), ("b", "c")]

    def test_null_keys_never_become_candidates(self):
        index = IncrementalBlockingIndex(single_key(first_token_key("last")))
        delta = index.ingest([person("a", None), person("b", None)])
        assert delta == []
        assert "a" in index  # still registered, just unblocked

    def test_duplicate_record_rejected(self):
        index = IncrementalBlockingIndex(single_key(first_token_key("last")))
        index.ingest([person("a", "smith")])
        with pytest.raises(ValueError, match="already indexed"):
            index.ingest([person("a", "smith")])

    def test_delta_union_equals_batch_blocking(self):
        """Ingest-by-ingest deltas sum to the batch candidate set."""
        records = [
            person(f"r{i}", last)
            for i, last in enumerate(
                ["smith", "smith", "jones", "smith", "jones", "brown"]
            )
        ]
        index = IncrementalBlockingIndex(single_key(first_token_key("last")))
        emitted = set()
        for start in range(0, len(records), 2):
            emitted.update(index.ingest(records[start : start + 2]))
        batch = standard_blocking(
            Dataset(records, name="d"), first_token_key("last")
        )
        assert emitted == batch


class TestTokenIndex:
    def test_matches_token_blocking_without_cap(self):
        records = [
            Record("a", {"name": "alpha beta gamma"}),
            Record("b", {"name": "beta delta"}),
            Record("c", {"name": "epsilon gamma"}),
            Record("d", {"name": "zeta"}),
        ]
        index = IncrementalBlockingIndex(token_keys(min_token_length=3))
        emitted = set(index.ingest(records[:2])) | set(index.ingest(records[2:]))
        batch = token_blocking(
            Dataset(records, name="d"), min_token_length=3, max_block_size=None
        )
        assert emitted == batch

    def test_min_token_length_respected(self):
        index = IncrementalBlockingIndex(token_keys(min_token_length=5))
        delta = index.ingest(
            [Record("a", {"name": "tiny word"}), Record("b", {"name": "tiny word"})]
        )
        assert delta == []  # both tokens are shorter than five characters

    def test_attribute_restriction(self):
        index = IncrementalBlockingIndex(
            token_keys(attributes=["name"], min_token_length=3)
        )
        delta = index.ingest(
            [
                Record("a", {"name": "unique1", "city": "shared"}),
                Record("b", {"name": "unique2", "city": "shared"}),
            ]
        )
        assert delta == []  # the shared token lives in an ignored attribute

    def test_one_shot_attributes_serve_every_record(self):
        """Regression: an iterator of attribute names was used up by the
        first record, so every later record emitted no keys."""
        records = [
            Record(rid, {"first": "mary", "last": last})
            for rid, last in (("a", "ann"), ("b", "bob"), ("c", "cyd"))
        ]
        emitter = token_keys(attributes=iter(["first"]))
        assert [emitter(record) for record in records] == [["mary"]] * 3
        index = IncrementalBlockingIndex(
            token_keys(attributes=(name for name in ["first"]))
        )
        assert index.ingest(records) == [("a", "b"), ("a", "c"), ("b", "c")]


class TestBlockSizeCap:
    def test_cap_stops_emission_but_keeps_membership(self):
        index = IncrementalBlockingIndex(
            single_key(first_token_key("last")), max_block_size=2
        )
        first = index.ingest([person("a", "smith"), person("b", "smith")])
        assert first == [("a", "b")]
        second = index.ingest([person("c", "smith")])
        assert second == []  # block is full: c joins silently
        assert index.block_items() == [
            ("smith", "a"), ("smith", "b"), ("smith", "c")
        ]

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            IncrementalBlockingIndex(
                single_key(first_token_key("last")), max_block_size=0
            )


class TestRestore:
    def test_restore_round_trips_block_items(self):
        index = IncrementalBlockingIndex(single_key(first_token_key("last")))
        index.ingest([person("a", "smith"), person("b", "smith"),
                      person("c", "jones")])
        clone = IncrementalBlockingIndex(single_key(first_token_key("last")))
        clone.restore(index.ids, index.block_items())
        assert clone.block_items() == index.block_items()
        # the restored index continues emitting correct deltas
        assert clone.ingest([person("d", "smith")]) == [
            ("a", "d"), ("b", "d")
        ]

    def test_retract_undoes_the_latest_ingest(self):
        index = IncrementalBlockingIndex(single_key(first_token_key("last")))
        index.ingest([person("a", "smith"), person("b", "jones")])
        before = index.block_items()
        delta = index.ingest_delta([person("c", "smith"), person("d", "brown")])
        assert delta.pairs == [("a", "c")]
        assert delta.memberships == [("smith", "c"), ("brown", "d")]
        index.retract(delta)
        assert index.block_items() == before
        assert "c" not in index and "d" not in index
        # retracted records can be ingested again, emitting the same delta
        assert index.ingest([person("c", "smith")]) == [("a", "c")]

    def test_restore_requires_empty_index(self):
        index = IncrementalBlockingIndex(single_key(first_token_key("last")))
        index.ingest([person("a", "smith")])
        with pytest.raises(ValueError, match="empty"):
            index.restore(["b"], [("smith", "b")])

    def test_restore_interns_the_id_table_before_the_rows(self):
        index = IncrementalBlockingIndex(single_key(first_token_key("last")))
        # "a" has no block key: it keeps its id all the same
        index.restore(["c", "a", "b"], [("smith", "b"), ("smith", "c")])
        assert list(index.ids) == ["c", "a", "b"]
        assert len(index) == 3 and "a" in index
        assert index.block_items() == [("smith", "b"), ("smith", "c")]
        delta = index.ingest_delta([person("d", "smith")])
        assert list(index.ids) == ["c", "a", "b", "d"]
        assert (delta.firsts.tolist(), delta.seconds.tolist()) == (
            [0, 2], [3, 3]
        )
        assert delta.pairs == [("b", "d"), ("c", "d")]

    @pytest.mark.parametrize(
        "ids, rows, message",
        [
            (["a", "b"], [("smith", "a"), ("smith", "z")],
             "'z'.*not in the id table"),
            (["a", "a"], [("smith", "a")], "distinct"),
        ],
        ids=["row-outside-the-table", "repeated-id"],
    )
    def test_restore_rejects_an_inconsistent_table(self, ids, rows, message):
        index = IncrementalBlockingIndex(single_key(first_token_key("last")))
        with pytest.raises(ValueError, match=message):
            index.restore(ids, rows)
        # the index is left empty, so it can still be restored
        assert len(index) == 0 and list(index.ids) == []
        assert index.block_count == 0
        index.restore(["a", "b"], [("smith", "a"), ("smith", "b")])
        assert index.block_items() == [("smith", "a"), ("smith", "b")]


SLICE_KEYS = {
    "first_token": {"kind": "first_token", "attribute": "last_name"},
    "prefix": {"kind": "prefix", "attribute": "city", "length": 2},
    "soundex": {"kind": "soundex", "attribute": "last_name"},
    "token": {"kind": "token", "attributes": ["first_name", "last_name"]},
    "lsh": {"kind": "lsh", "num_perm": 16, "bands": 8},
}


@pytest.fixture(scope="module")
def slices():
    """Three generated person slices with disjoint record ids."""
    return [
        DirtyDatasetGenerator(
            entity_factory=person_entity,
            cluster_sizes=cluster_sizes_zipf(maximum=4),
            corruption=CorruptionModel(attribute_rate=0.35, null_rate=0.05),
            name=f"slice-{index}",
            id_prefix=f"s{index}-",
            seed=500 + index,
        ).generate(150).dataset
        for index in range(3)
    ]


@pytest.mark.parametrize("kind", sorted(SLICE_KEYS))
def test_slice_deltas_partition_the_batch_candidates(kind, slices):
    """A corpus ingested slice by slice: each delta is sorted and agrees
    with its id lanes, no pair is emitted twice, and together the deltas
    are the stream's batch blocker over the whole corpus."""
    index = delta_index_from_key(SLICE_KEYS[kind])
    emitted = []
    for records in slices:
        delta = index.ingest_delta(records)
        lanes = [
            make_pair(delta.ids[first], delta.ids[second])
            for first, second in zip(delta.firsts, delta.seconds)
        ]
        assert delta.pairs == sorted(lanes)
        emitted.extend(delta.pairs)
    assert emitted
    assert len(emitted) == len(set(emitted))
    whole = Dataset([record for records in slices for record in records])
    batch = candidate_generator_from_key(SLICE_KEYS[kind])(whole)
    assert set(emitted) == batch
