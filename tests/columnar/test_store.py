"""Tests for the columnar record store (interning, columns, slicing)."""

import pickle

import numpy as np
import pytest

from repro.columnar import NULL_VID, ColumnarStore
from repro.core.records import Dataset, Record


def make_records(rows):
    return {
        rid: Record(record_id=rid, values=values) for rid, values in rows
    }


@pytest.fixture
def store():
    records = make_records([
        ("r1", {"name": "alice smith", "zip": "12345"}),
        ("r2", {"name": "alice smith", "zip": None}),
        ("r3", {"name": "bob", "zip": ""}),
        ("r4", {"name": None, "zip": "12345"}),
    ])
    return ColumnarStore.from_records(records, ["name", "zip"])


class TestInterning:
    def test_duplicate_values_share_one_vid(self, store):
        column = store.column("name")
        assert column[0] == column[1]
        assert column[0] != column[2]

    def test_null_and_empty_map_to_null_vid(self, store):
        assert store.column("zip")[1] == NULL_VID
        assert store.column("zip")[2] == NULL_VID
        assert store.column("name")[3] == NULL_VID

    def test_vid_round_trips_to_string(self, store):
        vid = int(store.column("name")[2])
        assert store.value_of(vid) == "bob"
        assert store.value_of(NULL_VID) is None

    def test_distinct_values_counts_pool(self, store):
        # alice smith, bob, 12345
        assert store.distinct_values == 3

    def test_values_pool_is_shared_across_attributes(self):
        records = make_records([
            ("r1", {"a": "same", "b": "same"}),
        ])
        store = ColumnarStore.from_records(records, ["a", "b"])
        assert store.column("a")[0] == store.column("b")[0]

    def test_interning_is_case_sensitive(self):
        records = make_records([
            ("r1", {"a": "Alice"}),
            ("r2", {"a": "alice"}),
        ])
        store = ColumnarStore.from_records(records, ["a"])
        assert store.column("a")[0] != store.column("a")[1]


class TestContainer:
    def test_len_contains_row_of(self, store):
        assert len(store) == 4
        assert "r3" in store
        assert "nope" not in store
        assert store.row_of("r3") == 2

    def test_unknown_attribute_raises(self, store):
        with pytest.raises(KeyError, match="not in columnar store"):
            store.column("missing")

    def test_record_rebuilds_values(self, store):
        record = store.record("r2")
        assert record.record_id == "r2"
        assert record.value("name") == "alice smith"
        assert record.value("zip") is None

    def test_repr_mentions_shape(self, store):
        assert "rows=4" in repr(store)


class TestFromDataset:
    def test_rows_align_with_numeric_ids(self):
        dataset = Dataset(
            [Record(f"x{i}", {"name": f"v{i % 3}"}) for i in range(7)],
            name="d",
        )
        store = dataset.columnar_store()
        for record in dataset:
            assert store.row_of(record.record_id) == dataset.numeric_id(
                record.record_id
            )

    def test_dataset_caches_the_store(self):
        dataset = Dataset([Record("a", {"name": "x"})], name="d")
        assert dataset.columnar_store() is dataset.columnar_store()

    def test_values_first_entry_must_be_null(self):
        with pytest.raises(ValueError, match="null sentinel"):
            ColumnarStore(["a"], ["r1"], ["oops"], {"a": np.zeros(1)})

    def test_column_length_must_match_rows(self):
        with pytest.raises(ValueError, match="rows"):
            ColumnarStore(
                ["a"], ["r1", "r2"], [None, "x"], {"a": np.zeros(1)}
            )


class TestDerived:
    def test_token_csr_rows_are_sorted_unique(self, store):
        indptr, ids = store.token_csr()
        assert len(indptr) == store.distinct_values + 2  # pool incl. null
        for vid in range(len(indptr) - 1):
            row = ids[indptr[vid] : indptr[vid + 1]]
            assert list(row) == sorted(set(row.tolist()))
        # null vid owns no tokens
        assert indptr[NULL_VID + 1] - indptr[NULL_VID] == 0

    def test_token_sequences_preserve_order(self):
        records = make_records([("r1", {"a": "Zebra apple zebra"})])
        store = ColumnarStore.from_records(records, ["a"])
        vid = int(store.column("a")[0])
        assert store.token_sequences()[vid] == ("zebra", "apple", "zebra")

    def test_ngram_csr_cached_per_n(self, store):
        assert store.ngram_csr(2) is store.ngram_csr(2)
        assert store.ngram_csr(3) is not store.ngram_csr(2)

    def test_numeric_marks_finite_parses_only(self):
        records = make_records([
            ("r1", {"a": "12.5"}),
            ("r2", {"a": "inf"}),
            ("r3", {"a": "nan"}),
            ("r4", {"a": "abc"}),
            ("r5", {"a": "1e400"}),
        ])
        store = ColumnarStore.from_records(records, ["a"])
        parsed, usable = store.numeric()
        vid = lambda row: int(store.column("a")[row])
        assert usable[vid(0)] and parsed[vid(0)] == 12.5
        assert not usable[vid(1)]
        assert not usable[vid(2)]
        assert not usable[vid(3)]
        assert not usable[vid(4)]  # overflows to inf

    def test_soundex_codes_sentinel_is_zero(self):
        records = make_records([
            ("r1", {"a": "Robert"}),
            ("r2", {"a": "Rupert"}),
            ("r3", {"a": "123"}),
        ])
        store = ColumnarStore.from_records(records, ["a"])
        codes = store.soundex_codes()
        column = store.column("a")
        assert codes[column[0]] == codes[column[1]]  # both R163
        assert codes[column[2]] == 0  # sentinel


class TestPickle:
    def test_pickle_round_trip(self, store):
        store.token_csr()  # populate a derived cache
        clone = pickle.loads(pickle.dumps(store))
        assert clone.row_ids == store.row_ids
        for attribute in store.attributes:
            np.testing.assert_array_equal(
                clone.column(attribute), store.column(attribute)
            )
        indptr_a, ids_a = store.token_csr()
        indptr_b, ids_b = clone.token_csr()
        np.testing.assert_array_equal(indptr_a, indptr_b)
        np.testing.assert_array_equal(ids_a, ids_b)
