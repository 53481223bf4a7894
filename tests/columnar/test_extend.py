"""The append-only layout: :meth:`ColumnarStore.extend` and derived arrays.

A store grown batch by batch must score every kernel bit for bit like a
store built in one go over the same records, and each of its derived
arrays must equal the one a fresh store derives from the grown store's
own pool — also when extends and accessor calls interleave.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import NULL_VID, ColumnarStore, compare_block, plan_for
from repro.core.records import Record
from repro.matching.attribute_matching import AttributeComparator
from repro.matching.similarity import TfIdfCosine

POOL = [
    "alice smith", "alice  smith", "smith alice", "bob", "Robert", "Rupert",
    "Ashcraft", "Tymczak", "o'brien", "12.5", "12.0", "-12.5", "0", "nan",
    "inf", "1e400", "123", "zoë", "straße", "a much longer value here",
]


def first_letter(first: str, second: str) -> float:
    """A custom measure: no dedicated kernel, scored by the memo kernel."""
    return 1.0 if first[:1].lower() == second[:1].lower() else 0.0


MEASURES = {
    "exact": "exact",
    "levenshtein": "levenshtein",
    "jaro": "jaro",
    "jaro_winkler": "jaro_winkler",
    "token_jaccard": "token_jaccard",
    "ngram_jaccard": "ngram_jaccard",
    "overlap": "overlap",
    "monge_elkan": "monge_elkan",
    "soundex": "soundex",
    "numeric": "numeric",
    "tfidf": TfIdfCosine(POOL),
    "custom": first_letter,
}
ATTRIBUTES = list(MEASURES)
COMPARATOR = AttributeComparator(MEASURES)

# Per record, one value (or a null) for every measured attribute.
record_values = st.lists(
    st.sampled_from(POOL + [None, ""]),
    min_size=len(ATTRIBUTES),
    max_size=len(ATTRIBUTES),
)


def make_records(rows) -> list[Record]:
    return [
        Record(f"r{index:02d}", dict(zip(ATTRIBUTES, values)))
        for index, values in enumerate(rows)
    ]


def split(items, cuts):
    """``items`` cut at the sorted, de-duplicated positions ``cuts``."""
    bounds = [0, *sorted({cut % (len(items) + 1) for cut in cuts}), len(items)]
    return [items[start:end] for start, end in zip(bounds, bounds[1:])]


def all_pairs(records):
    ids = [record.record_id for record in records]
    return [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]


def scored(store, pairs):
    return compare_block(store, pairs, plan_for(COMPARATOR))


def assert_bit_identical(grown, at_once):
    assert grown.pairs == at_once.pairs
    for mine, theirs in zip(grown.lanes, at_once.lanes):
        assert mine.tobytes() == theirs.tobytes()
    for mine, theirs in zip(grown.nulls, at_once.nulls):
        assert np.array_equal(mine, theirs)


def fresh_from_pool(store: ColumnarStore) -> ColumnarStore:
    """A store over ``store``'s own pool and columns, nothing derived."""
    return ColumnarStore(
        store.attributes,
        store.row_ids,
        store.values,
        {attribute: store.column(attribute) for attribute in store.attributes},
    )


DERIVED = {
    "token_sequences": lambda store: [store.token_sequences()],
    "token_csr": lambda store: list(store.token_csr()),
    "ngram_csr_2": lambda store: list(store.ngram_csr(2)),
    "ngram_csr_3": lambda store: list(store.ngram_csr(3)),
    "numeric": lambda store: [
        store.numeric()[0].view(np.uint64), store.numeric()[1]
    ],
    "soundex_codes": lambda store: [store.soundex_codes()],
    "id_ranks": lambda store: [store.id_ranks()],
}


def assert_derived_equal(store: ColumnarStore) -> None:
    reference = fresh_from_pool(store)
    for name, derive in DERIVED.items():
        for mine, theirs in zip(derive(store), derive(reference)):
            if isinstance(mine, np.ndarray):
                assert mine.dtype == theirs.dtype, name
                assert np.array_equal(mine, theirs), name
            else:
                assert mine == theirs, name


@given(
    rows=st.lists(record_values, min_size=2, max_size=12),
    cuts=st.lists(st.integers(min_value=0, max_value=12), max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_extended_store_scores_like_one_built_at_once(rows, cuts):
    records = make_records(rows)
    at_once = ColumnarStore.from_records(
        {record.record_id: record for record in records}, ATTRIBUTES
    )
    grown = ColumnarStore.from_records({}, ATTRIBUTES)
    seen: list[Record] = []
    for chunk in split(records, cuts):
        grown.extend(chunk)
        seen.extend(chunk)
        # scoring between extends extends the derived arrays piecewise
        pairs = all_pairs(seen)
        assert_bit_identical(scored(grown, pairs), scored(at_once, pairs))
    assert grown.row_ids == at_once.row_ids
    assert sorted(grown.values[1:]) == sorted(at_once.values[1:])
    for attribute in ATTRIBUTES:
        assert [
            grown.value_of(vid) for vid in grown.column(attribute).tolist()
        ] == [
            at_once.value_of(vid) for vid in at_once.column(attribute).tolist()
        ]


@given(
    rows=st.lists(record_values, min_size=1, max_size=12),
    cuts=st.lists(st.integers(min_value=0, max_value=12), max_size=4),
    derive_after=st.lists(
        st.sets(st.sampled_from(sorted(DERIVED))), min_size=5, max_size=5
    ),
)
@settings(max_examples=40, deadline=None)
def test_derived_arrays_equal_a_fresh_derivation(rows, cuts, derive_after):
    records = make_records(rows)
    store = ColumnarStore.from_records({}, ATTRIBUTES)
    for chunk, names in zip(split(records, cuts), derive_after):
        store.extend(chunk)
        for name in sorted(names):
            DERIVED[name](store)
    store.extend(records)  # whatever the split left out
    assert_derived_equal(store)


class TestExtend:
    def test_appends_rows_and_interns_only_new_values(self):
        store = ColumnarStore.from_records(
            {"a": Record("a", {"name": "x", "zip": "1"})}, ["name", "zip"]
        )
        assert store.extend([Record("b", {"name": "x", "zip": "2"})]) is store
        assert store.row_ids == ("a", "b")
        assert store.distinct_values == 3  # x, 1, 2
        assert store.column("name")[0] == store.column("name")[1]
        assert store.row_of("a") == 0 and store.row_of("b") == 1

    def test_known_ids_are_skipped(self):
        store = ColumnarStore.from_records(
            {"a": Record("a", {"name": "x"})}, ["name"]
        )
        store.extend([
            Record("a", {"name": "changed"}),
            Record("b", {"name": None}),
            Record("b", {"name": "again"}),
        ])
        assert store.row_ids == ("a", "b")
        assert store.value_of(int(store.column("name")[0])) == "x"
        assert store.column("name")[1] == NULL_VID
        assert store.distinct_values == 1

    def test_unpickled_stores_extend(self):
        store = ColumnarStore.from_records(
            {rid: Record(rid, {"name": rid * 2}) for rid in "abc"}, ["name"]
        )
        copy = pickle.loads(pickle.dumps(store))
        copy.extend([Record("d", {"name": "aa"}), Record("e", {"name": "q"})])
        assert copy.record("d").value("name") == "aa"
        assert copy.value_of(int(copy.column("name")[-1])) == "q"
        assert len(set(copy.values)) == len(copy.values)
        assert_derived_equal(copy)

    def test_id_ranks_follow_sorted_ids_across_extends(self):
        ids = ["m", "b", "\ud800", "é", "ab", "a", "z", "日本", "", "B"]
        store = ColumnarStore.from_records({}, ["name"])
        for start in range(0, len(ids), 3):
            store.extend(Record(rid, {"name": "v"}) for rid in ids[start:start + 3])
            order = sorted(store.row_ids)
            assert store.id_ranks().tolist() == [
                order.index(rid) for rid in store.row_ids
            ]
