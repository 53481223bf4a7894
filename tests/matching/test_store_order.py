"""Kernel-path resolution: candidates ordered through integer store rows.

The comparison stage looks both ids of every candidate pair up as store
rows and orders the pairs by the rows' ranks in sorted record-id order.
That order must be exactly ``sorted(candidates)`` — with duplicates,
non-canonical pairs, ids sharing prefixes, non-ASCII ids and lone
surrogates — and the rows must be the ones ``store_rows`` looks up.
:func:`resolve_candidates`, the row loop's resolution, is the oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnarStore, RowPairs
from repro.columnar.batch import store_rows
from repro.core.pairs import make_pair
from repro.core.records import Record
from repro.matching.attribute_matching import AttributeComparator
from repro.matching.comparison import (
    _store_order,
    resolve_candidates,
    score_candidates,
)

ids = st.text(
    alphabet=["a", "b", "B", "0", "é", "ß", "日", "\ud800", "\udfff", "\U0001F600"],
    max_size=4,
)


@st.composite
def scenarios(draw):
    known = draw(st.lists(ids, min_size=1, max_size=12, unique=True))
    gone = draw(st.lists(ids.filter(lambda rid: rid not in known), max_size=3))
    everyone = known + gone
    candidates = draw(st.lists(
        st.tuples(st.sampled_from(everyone), st.sampled_from(everyone)),
        max_size=30,
    ))
    # the store grows in batches, so its ranks are merged, not sorted once
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=len(known)), max_size=3
    )))
    return known, candidates, cuts


def grown_store(known, cuts):
    store = ColumnarStore.from_records({}, ["name"])
    for start, end in zip([0, *cuts], [*cuts, len(known)]):
        store.extend(Record(rid, {"name": f"v{rid}"}) for rid in known[start:end])
    return store


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_rank_order_equals_sorted_candidates(scenario):
    known, candidates, cuts = scenario
    store = grown_store(known, cuts)
    records = {rid: store.record(rid) for rid in known}

    (rows_a, rows_b), missing = _store_order(store, candidates)
    ordered = [
        (store.row_ids[row_a], store.row_ids[row_b])
        for row_a, row_b in zip(rows_a.tolist(), rows_b.tolist())
    ]

    expected, _, expected_missing = resolve_candidates(records, candidates)
    assert ordered == expected
    assert missing == expected_missing
    oracle_a, oracle_b = store_rows(store, ordered)
    assert np.array_equal(rows_a, oracle_a)
    assert np.array_equal(rows_b, oracle_b)


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_compared_pairs_come_back_in_sorted_order(scenario):
    known, candidates, cuts = scenario
    store = grown_store(known, cuts)
    records = {rid: store.record(rid) for rid in known}
    comparator = AttributeComparator({"name": "jaro_winkler"})
    expected, _, expected_missing = resolve_candidates(records, candidates)
    for kwargs in ({"store": store}, {}):
        vectors, missing = score_candidates(
            records, candidates, comparator, **kwargs
        )
        assert [vector.pair for vector in vectors] == expected
        assert missing == expected_missing


@given(scenarios())
@settings(max_examples=80, deadline=None)
def test_row_pairs_come_back_canonical_in_sorted_order(scenario):
    """Candidates given as the store's own rows, in either orientation,
    score like the sorted canonical pairs they name."""
    known, candidates, cuts = scenario
    store = grown_store(known, cuts)
    records = {rid: store.record(rid) for rid in known}
    named = [
        pair for pair in candidates
        if pair[0] != pair[1] and pair[0] in store and pair[1] in store
    ]
    rows_a, rows_b = store_rows(store, named)
    comparator = AttributeComparator({"name": "jaro_winkler"})
    vectors, missing = score_candidates(
        records, RowPairs(store, rows_a, rows_b), comparator, store=store
    )
    expected = sorted(make_pair(*pair) for pair in named)
    assert vectors.pairs == expected
    assert missing == []
    reference, _ = score_candidates(records, expected, comparator)
    assert vectors == reference


def test_batch_keeps_resolved_rows():
    known = [f"r{index}" for index in range(9)]
    store = grown_store(known, [4])
    records = {rid: store.record(rid) for rid in known}
    candidates = [("r8", "r1"), ("r2", "r3"), ("r1", "r8"), ("r2", "r3"),
                  ("r0", "gone")]
    comparator = AttributeComparator({"name": "levenshtein"})
    batch, missing = score_candidates(
        records, candidates, comparator, store=store
    )
    assert missing == ["gone"]
    assert batch.pairs == sorted(candidates[:4])
    assert [batch.row_ids[row] for row in batch.rows_a.tolist()] == [
        pair[0] for pair in batch.pairs
    ]
    assert [batch.row_ids[row] for row in batch.rows_b.tolist()] == [
        pair[1] for pair in batch.pairs
    ]
