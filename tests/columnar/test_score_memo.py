"""The per-layout score memo of the comparison kernels.

Blocks scored on one store share a memo per measure: a sorted array of
packed value-id pairs and their scores.  After any sequence of blocks —
partial hits, full hits, a memo at its cap — the memo must stay sorted
and hold only true scores, and every block must score exactly like the
scalar measure.
"""

import random

import numpy as np
import pytest

from repro.columnar import ColumnarStore, compare_block, plan_for
from repro.columnar import compare as compare_module
from repro.core.records import Record
from repro.matching.attribute_matching import AttributeComparator
from repro.matching.similarity import jaro_winkler, levenshtein

ATTRIBUTES = ["first", "last", "nick"]
NAMES = ["ann", "anne", "anna", "bob", "rob", "robert", "carl", "karl",
         "dave", "david", "eve", "eva"]


def store_and_records(seed=2, count=40):
    rng = random.Random(seed)
    records = {
        f"r{index:02d}": Record(f"r{index:02d}", {
            attribute: rng.choice(NAMES) for attribute in ATTRIBUTES
        })
        for index in range(count)
    }
    return ColumnarStore.from_records(records, ATTRIBUTES), records


def random_blocks(records, rng, blocks=12):
    ids = sorted(records)
    for _ in range(blocks):
        pairs = {
            tuple(sorted(rng.sample(ids, 2)))
            for _ in range(rng.randint(1, 40))
        }
        yield sorted(pairs)


def assert_memo_holds_true_scores(store, measure):
    _, _, keys, scores = store.score_memo[id(measure)]
    assert np.all(np.diff(keys) > 0)
    for key, score in zip(keys.tolist(), scores.tolist()):
        first = store.value_of(key >> 32)
        second = store.value_of(key & 0xFFFFFFFF)
        assert score == measure(first, second)


@pytest.mark.parametrize("cap", [None, 25, 4])
def test_blocks_merge_into_one_sorted_memo(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(compare_module, "MEMO_ENTRIES", cap)
    store, records = store_and_records()
    comparator = AttributeComparator(
        {"first": jaro_winkler, "last": jaro_winkler, "nick": levenshtein}
    )
    plan = plan_for(comparator)
    measures = {kernel.measure for kernel in plan.kernels}
    rng = random.Random(5)
    for pairs in random_blocks(records, rng):
        batch = compare_block(store, pairs, plan)
        fresh, _ = store_and_records()
        assert batch == compare_block(fresh, pairs, plan)
        for measure in measures:
            entry = store.score_memo.get(id(measure))
            # a block with more distinct pairs than the cap is not kept
            assert entry is not None or cap is not None
            if entry is not None:
                assert len(entry[2]) <= (cap or compare_module.MEMO_ENTRIES)
                assert_memo_holds_true_scores(store, measure)
    # one memo per measure, shared by the attributes that use it
    assert set(store.score_memo) <= {id(measure) for measure in measures}
    assert len(store.score_memo) == 2 or cap is not None
