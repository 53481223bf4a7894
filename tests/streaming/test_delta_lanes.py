"""Delta lanes against the string-set emission loop they replace.

:class:`ReferenceIndex` is the emission loop the delta index ran while
its blocks held record-id strings: per ingest, a set of
:func:`make_pair` tuples over each touched block's members, sorted at
the end.  Over random batch splits, the id-lane indexes must emit the
same pairs and add the same memberships, and ``retract``/``restore``
must leave the same state — for single keys, multi-key token keys,
the emission cap and LSH buckets, capped and not.
"""

from __future__ import annotations

import random

import pytest

from repro.core.pairs import make_pair
from repro.core.records import Record
from repro.matching.blocking import first_token_key
from repro.matching.lsh import LshConfig, MinHasher
from repro.streaming.delta_blocking import (
    IncrementalBlockingIndex,
    IncrementalLshIndex,
    single_key,
    token_keys,
)

WORDS = ["smith", "smyth", "jones", "lee", "miller", "ann", "berg", "stone"]
SMALL_LSH = LshConfig(num_perm=16, bands=8)
CAPPED_LSH = LshConfig(num_perm=16, bands=8, max_block_size=4)


class ReferenceIndex:
    """The string-tuple emission loop, kept as the oracle."""

    def __init__(self, keys_for, max_block_size=None):
        self.keys_for = keys_for
        self.max_block_size = max_block_size
        self.blocks: dict[str, list[str]] = {}
        self.records: set[str] = set()

    def ingest_delta(self, records):
        emitted = set()
        memberships = []
        record_ids = []
        for record in records:
            record_id = record.record_id
            if record_id in self.records:
                raise ValueError(f"record {record_id!r} is already indexed")
            self.records.add(record_id)
            record_ids.append(record_id)
            for key in self.keys_for(record):
                members = self.blocks.get(key, [])
                if (
                    self.max_block_size is None
                    or len(members) < self.max_block_size
                ):
                    emitted.update(make_pair(member, record_id) for member in members)
                self.blocks.setdefault(key, []).append(record_id)
                memberships.append((key, record_id))
        return sorted(emitted), memberships, record_ids

    def retract(self, memberships, record_ids):
        for key, record_id in reversed(memberships):
            members = self.blocks[key]
            members.remove(record_id)
            if not members:
                del self.blocks[key]
        self.records.difference_update(record_ids)

    def restore(self, ids, memberships):
        self.records.update(ids)
        for key, record_id in memberships:
            if record_id not in self.records:
                raise ValueError(f"record {record_id!r} is not in the id table")
            self.blocks.setdefault(key, []).append(record_id)

    def block_items(self):
        return sorted(
            (key, record_id)
            for key, members in self.blocks.items()
            for record_id in members
        )


def first_token():
    emitter = single_key(first_token_key("last"))
    return IncrementalBlockingIndex(emitter), ReferenceIndex(emitter)


def multi_key():
    emitter = token_keys(min_token_length=3)
    return IncrementalBlockingIndex(emitter), ReferenceIndex(emitter)


def capped():
    emitter = token_keys(min_token_length=3)
    return (
        IncrementalBlockingIndex(emitter, max_block_size=4),
        ReferenceIndex(emitter, max_block_size=4),
    )


def lsh():
    return (
        IncrementalLshIndex(SMALL_LSH),
        ReferenceIndex(MinHasher(SMALL_LSH).keys_for),
    )


def capped_lsh():
    return (
        IncrementalLshIndex(CAPPED_LSH),
        ReferenceIndex(MinHasher(CAPPED_LSH).keys_for, max_block_size=4),
    )


INDEXES = [first_token, multi_key, capped, lsh, capped_lsh]


def corpus(rng: random.Random, count: int) -> list[Record]:
    """People whose names share words often, some with no name at all."""
    records = []
    for index in range(count):
        last = " ".join(rng.sample(WORDS, rng.randint(0, 3))) or None
        first = rng.choice(WORDS[:4])
        # ids that do not sort in arrival order
        records.append(Record(f"p{rng.randrange(10**6):06d}-{index}",
                              {"last": last, "first": first}))
    return records


def splits(rng: random.Random, records: list[Record]) -> list[list[Record]]:
    batches, cursor = [], 0
    while cursor < len(records):
        size = rng.randint(1, 9)
        batches.append(records[cursor:cursor + size])
        cursor += size
    return batches


def assert_same_state(index, reference, every_id):
    assert index.block_items() == reference.block_items()
    assert index.block_count == len(reference.blocks)
    assert len(index) == len(reference.records)
    assert {rid for rid in every_id if rid in index} == reference.records


@pytest.mark.parametrize("make", INDEXES, ids=lambda make: make.__name__)
@pytest.mark.parametrize("seed", range(4))
def test_lanes_emit_what_the_string_loop_emits(make, seed):
    rng = random.Random(seed)
    records = corpus(rng, 70)
    every_id = [record.record_id for record in records]
    index, reference = make()
    emitted = 0
    for batch in splits(rng, records):
        if rng.random() < 0.25:
            # a batch that gets retracted, as a failed ingest does
            delta = index.ingest_delta(batch)
            pairs, memberships, record_ids = reference.ingest_delta(batch)
            assert delta.pairs == pairs
            index.retract(delta)
            reference.retract(memberships, record_ids)
            assert_same_state(index, reference, every_id)
            assert delta.pairs == pairs  # still readable once retracted
        delta = index.ingest_delta(batch)
        pairs, memberships, record_ids = reference.ingest_delta(batch)
        assert delta.pairs == pairs
        assert len(delta.firsts) == len(delta.seconds) == len(pairs)
        assert delta.memberships == memberships
        assert delta.record_ids == record_ids
        assert_same_state(index, reference, every_id)
        emitted += len(pairs)
    assert emitted > 0

    # a restored index keeps emitting what the reference emits
    restored, reference_restored = make()
    restored.restore(index.ids, index.block_items())
    reference_restored.restore(reference.records, reference.block_items())
    assert list(restored.ids) == list(index.ids)
    assert_same_state(restored, reference_restored, every_id)
    for batch in splits(rng, corpus(rng, 20)):
        delta = restored.ingest_delta(batch)
        pairs, memberships, _ = reference_restored.ingest_delta(batch)
        assert delta.pairs == pairs
        assert delta.memberships == memberships


@pytest.mark.parametrize("make", INDEXES, ids=lambda make: make.__name__)
def test_a_failing_key_emitter_undoes_the_partial_ingest(make):
    index, reference = make()
    records = corpus(random.Random(7), 30)
    index.ingest_delta(records[:20])
    reference.ingest_delta(records[:20])
    keys_for = index._keys_for

    def fails_on_the_third(record):
        if record.record_id == records[22].record_id:
            raise RuntimeError("emitter failed")
        return keys_for(record)

    index._keys_for = fails_on_the_third
    with pytest.raises(RuntimeError, match="emitter failed"):
        index.ingest_delta(records[20:])
    assert_same_state(
        index, reference, [record.record_id for record in records]
    )
    index._keys_for = keys_for
    assert index.ingest_delta(records[20:]).pairs == (
        reference.ingest_delta(records[20:])[0]
    )


def test_lanes_are_ordered_index_ids():
    index = IncrementalBlockingIndex(single_key(first_token_key("last")))
    index.ingest_delta([Record("z", {"last": "smith"}),
                        Record("b", {"last": "smith"})])
    delta = index.ingest_delta([Record("a", {"last": "smith"}),
                                Record("y", {"last": "jones"})])
    assert list(index.ids) == ["z", "b", "a", "y"]
    assert delta.firsts.tolist() == [0, 1]
    assert delta.seconds.tolist() == [2, 2]
    assert delta.pairs == [("a", "b"), ("a", "z")]


def test_a_key_emitted_twice_is_rejected_like_a_self_pair():
    index = IncrementalBlockingIndex(lambda record: ["k", "k"])
    with pytest.raises(ValueError, match="two distinct records"):
        index.ingest_delta([Record("a", {})])
    assert len(index) == 0 and index.block_items() == []
