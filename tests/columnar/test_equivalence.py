"""Columnar/scalar equivalence: kernel path, fallback, and wiring.

The oracle is the scalar row loop,
:func:`~repro.matching.attribute_matching.compare_pairs` over the scalar
measures; every kernel-scored result must equal it bit for bit.
"""

import random
import struct

import pytest

from repro.columnar import PairBatch
from repro.core.records import Dataset, Record
from repro.matching.attribute_matching import AttributeComparator, compare_pairs
from repro.matching.comparison import resolve_candidates, score_candidates
from repro.matching.blocking import first_token_key, standard_blocking
from repro.matching.pipeline import MatchingPipeline
from repro.matching.similarity import jaro_winkler
from repro.telemetry.metrics import get_metrics

FIRST = ["alice", "alicia", "bob", "robert", "carol", "karol", "dave"]
LAST = ["smith", "smyth", "jones", "johnson", "miller", "muller"]
CITY = ["berlin", "potsdam", "hamburg", "munich", ""]
ZIP = ["10115", "10117", "14467", "nan", "inf", None, "80331"]


def person_dataset(count, seed=7):
    rng = random.Random(seed)
    records = [
        Record(
            record_id=f"p{i:04d}",
            values={
                "first_name": rng.choice(FIRST),
                "last_name": rng.choice(LAST),
                "city": rng.choice(CITY),
                "zip": rng.choice(ZIP),
            },
        )
        for i in range(count)
    ]
    return Dataset(records, name="people")


def comparator():
    return AttributeComparator({
        "first_name": "jaro_winkler",
        "last_name": "monge_elkan",
        "city": "ngram_jaccard",
        "zip": "numeric",
    })


class RowLoopComparator(AttributeComparator):
    """A trivial subclass: :func:`repro.columnar.plan_for` refuses it, so
    it is scored by the serial row loop."""


def bits(value):
    return None if value is None else struct.pack("<d", value)


def assert_identical(vectors_a, vectors_b):
    assert len(vectors_a) == len(vectors_b)
    for left, right in zip(vectors_a, vectors_b):
        assert left.pair == right.pair
        assert list(left.values) == list(right.values)
        for attribute in left.values:
            assert bits(left.values[attribute]) == bits(
                right.values[attribute]
            ), (attribute, left.pair)


@pytest.fixture
def dataset():
    return person_dataset(120)


@pytest.fixture
def candidates(dataset):
    return standard_blocking(dataset, first_token_key("last_name"))


class TestSerialEquivalence:
    def test_columnar_serial_matches_scalar_serial(self, dataset, candidates):
        scalar = compare_pairs(dataset, candidates, comparator())
        fast, missing = score_candidates(dataset, candidates, comparator())
        assert missing == []
        assert isinstance(fast, PairBatch)
        assert_identical(scalar, fast)

    @pytest.mark.parametrize("size", [1, 31])
    def test_small_blocks_are_kernel_scored(self, dataset, size):
        pairs = sorted(
            standard_blocking(dataset, first_token_key("last_name"))
        )[:size]
        fast, _ = score_candidates(dataset, pairs, comparator())
        assert isinstance(fast, PairBatch) and len(fast) == size
        assert_identical(compare_pairs(dataset, pairs, comparator()), fast)


class TestFallback:
    def test_custom_measure_is_kernel_scored(self, dataset, candidates):
        def custom(a, b):
            return jaro_winkler(b, a) / 2

        mixed = AttributeComparator(
            {"first_name": "jaro_winkler", "last_name": custom}
        )
        kernel_pairs = get_metrics().counter("frost_kernel_pairs_total")
        before = kernel_pairs.value
        vectors, _ = score_candidates(dataset, candidates, mixed)
        assert kernel_pairs.value == before + len(vectors)
        assert_identical(compare_pairs(dataset, candidates, mixed), vectors)

    def test_duck_typed_comparator_falls_back(self, dataset, candidates):
        class Duck:
            def compare(self, first, second):
                return comparator().compare(first, second)

        fallback = get_metrics().counter("frost_kernel_fallback_pairs_total")
        before = fallback.value
        vectors, _ = score_candidates(dataset, candidates, Duck())
        assert fallback.value == before + len(candidates)
        assert isinstance(vectors, list)
        assert_identical(compare_pairs(dataset, candidates, comparator()), vectors)

    def test_missing_records_reported_same_as_scalar(self, dataset):
        pairs = sorted(
            standard_blocking(dataset, first_token_key("last_name"))
        )
        pairs.append(("p0000", "zz-gone"))
        ordered, resolved, missing_a = resolve_candidates(dataset, pairs)
        scalar = compare_pairs(resolved, ordered, comparator())
        fast, missing_b = score_candidates(dataset, pairs, comparator())
        assert missing_a == missing_b == ["zz-gone"]
        assert_identical(scalar, fast)


class TestPipelineRun:
    def test_row_loop_run_is_byte_identical(self, dataset):
        def build(comparator):
            return MatchingPipeline(
                candidate_generator=lambda d: standard_blocking(
                    d, first_token_key("last_name")
                ),
                comparator=comparator,
                decision_model=lambda v: v.mean(),
                threshold=0.8,
            )

        fast = build(comparator()).run(dataset)
        slow = build(RowLoopComparator(comparator().functions)).run(dataset)
        assert isinstance(fast.vectors, PairBatch)
        assert isinstance(slow.vectors, list)
        assert_identical(fast.vectors, slow.vectors)
        assert [
            (sp.pair, bits(sp.score)) for sp in fast.scored_pairs
        ] == [(sp.pair, bits(sp.score)) for sp in slow.scored_pairs]
        assert fast.experiment.matches == slow.experiment.matches


class TestTelemetry:
    def test_kernel_counters_advance(self, dataset, candidates):
        metrics = get_metrics()
        pairs_counter = metrics.counter("frost_kernel_pairs_total")
        distinct_counter = metrics.counter("frost_kernel_distinct_pairs_total")
        builds_counter = metrics.counter("frost_kernel_store_builds_total")
        before = (
            pairs_counter.value,
            distinct_counter.value,
            builds_counter.value,
        )
        score_candidates(dataset, candidates, comparator())
        assert pairs_counter.value > before[0]
        assert distinct_counter.value > before[1]
        assert builds_counter.value > before[2]
