"""Tests for similarity vectors and attribute comparators."""

import pytest

from repro.core import Dataset, Record
from repro.matching.attribute_matching import (
    AttributeComparator,
    SimilarityVector,
    compare_pairs,
)


@pytest.fixture
def records():
    return (
        Record("r1", {"name": "john smith", "zip": "12345", "city": None}),
        Record("r2", {"name": "jon smith", "zip": "12345", "city": "salem"}),
    )


class TestComparator:
    def test_builtin_by_name(self, records):
        comparator = AttributeComparator({"zip": "exact"})
        vector = comparator.compare(*records)
        assert vector.values["zip"] == 1.0

    def test_custom_callable(self, records):
        comparator = AttributeComparator({"name": lambda a, b: 0.42})
        assert comparator.compare(*records).values["name"] == 0.42

    def test_null_yields_none(self, records):
        comparator = AttributeComparator({"city": "exact"})
        assert comparator.compare(*records).values["city"] is None

    def test_unknown_builtin_rejected(self):
        with pytest.raises(KeyError, match="unknown similarity"):
            AttributeComparator({"name": "nope"})

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            AttributeComparator({})

    def test_pair_is_canonical(self, records):
        comparator = AttributeComparator({"zip": "exact"})
        vector = comparator.compare(records[1], records[0])
        assert vector.pair == ("r1", "r2")


class TestSimilarityVector:
    def test_dense_with_missing(self):
        vector = SimilarityVector(
            pair=("a", "b"), values={"x": 0.5, "y": None}
        )
        assert vector.dense(["x", "y"]) == [0.5, 0.0]
        assert vector.dense(["x", "y"], missing=-1.0) == [0.5, -1.0]

    def test_dense_respects_order(self):
        vector = SimilarityVector(pair=("a", "b"), values={"x": 0.1, "y": 0.9})
        assert vector.dense(["y", "x"]) == [0.9, 0.1]

    def test_mean_excludes_missing(self):
        vector = SimilarityVector(
            pair=("a", "b"), values={"x": 0.4, "y": None, "z": 0.8}
        )
        assert vector.mean() == pytest.approx(0.6)

    def test_mean_all_missing(self):
        vector = SimilarityVector(pair=("a", "b"), values={"x": None})
        assert vector.mean() == 0.0

    def test_mean_sums_left_to_right(self):
        # CPython 3.12's compensated sum() gives 0.19999999999999998
        vector = SimilarityVector(("a", "b"), {"x": 0.1, "y": 0.2, "z": 0.3})
        assert vector.mean() == (0.1 + 0.2 + 0.3) / 3


class TestComparePairs:
    def test_deterministic_order(self):
        dataset = Dataset(
            [Record(f"r{i}", {"v": str(i)}) for i in range(3)]
        )
        comparator = AttributeComparator({"v": "exact"})
        vectors = compare_pairs(
            dataset, {("r2", "r0"), ("r0", "r1")}, comparator
        )
        assert [v.pair for v in vectors] == [("r0", "r1"), ("r0", "r2")]
