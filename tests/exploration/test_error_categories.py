"""Tests for error categorization (§7 outlook)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, Experiment, GoldStandard, Record
from repro.exploration.error_categories import (
    ErrorCategorization,
    ValueRelation,
    categorize_errors,
    categorize_record_pair,
    classify_value_pair,
)


class TestClassifyValuePair:
    def test_both_null(self):
        assert classify_value_pair(None, None) is ValueRelation.BOTH_NULL

    def test_one_null_either_side(self):
        assert classify_value_pair(None, "x") is ValueRelation.ONE_NULL
        assert classify_value_pair("x", None) is ValueRelation.ONE_NULL

    def test_empty_string_is_null(self):
        # Record.value() maps "" to None before classification; direct
        # calls treat "" as a value, so exercise via a record pair
        first = Record("a", {"name": ""})
        second = Record("b", {"name": "x"})
        relations = categorize_record_pair(first, second, ["name"])
        assert relations["name"] is ValueRelation.ONE_NULL

    def test_equal(self):
        assert classify_value_pair("john", "john") is ValueRelation.EQUAL

    def test_formatting_case(self):
        assert classify_value_pair("John", "john") is ValueRelation.FORMATTING

    def test_formatting_whitespace(self):
        assert (
            classify_value_pair("john  smith", "john smith")
            is ValueRelation.FORMATTING
        )

    def test_word_order(self):
        assert (
            classify_value_pair("john smith", "smith john")
            is ValueRelation.WORD_ORDER
        )

    def test_abbreviation_with_dot(self):
        assert (
            classify_value_pair("j. smith", "john smith")
            is ValueRelation.ABBREVIATION
        )

    def test_abbreviation_prefix(self):
        assert (
            classify_value_pair("jo smith", "john smith")
            is ValueRelation.ABBREVIATION
        )

    def test_abbreviation_symmetric(self):
        assert (
            classify_value_pair("john smith", "j. smith")
            is ValueRelation.ABBREVIATION
        )

    def test_typo_substitution(self):
        assert classify_value_pair("john", "johm") is ValueRelation.TYPO

    def test_typo_deletion(self):
        assert classify_value_pair("john", "jon") is ValueRelation.TYPO

    def test_typo_threshold_respected(self):
        assert (
            classify_value_pair("abcdef", "abczzz", typo_threshold=2)
            is ValueRelation.DIFFERENT
        )
        assert (
            classify_value_pair("abcdef", "abczzz", typo_threshold=3)
            is ValueRelation.TYPO
        )

    def test_different(self):
        assert classify_value_pair("john", "mary") is ValueRelation.DIFFERENT

    def test_case_noise_then_typo_still_typo(self):
        # normalization happens before the edit-distance check
        assert classify_value_pair("JOHN", "jon") is ValueRelation.TYPO

    @given(st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_reflexive_values_are_equal(self, value):
        assert classify_value_pair(value, value) is ValueRelation.EQUAL

    @given(st.text(max_size=15), st.text(max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, first, second):
        assert classify_value_pair(first, second) is classify_value_pair(
            second, first
        )


class TestCategorizeRecordPair:
    def test_per_attribute_relations(self):
        first = Record("a", {"name": "john", "city": None, "zip": "11111"})
        second = Record("b", {"name": "jon", "city": "salem", "zip": "11111"})
        relations = categorize_record_pair(
            first, second, ["name", "city", "zip"]
        )
        assert relations == {
            "name": ValueRelation.TYPO,
            "city": ValueRelation.ONE_NULL,
            "zip": ValueRelation.EQUAL,
        }

    def test_missing_attribute_is_both_null(self):
        relations = categorize_record_pair(
            Record("a", {}), Record("b", {}), ["ghost"]
        )
        assert relations["ghost"] is ValueRelation.BOTH_NULL


@pytest.fixture
def typo_scenario():
    """Duplicates differing by typos; solution misses exactly those."""
    records = [
        Record("a1", {"name": "john smith", "city": "springfield"}),
        Record("a2", {"name": "john smitth", "city": "springfield"}),
        Record("b1", {"name": "mary jones", "city": "riverside"}),
        Record("b2", {"name": "marry jones", "city": "riverside"}),
        Record("c1", {"name": "alice brown", "city": "salem"}),
        Record("c2", {"name": "carol white", "city": "salem"}),
    ]
    dataset = Dataset(records, name="typos")
    gold = GoldStandard.from_pairs([("a1", "a2"), ("b1", "b2")])
    experiment = Experiment([("c1", "c2", 0.8)], name="bad-run")
    return dataset, experiment, gold


class TestCategorizeErrors:
    def test_dominant_weakness_is_typo(self, typo_scenario):
        dataset, experiment, gold = typo_scenario
        result = categorize_errors(dataset, experiment, gold)
        assert result.dominant_weakness() is ValueRelation.TYPO

    def test_false_negative_counts(self, typo_scenario):
        dataset, experiment, gold = typo_scenario
        result = categorize_errors(dataset, experiment, gold)
        assert len(result.false_negatives) == 2
        assert result.false_negative_relations[ValueRelation.TYPO] == 2

    def test_false_positive_agreements(self, typo_scenario):
        dataset, experiment, gold = typo_scenario
        result = categorize_errors(dataset, experiment, gold)
        # the false positive (c1, c2) agrees on city only
        assert len(result.false_positives) == 1
        assert result.false_positive_relations[ValueRelation.EQUAL] == 1

    def test_dominant_seduction(self, typo_scenario):
        dataset, experiment, gold = typo_scenario
        result = categorize_errors(dataset, experiment, gold)
        assert result.dominant_seduction() is ValueRelation.EQUAL

    def test_per_attribute_breakdown(self, typo_scenario):
        dataset, experiment, gold = typo_scenario
        result = categorize_errors(dataset, experiment, gold)
        assert result.per_attribute_fn["name"][ValueRelation.TYPO] == 2
        # city is equal within the missed duplicates: not an FN error
        assert ValueRelation.EQUAL not in result.per_attribute_fn.get(
            "city", {}
        )

    def test_limit_caps_pairs(self, typo_scenario):
        dataset, experiment, gold = typo_scenario
        result = categorize_errors(dataset, experiment, gold, limit=1)
        assert len(result.false_negatives) == 1
        assert len(result.false_positives) == 1

    def test_negative_limit_is_refused(self, typo_scenario):
        dataset, experiment, gold = typo_scenario
        with pytest.raises(ValueError, match="non-negative"):
            categorize_errors(dataset, experiment, gold, limit=-1)

    def test_negative_typo_threshold_is_refused(self, typo_scenario):
        dataset, _experiment, gold = typo_scenario
        with pytest.raises(ValueError, match="non-negative"):
            classify_value_pair("john", "johm", typo_threshold=-1)
        # refused up front, also with no misclassified pair to classify
        with pytest.raises(ValueError, match="non-negative"):
            categorize_errors(
                dataset, gold.as_experiment(), gold, typo_threshold=-1
            )

    def test_attribute_subset(self, typo_scenario):
        dataset, experiment, gold = typo_scenario
        result = categorize_errors(dataset, experiment, gold, attributes=["city"])
        assert ValueRelation.TYPO not in result.false_negative_relations

    def test_perfect_experiment_has_no_errors(self, typo_scenario):
        dataset, _experiment, gold = typo_scenario
        perfect = gold.as_experiment()
        result = categorize_errors(dataset, perfect, gold)
        assert not result.false_negatives
        assert not result.false_positives
        assert result.dominant_weakness() is None
        assert result.dominant_seduction() is None

    def test_render_report_mentions_counts(self, typo_scenario):
        dataset, experiment, gold = typo_scenario
        report = categorize_errors(dataset, experiment, gold).render_report()
        assert "false negatives: 2" in report
        assert "typo: 2" in report

    def test_empty_categorization(self):
        empty = ErrorCategorization()
        assert empty.dominant_weakness() is None
        assert "false negatives: 0" in empty.render_report()
