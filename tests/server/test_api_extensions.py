"""Tests for the profile / categorize / timeline API routes."""

import json

import pytest

from repro.core.platform import FrostPlatform
from repro.server.api import ApiError, FrostApi


@pytest.fixture
def api(people_dataset, people_gold, people_experiment):
    platform = FrostPlatform()
    platform.add_dataset(people_dataset)
    platform.add_gold(people_dataset.name, people_gold)
    platform.add_experiment(people_dataset.name, people_experiment)
    return FrostApi(platform)


class TestProfileRoute:
    def test_profile_summary(self, api):
        payload = api.handle("/datasets/people/profile")
        assert payload["tuple_count"] == 6
        assert 0.0 <= payload["sparsity"] <= 1.0
        assert payload["schema_complexity"] == 4

    def test_json_serializable(self, api):
        json.dumps(api.handle("/datasets/people/profile"))


class TestCategorizeRoute:
    def test_counts_and_weakness(self, api):
        payload = api.handle(
            "/datasets/people/categorize",
            {"exp": "people-run", "gold": "people-gold"},
        )
        # people-run missed (p3, p4) and invented (p5, p6)
        assert payload["false_negatives"] == 1
        assert payload["false_positives"] == 1
        assert isinstance(payload["fn_relations"], dict)

    def test_limit_parameter(self, api):
        payload = api.handle(
            "/datasets/people/categorize",
            {"exp": "people-run", "gold": "people-gold", "limit": "0"},
        )
        assert payload["false_negatives"] == 0

    def test_missing_parameters_is_400(self, api):
        with pytest.raises(ApiError) as excinfo:
            api.handle("/datasets/people/categorize", {"exp": "people-run"})
        assert excinfo.value.status == 400

    def test_negative_limit_is_400(self, api):
        with pytest.raises(ApiError) as excinfo:
            api.handle(
                "/datasets/people/categorize",
                {"exp": "people-run", "gold": "people-gold", "limit": "-1"},
            )
        assert excinfo.value.status == 400
        assert "non-negative" in excinfo.value.message

    def test_unknown_experiment_is_404(self, api):
        with pytest.raises(ApiError) as excinfo:
            api.handle(
                "/datasets/people/categorize",
                {"exp": "ghost", "gold": "people-gold"},
            )
        assert excinfo.value.status == 404

    def test_json_serializable(self, api):
        json.dumps(
            api.handle(
                "/datasets/people/categorize",
                {"exp": "people-run", "gold": "people-gold"},
            )
        )


class TestTimelineRoute:
    def test_segment_pairs_returned(self, api):
        payload = api.handle(
            "/datasets/people/timeline",
            {
                "exp": "people-run",
                "gold": "people-gold",
                "high": "0.9",
                "low": "0.5",
            },
        )
        # only (p5, p6) at 0.72 falls inside (0.5, 0.9]; it is a non-match
        assert payload["new_true_positives"] == []
        assert payload["new_false_positives"] == [["p5", "p6"]]

    def test_bad_range_is_400(self, api):
        with pytest.raises(ApiError) as excinfo:
            api.handle(
                "/datasets/people/timeline",
                {
                    "exp": "people-run",
                    "gold": "people-gold",
                    "high": "0.2",
                    "low": "0.8",
                },
            )
        assert excinfo.value.status == 400

    def test_missing_thresholds_is_400(self, api):
        with pytest.raises(ApiError) as excinfo:
            api.handle(
                "/datasets/people/timeline",
                {"exp": "people-run", "gold": "people-gold"},
            )
        assert excinfo.value.status == 400

    def test_json_serializable(self, api):
        json.dumps(
            api.handle(
                "/datasets/people/timeline",
                {
                    "exp": "people-run",
                    "gold": "people-gold",
                    "high": "1.0",
                    "low": "0.0",
                },
            )
        )
