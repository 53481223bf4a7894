"""Tests for job specs, sweeps, and content fingerprints."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Dataset, Experiment, GoldStandard, Match, Record
from repro.core.pairs import make_pair
from repro.engine import (
    JobSpec,
    content_fingerprint,
    dataset_fingerprint,
    expand_sweep,
    experiment_fingerprint,
    gold_fingerprint,
)
from repro.engine.jobs import job_cache_key


def legacy_fingerprint(experiment):
    """The experiment digest formula as first written: the test oracle."""
    encoded = json.dumps(
        sorted(
            [
                match.pair[0],
                match.pair[1],
                match.score,
                match.from_clustering,
            ]
            for match in experiment
        ),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


_IDS = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\n", "é", "日", "😀", "\ud800", ",", "]"]),
        st.characters(),
    ),
    max_size=6,
)
_SCORES = st.one_of(
    st.sampled_from([
        None, 0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
        0, 1, -7, True, False, 1.0,
        np.float64(-0.0), np.float64(0.25), "x],[y",
    ]),
    st.floats(),
    st.integers(),
)


@st.composite
def random_experiments(draw):
    pool = draw(st.lists(_IDS, min_size=2, max_size=8, unique=True))
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(pool), st.sampled_from(pool), _SCORES, st.booleans()
        ).filter(lambda row: row[0] != row[1]),
        max_size=25,
    ))
    return Experiment([
        Match(pair=make_pair(first, second), score=score, from_clustering=flag)
        for first, second, score, flag in rows
    ])


class TestJobSpec:
    def test_params_are_copied(self):
        params = {"dataset": "d"}
        spec = JobSpec("metrics", params)
        params["dataset"] = "mutated"
        assert spec.params["dataset"] == "d"

    def test_with_params_merges(self):
        spec = JobSpec("metrics", {"dataset": "d"}).with_params(threshold=0.5)
        assert spec.params == {"dataset": "d", "threshold": 0.5}

    def test_sweep_fans_out_with_derived_ids(self):
        base = JobSpec("metrics", {"dataset": "d"}, job_id="m")
        specs = expand_sweep(base, "threshold", [0.5, 0.7, 0.9])
        assert [spec.job_id for spec in specs] == ["m@0.5", "m@0.7", "m@0.9"]
        assert [spec.params["threshold"] for spec in specs] == [0.5, 0.7, 0.9]
        assert all(spec.kind == "metrics" for spec in specs)


class TestFingerprints:
    def test_dataset_fingerprint_is_content_addressed(self):
        records = [Record("r1", {"name": "ann"}), Record("r2", {"name": "bob"})]
        first = Dataset(list(records), name="one")
        renamed = Dataset(list(records), name="two")
        assert dataset_fingerprint(first) == dataset_fingerprint(renamed)

    def test_dataset_fingerprint_sees_value_changes(self):
        first = Dataset([Record("r1", {"name": "ann"})])
        changed = Dataset([Record("r1", {"name": "ann!"})])
        assert dataset_fingerprint(first) != dataset_fingerprint(changed)

    def test_experiment_fingerprint_order_independent(self):
        one = Experiment([("a", "b", 0.9), ("c", "d", 0.8)])
        two = Experiment([("c", "d", 0.8), ("a", "b", 0.9)])
        assert experiment_fingerprint(one) == experiment_fingerprint(two)

    def test_experiment_fingerprint_sees_score_changes(self):
        one = Experiment([("a", "b", 0.9)])
        two = Experiment([("a", "b", 0.8)])
        assert experiment_fingerprint(one) != experiment_fingerprint(two)

    @given(experiment=random_experiments())
    @example(experiment=Experiment([
        Match(("a", second), score, from_clustering=score is None)
        for second, score in zip(
            "bcdefghi", (0.0, -0.0, 0, False, 1, 1.0, True, None)
        )
    ]))
    @settings(max_examples=400, deadline=None)
    def test_experiment_fingerprint_equals_the_legacy_formula(self, experiment):
        assert experiment_fingerprint(experiment) == legacy_fingerprint(
            experiment
        )

    def test_experiment_fingerprint_is_computed_once(self, monkeypatch):
        from repro.core import experiment as experiment_module

        experiment = Experiment([("b", "c", 0.5), ("a", "b", 0.9)])
        first = experiment_fingerprint(experiment)
        monkeypatch.setattr(experiment_module, "_match_rows", None)
        assert experiment_fingerprint(experiment) == first

    def test_gold_fingerprint_ignores_name(self):
        pairs = [("a", "b"), ("c", "d")]
        assert gold_fingerprint(
            GoldStandard.from_pairs(pairs, name="x")
        ) == gold_fingerprint(GoldStandard.from_pairs(pairs, name="y"))

    def test_cache_key_changes_with_config(self):
        dataset = Dataset([Record("r1", {"name": "ann"})])
        one = job_cache_key("metrics", {"dataset": dataset, "metrics": ["f1"]})
        two = job_cache_key(
            "metrics", {"dataset": dataset, "metrics": ["precision"]}
        )
        assert one != two

    def test_callables_tokenized_by_qualified_name(self):
        token = content_fingerprint({"fn": dataset_fingerprint})
        assert token["fn"]["callable"].endswith("dataset_fingerprint")

    def test_callable_instances_tokenized_by_state_not_address(self):
        from repro.matching.threshold import WeightedAverageModel

        one = content_fingerprint(WeightedAverageModel({"name": 2.0}))
        same = content_fingerprint(WeightedAverageModel({"name": 2.0}))
        other = content_fingerprint(WeightedAverageModel({"zip": 5.0}))
        assert one == same, "equal config must produce equal tokens"
        assert one != other, "different config must produce different tokens"
        assert "0x" not in repr(one), "token must not embed a memory address"

    def test_plain_objects_tokenized_by_state(self):
        class Knob:
            def __init__(self, level):
                self.level = level

        assert content_fingerprint(Knob(3)) == content_fingerprint(Knob(3))
        assert content_fingerprint(Knob(3)) != content_fingerprint(Knob(4))
        assert "0x" not in repr(content_fingerprint(Knob(3)))

    def test_nested_structures_are_canonicalized(self):
        token = content_fingerprint({"values": {0.5, 0.7}, "pair": ("a", "b")})
        assert token == {"values": [0.5, 0.7], "pair": ["a", "b"]}
