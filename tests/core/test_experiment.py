"""Tests for experiments and gold standards."""

import copy
import dataclasses
import pickle

import pytest

from repro.core import Experiment, GoldStandard, Match
from repro.core.pairs import ScoredPair


class TestExperimentConstruction:
    def test_accepts_tuples_and_matches(self):
        experiment = Experiment(
            [("a", "b"), ("c", "d", 0.5), Match(pair=("e", "f"), score=0.9)]
        )
        assert len(experiment) == 3
        assert experiment.score_of("c", "d") == 0.5
        assert experiment.score_of("a", "b") is None

    def test_accepts_scored_pairs(self):
        experiment = Experiment([ScoredPair.of("a", "b", 0.7)])
        assert experiment.score_of("b", "a") == 0.7

    def test_duplicate_pairs_keep_first(self):
        experiment = Experiment([("a", "b", 0.9), ("b", "a", 0.1)])
        assert len(experiment) == 1
        assert experiment.score_of("a", "b") == 0.9

    def test_bad_input_rejected(self):
        with pytest.raises(TypeError, match="cannot interpret"):
            Experiment([("a",)])

    def test_contains(self):
        experiment = Experiment([("a", "b")])
        assert ("b", "a") in experiment
        assert ("a", "c") not in experiment

    def test_self_pair_is_no_member_and_has_no_score(self):
        experiment = Experiment([("a", "b", 0.9)])
        assert ("a", "a") not in experiment
        assert experiment.score_of("a", "a") is None


class TestMatch:
    def test_is_slotted_and_frozen(self):
        match = Match(pair=("a", "b"), score=0.5, from_clustering=True)
        assert not hasattr(match, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            match.score = 0.7

    def test_survives_pickle_copy_and_replace(self):
        match = Match(pair=("a", "b"), score=0.5, from_clustering=True)
        assert pickle.loads(pickle.dumps(match)) == match
        assert copy.deepcopy(match) == match
        assert dataclasses.replace(match, score=None) == Match(
            pair=("a", "b"), from_clustering=True
        )
        assert dataclasses.asdict(match) == {
            "pair": ("a", "b"), "score": 0.5, "from_clustering": True,
        }


class TestExperimentViews:
    def test_pairs(self):
        experiment = Experiment([("b", "a"), ("c", "d")])
        assert experiment.pairs() == {("a", "b"), ("c", "d")}

    def test_original_pairs_excludes_clustering_additions(self):
        experiment = Experiment(
            [
                Match(pair=("a", "b"), score=0.9),
                Match(pair=("a", "c"), from_clustering=True),
            ]
        )
        assert experiment.original_pairs() == {("a", "b")}

    def test_scored_pairs_skips_unscored(self):
        experiment = Experiment([("a", "b", 0.5), ("c", "d")])
        assert [sp.pair for sp in experiment.scored_pairs()] == [("a", "b")]

    def test_has_scores(self):
        assert Experiment([("a", "b", 0.5)]).has_scores()
        assert not Experiment([("a", "b")]).has_scores()
        assert Experiment([]).has_scores()


class TestExperimentDerived:
    def test_clustering_closes_transitively(self):
        experiment = Experiment([("a", "b"), ("b", "c")])
        assert experiment.clustering().same_cluster("a", "c")

    def test_clustering_cached(self):
        experiment = Experiment([("a", "b")])
        assert experiment.clustering() is experiment.clustering()

    def test_closure_distance(self):
        experiment = Experiment([("a", "b"), ("b", "c")])
        assert experiment.closure_distance() == 1

    def test_closed_flags_added_pairs(self):
        experiment = Experiment([("a", "b", 0.9), ("b", "c", 0.8)])
        closed = experiment.closed()
        assert len(closed) == 3
        added = [m for m in closed.matches if m.from_clustering]
        assert [m.pair for m in added] == [("a", "c")]
        assert added[0].score is None
        # original experiment untouched
        assert len(experiment) == 2

    def test_threshold_subset(self):
        experiment = Experiment([("a", "b", 0.9), ("c", "d", 0.4)])
        subset = experiment.threshold_subset(0.5)
        assert subset.pairs() == {("a", "b")}

    def test_threshold_subset_drops_unscored(self):
        experiment = Experiment([("a", "b", 0.9), ("c", "d")])
        assert experiment.threshold_subset(0.0).pairs() == {("a", "b")}


class TestGoldStandard:
    def test_from_pairs_closes(self):
        gold = GoldStandard.from_pairs([("a", "b"), ("b", "c")])
        assert gold.is_duplicate("a", "c")
        assert gold.pair_count() == 3

    def test_from_assignment(self, abcd_gold):
        assert abcd_gold.is_duplicate("a", "b")
        assert not abcd_gold.is_duplicate("b", "c")
        assert abcd_gold.pair_count() == 2

    def test_pairs_cached(self, abcd_gold):
        assert abcd_gold.pairs() is abcd_gold.pairs()

    def test_as_experiment(self, abcd_gold):
        experiment = abcd_gold.as_experiment()
        assert experiment.pairs() == abcd_gold.pairs()
        assert experiment.solution == "gold"
