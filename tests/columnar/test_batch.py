"""List-based pair batches: lane arithmetic, array clustering, views.

The batch path must be invisible in the output: the lane mean equals
``SimilarityVector.mean`` bit for bit, array connected components equal
``Clustering.from_pairs``, and the ``PairBatch``/``ScoredBatch`` views
behave like the lists they replace.
"""

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import PairBatch, ScoredBatch, accepted_pairs
from repro.columnar.batch import closure_matches, component_labels
from repro.core.clustering import Clustering
from repro.core.experiment import Match
from repro.core.pairs import ScoredPair
from repro.datagen import make_person_benchmark
from repro.matching.attribute_matching import SimilarityVector
from repro.matching.clustering_algorithms import center_clustering
from repro.streaming import build_pipeline_and_index, mean_similarity


def bits(value):
    return struct.pack("<d", value)


def make_batch(ids, pairs, lanes, nulls, attributes=None):
    """A batch over a store whose rows are ``ids`` in order."""
    row_of = {record_id: row for row, record_id in enumerate(ids)}
    return PairBatch(
        pairs,
        np.array([row_of[a] for a, _ in pairs], dtype=np.int64),
        np.array([row_of[b] for _, b in pairs], dtype=np.int64),
        tuple(ids),
        attributes or [f"a{k}" for k in range(len(lanes))],
        [np.asarray(lane, dtype=np.float64) for lane in lanes],
        [np.asarray(null, dtype=bool) for null in nulls],
    )


def vectors_of(batch):
    """The list the scalar loop would have returned for ``batch``."""
    return [
        SimilarityVector(
            pair=pair,
            values={
                attribute: None if null[i] else float(lane[i])
                for attribute, lane, null in zip(
                    batch.attributes, batch.lanes, batch.nulls
                )
            },
        )
        for i, pair in enumerate(batch.pairs)
    ]


scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 1.0, 0.1, 0.2, 0.3, 5e-324, 0.9999999999999999]
)


@st.composite
def random_batches(draw):
    size = draw(st.integers(min_value=1, max_value=40))
    width = draw(st.integers(min_value=1, max_value=6))
    lanes, nulls = [], []
    for _ in range(width):
        lane = draw(st.lists(scores, min_size=size, max_size=size))
        null = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        lanes.append([0.0 if n else v for v, n in zip(lane, null)])
        nulls.append(null)
    ids = [f"r{i:03d}" for i in range(size + 1)]
    pairs = [(ids[i], ids[i + 1]) for i in range(size)]
    return make_batch(ids, pairs, lanes, nulls)


@given(batch=random_batches())
@settings(max_examples=200, deadline=None)
def test_lane_mean_equals_scalar_mean_bitwise(batch):
    lane_means = batch.mean_scores()
    for position, vector in enumerate(vectors_of(batch)):
        assert bits(lane_means[position]) == bits(vector.mean()), vector


def test_lane_mean_sums_left_to_right():
    batch = make_batch(["a", "b"], [("a", "b")], [[0.1], [0.2], [0.3]],
                       [[False]] * 3)
    assert batch.mean_scores()[0] == (0.1 + 0.2 + 0.3) / 3


def test_all_null_row_means_zero():
    batch = make_batch(["a", "b"], [("a", "b")], [[0.0], [0.0]],
                       [[True], [True]])
    assert batch.mean_scores().tolist() == [0.0]
    assert batch[0].mean() == 0.0


# -- array connected components ---------------------------------------------


def labels_clustering(ids, edges):
    """Clustering from component_labels over ``edges`` of ``ids``."""
    index = {record_id: i for i, record_id in enumerate(ids)}
    first = np.array([index[a] for a, _ in edges], dtype=np.int64)
    second = np.array([index[b] for _, b in edges], dtype=np.int64)
    labels = component_labels(len(ids), first, second)
    touched = {record_id for edge in edges for record_id in edge}
    groups = {}
    for record_id, label in zip(ids, labels.tolist()):
        if record_id in touched:
            groups.setdefault(label, []).append(record_id)
    return Clustering(groups.values())


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(
            lambda edge: edge[0] != edge[1]
        ),
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_component_labels_equal_from_pairs(edges):
    ids = [f"n{i:02d}" for i in range(31)]
    pairs = [(ids[a], ids[b]) for a, b in edges]
    assert labels_clustering(ids, pairs) == Clustering.from_pairs(pairs)


def test_component_labels_empty_input():
    labels = component_labels(0, np.empty(0), np.empty(0))
    assert labels.tolist() == []
    assert component_labels(3, np.empty(0), np.empty(0)).tolist() == [0, 1, 2]


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_component_labels_long_chain(order):
    count = 5000
    ids = [f"c{i:05d}" for i in range(count)]
    chain = list(range(count))
    if order == "descending":
        chain.reverse()
    elif order == "shuffled":
        random.Random(3).shuffle(chain)
    edges = [(ids[chain[i]], ids[chain[i + 1]]) for i in range(count - 1)]
    clustering = labels_clustering(ids, edges)
    assert clustering == Clustering.from_pairs(edges)
    assert len(clustering) == 1


# -- closure matches ----------------------------------------------------------


def reference_cluster(scored, threshold):
    """The row-by-row clustering stage the lane path replaces."""
    accepted = [sp for sp in scored if sp.score >= threshold]
    clustering = Clustering.from_pairs(sp.pair for sp in accepted)
    score_of = {sp.pair: sp.score for sp in accepted}
    matches = [
        Match(pair=pair, score=score_of.get(pair),
              from_clustering=pair not in score_of)
        for pair in sorted(clustering.pairs())
    ]
    return clustering, matches


@given(
    edges=st.sets(
        st.tuples(st.integers(0, 25), st.integers(0, 25)).filter(
            lambda edge: edge[0] != edge[1]
        ),
        max_size=50,
    ),
    seed=st.integers(0, 1000),
)
@settings(max_examples=100, deadline=None)
def test_closure_matches_equal_row_by_row_clustering(edges, seed):
    rng = random.Random(seed)
    # store rows in an order unrelated to id order
    ids = [f"id{i:02d}" for i in range(26)]
    rng.shuffle(ids)
    pairs = sorted({tuple(sorted((ids[a], ids[b]))) for a, b in edges})
    lane = [rng.choice([0.2, 0.5, 0.8, 0.95]) for _ in pairs]
    batch = make_batch(ids, pairs, [lane], [[False] * len(pairs)])
    scored = ScoredBatch(batch, batch.mean_scores())
    clustering, matches = closure_matches(scored, scored.scores >= 0.8)
    expected_clustering, expected_matches = reference_cluster(scored, 0.8)
    assert matches == expected_matches
    assert clustering.clusters == expected_clustering.clusters


def test_closure_matches_nothing_accepted():
    batch = make_batch(["a", "b"], [("a", "b")], [[0.1]], [[False]])
    scored = ScoredBatch(batch, batch.mean_scores())
    clustering, matches = closure_matches(scored, scored.scores >= 0.5)
    assert matches == [] and len(clustering) == 0


# -- the views behave like the lists they replace ---------------------------


@pytest.fixture(scope="module")
def pipeline_views():
    benchmark = make_person_benchmark(200, seed=4)
    pipeline, _ = build_pipeline_and_index({
        "key": {"kind": "first_token", "attribute": "last_name"},
        "similarities": {
            "first_name": "jaro_winkler",
            "street": "monge_elkan",
            "zip": "exact",
        },
        "threshold": 0.7,
    })
    assert pipeline.decision_model is mean_similarity
    run = pipeline.run(benchmark.dataset)
    scalar = pipeline.with_columnar(False).run(benchmark.dataset)
    return run, scalar


def test_pipeline_returns_lazy_views(pipeline_views):
    run, scalar = pipeline_views
    assert isinstance(run.vectors, PairBatch)
    assert isinstance(run.scored_pairs, ScoredBatch)
    assert isinstance(scalar.vectors, list)
    assert isinstance(scalar.scored_pairs, list)
    assert run.experiment.matches == scalar.experiment.matches


@pytest.mark.parametrize("field", ["vectors", "scored_pairs"])
def test_views_equal_lists(pipeline_views, field):
    run, scalar = pipeline_views
    view, listed = getattr(run, field), getattr(scalar, field)
    assert len(view) == len(listed) > 32
    assert view == listed and listed == view
    assert view == getattr(run, field)
    assert not (view != listed)
    assert list(view) == listed
    for index in (0, 1, len(listed) // 2, -1, -len(listed)):
        assert view[index] == listed[index]
    for part in (slice(3, 40), slice(None, None, 7), slice(-5, None),
                 slice(10, 2)):
        assert view[part] == listed[part]
        assert list(view[part]) == listed[part]
    with pytest.raises(IndexError):
        view[len(listed)]
    assert view[5] in view
    assert view.index(listed[7]) == 7


def test_views_detect_differences(pipeline_views):
    run, scalar = pipeline_views
    assert run.vectors != scalar.vectors[:-1]
    assert run.scored_pairs != scalar.scored_pairs[1:] + scalar.scored_pairs[:1]
    assert run.vectors != run.vectors[1:]
    assert run.vectors != tuple(scalar.vectors)  # a list never equals a tuple


def test_view_elements_are_plain_python_objects(pipeline_views):
    run, _ = pipeline_views
    vector = run.vectors[0]
    assert type(vector) is SimilarityVector
    assert all(v is None or type(v) is float for v in vector.values.values())
    scored = run.scored_pairs[0]
    assert type(scored) is ScoredPair and type(scored.score) is float


def test_accepted_pairs_same_for_views_and_lists(pipeline_views):
    run, scalar = pipeline_views
    assert accepted_pairs(run.scored_pairs, 0.7) == accepted_pairs(
        scalar.scored_pairs, 0.7
    )


def test_other_clustering_algorithms_get_materialized_pairs(pipeline_views):
    run, scalar = pipeline_views
    seen = []

    def spy(pairs):
        seen.append(pairs)
        return center_clustering(pairs)

    from repro.matching.pipeline import MatchingPipeline

    pipeline = MatchingPipeline(
        candidate_generator=lambda dataset: set(),
        comparator=None,
        decision_model=mean_similarity,
        threshold=0.7,
        clustering=spy,
    )
    _, experiment = pipeline._cluster(run.scored_pairs)
    _, expected = pipeline._cluster(scalar.scored_pairs)
    assert type(seen[0]) is list and seen[0] == seen[1]
    assert experiment.matches == expected.matches
