"""The comparison stage: one process, kernel lanes or the row loop.

:func:`repro.matching.comparison.score_candidates` scores an
:class:`AttributeComparator` through the batch kernels and every other
comparator (subclasses, duck types) through the serial row loop.  Both
paths must agree pair for pair and bit for bit, whatever the decision
model downstream, and must share one contract: sorted-pair order,
dropped pairs of missing records, counted work, a traced span.
Subclassed and duck-typed comparators are scored pair by pair into a
list; whatever :class:`SimilarityVector` subclass they return must come
back as itself.
"""

from __future__ import annotations

import importlib
import struct

import pytest

from repro.columnar import ColumnarStore, PairBatch
from repro.core.confusion import ConfusionMatrix
from repro.core.pairs import make_pair
from repro.core.records import Dataset, Record
from repro.datagen import make_person_benchmark
from repro.matching import (
    AttributeComparator,
    MatchingPipeline,
    RuleSet,
    SimilarityVector,
    attribute_threshold_rule,
    standard_blocking,
    weighted_average_rule,
)
from repro.matching.blocking import first_token_key
from repro.matching.comparison import resolve_candidates, score_candidates
from repro.matching.ml import LogisticRegressionModel
from repro.matching.similarity import TfIdfCosine
from repro.metrics.registry import default_registry
from repro.streaming import build_session
from repro.telemetry import get_tracer
from repro.telemetry.metrics import get_metrics


class _TaggedVector(SimilarityVector):
    """A SimilarityVector subclass a duck comparator might return."""


class _TaggingComparator:
    def compare(self, first, second):
        return _TaggedVector(
            pair=make_pair(first.record_id, second.record_id),
            values={"last_name": 1.0 if first.value("last_name")
                    == second.value("last_name") else 0.0},
        )


RECORDS = {
    record.record_id: record
    for record in (
        Record("p0-0", {"last_name": "smith"}),
        Record("p0-1", {"last_name": "smith"}),
        Record("p1-0", {"last_name": "jones"}),
        Record("p2-0", {"last_name": "jonas"}),
    )
}


def test_row_loop_preserves_vector_subclasses():
    """The row loop never rebuilds a duck comparator's vector subclass
    as the plain base class."""
    pairs = [("p1-0", "p2-0"), ("p0-0", "p0-1")]
    vectors, missing = score_candidates(RECORDS, pairs, _TaggingComparator())
    assert missing == []
    assert isinstance(vectors, list)
    assert [vector.pair for vector in vectors] == sorted(pairs)
    assert all(type(vector) is _TaggedVector for vector in vectors)
    assert [vector.values["last_name"] for vector in vectors] == [1.0, 0.0]


# -- pipeline runs: kernel lanes against the row loop -------------------

# Large enough to produce hundreds of candidate pairs and
# non-trivial clusters, small enough to keep the row loop quick.
BENCHMARK = make_person_benchmark(300, seed=17)

FUNCTIONS = {
    "first_name": "jaro_winkler",
    "last_name": "jaro_winkler",
    "street": "monge_elkan",
    "city": "jaro_winkler",
    "zip": "exact",
}


class RowLoopComparator(AttributeComparator):
    """A trivial subclass: it gets no kernel plan, so the row loop
    scores it with the very same measures."""


def _candidates(prepared):
    return standard_blocking(prepared, first_token_key("last_name"))


def _pipeline(comparator, decision_model) -> MatchingPipeline:
    return MatchingPipeline(
        candidate_generator=_candidates,
        comparator=comparator,
        decision_model=decision_model,
        threshold=0.5,
        name="equivalence",
    )


def _rule_model():
    return RuleSet(
        [
            attribute_threshold_rule("last_name", 0.92),
            weighted_average_rule(
                {"first_name": 2.0, "last_name": 3.0, "city": 1.0},
                threshold=0.85,
            ),
        ]
    ).score


def _logistic_model():
    comparator = AttributeComparator(FUNCTIONS)
    pipeline = _pipeline(comparator, lambda v: v.mean())
    prepared = pipeline.prepare(BENCHMARK.dataset)
    vectors = pipeline.compare_candidates(prepared, _candidates(prepared))
    gold_pairs = BENCHMARK.gold.pairs()
    model = LogisticRegressionModel(
        attributes=comparator.attributes, iterations=60, seed=5
    )
    model.fit(vectors, [vector.pair in gold_pairs for vector in vectors])
    return model.score


def _mean_model():
    return lambda vector: vector.mean()


def _metrics(experiment):
    matrix = ConfusionMatrix.from_clusterings(
        experiment.clustering(),
        BENCHMARK.gold.clustering,
        BENCHMARK.dataset.total_pairs(),
    )
    return default_registry().evaluate(matrix, ["precision", "recall", "f1"])


def _bits(value):
    return None if value is None else struct.pack("<d", value)


def _vector_bits(vectors):
    return [
        (
            vector.pair,
            [(name, _bits(value)) for name, value in vector.values.items()],
        )
        for vector in vectors
    ]


def _assert_runs_identical(fast, slow):
    assert _vector_bits(fast.vectors) == _vector_bits(slow.vectors)
    assert [(sp.pair, _bits(sp.score)) for sp in fast.scored_pairs] == [
        (sp.pair, _bits(sp.score)) for sp in slow.scored_pairs
    ]
    assert set(fast.experiment.clustering().clusters) == set(
        slow.experiment.clustering().clusters
    )
    assert _metrics(fast.experiment) == _metrics(slow.experiment)


@pytest.mark.parametrize(
    "decision_model",
    [_rule_model, _logistic_model, _mean_model],
    ids=["rules", "logistic", "mean"],
)
def test_kernel_run_matches_the_row_loop(decision_model):
    model = decision_model()
    fast = _pipeline(AttributeComparator(FUNCTIONS), model).run(
        BENCHMARK.dataset
    )
    slow = _pipeline(RowLoopComparator(FUNCTIONS), model).run(
        BENCHMARK.dataset
    )
    assert isinstance(fast.vectors, PairBatch)
    assert isinstance(slow.vectors, list)
    assert len(fast.vectors) > 500
    _assert_runs_identical(fast, slow)


def test_tfidf_comparator_matches_the_row_loop():
    """A fitted, corpus-carrying measure scores identically on both
    paths."""
    street = TfIdfCosine(
        record.value("street") or "" for record in BENCHMARK.dataset
    )
    functions = {
        "first_name": "jaro_winkler",
        "last_name": "jaro_winkler",
        "street": street,
        "zip": "exact",
    }
    fast = _pipeline(AttributeComparator(functions), _mean_model()).run(
        BENCHMARK.dataset
    )
    slow = _pipeline(RowLoopComparator(functions), _mean_model()).run(
        BENCHMARK.dataset
    )
    _assert_runs_identical(fast, slow)


class _ClosureComparator:
    """Duck-typed comparator holding a closure."""

    def __init__(self):
        self._measure = lambda a, b: 1.0 if a == b else 0.0

    def compare(self, first, second):
        return SimilarityVector(
            pair=make_pair(first.record_id, second.record_id),
            values={
                "last_name": self._measure(
                    first.value("last_name"), second.value("last_name")
                )
            },
        )


def test_closure_comparator_scores_every_candidate_directly():
    comparator = _ClosureComparator()
    run = _pipeline(comparator, _mean_model()).run(BENCHMARK.dataset)
    prepared = _pipeline(comparator, _mean_model()).prepare(BENCHMARK.dataset)
    expected = [
        comparator.compare(prepared[first], prepared[second])
        for first, second in sorted(_candidates(prepared))
    ]
    assert run.vectors == expected
    assert {sp.pair for sp in run.scored_pairs} == {v.pair for v in expected}


STREAM_CONFIG = {
    "key": {"kind": "first_token", "attribute": "last_name"},
    "similarities": {
        "first_name": "jaro_winkler",
        "last_name": "jaro_winkler",
        "street": "monge_elkan",
        "zip": "exact",
    },
    "threshold": 0.8,
}


@pytest.mark.parametrize(
    "parallelism",
    [{"workers": 2, "shards": 3}, {"workers": 4}],
    ids=["workers-and-shards", "workers-only"],
)
def test_stale_parallelism_key_ingests_like_a_plain_stream(parallelism):
    """A stream config written when sharded scoring existed still
    carries ``"parallelism"``: it is ignored, and every batch folds the
    same matches into the same clusters as a config without it."""
    records = list(BENCHMARK.dataset)
    batches = [records[:120], records[120:200], records[200:]]
    plain = build_session(STREAM_CONFIG, name="plain")
    stale = build_session(
        {**STREAM_CONFIG, "parallelism": parallelism}, name="stale"
    )
    assert "parallelism" not in stale.status()
    for batch in batches:
        assert stale.ingest(batch) == plain.ingest(batch)
    assert set(stale.clusters().clusters) == set(plain.clusters().clusters)
    assert (
        stale.experiment(name="stream").matches
        == plain.experiment(name="stream").matches
    )


# -- score_candidates: one contract for both paths ----------------------

DATASET = Dataset(
    [
        Record("a1", {"first_name": "john", "last_name": "smith"}),
        Record("a2", {"first_name": "jon", "last_name": "smith"}),
        Record("b1", {"first_name": "mary", "last_name": "jones"}),
        Record("b2", {"first_name": "maria", "last_name": None}),
        Record("c1", {"first_name": "carol", "last_name": "miller"}),
    ],
    name="tiny",
)
RECORDS_BY_ID = {record.record_id: record for record in DATASET}
SIMILARITIES = {"first_name": "jaro_winkler", "last_name": "monge_elkan"}
PATHS = {
    "kernel": lambda: AttributeComparator(SIMILARITIES),
    "row_loop": lambda: RowLoopComparator(SIMILARITIES),
}
SPAN_OF = {"kernel": "comparison.columnar", "row_loop": "comparison.serial"}
PAIRS = [("b1", "b2"), ("a1", "a2"), ("a2", "c1"), ("a1", "b1")]


def _reference(pairs):
    comparator = AttributeComparator(SIMILARITIES)
    return _vector_bits(
        comparator.compare(DATASET[first], DATASET[second])
        for first, second in sorted(pairs)
    )


@pytest.fixture(params=sorted(PATHS))
def path(request):
    return request.param


def test_scores_in_sorted_pair_order(path):
    vectors, missing = score_candidates(DATASET, PAIRS, PATHS[path]())
    assert missing == []
    assert [vector.pair for vector in vectors] == sorted(PAIRS)
    assert _vector_bits(vectors) == _reference(PAIRS)


def test_no_candidates_score_nothing(path):
    vectors, missing = score_candidates(DATASET, [], PATHS[path]())
    assert list(vectors) == []
    assert missing == []


def test_any_iterable_of_candidates(path):
    from_list, _ = score_candidates(DATASET, list(PAIRS), PATHS[path]())
    from_set, _ = score_candidates(DATASET, set(PAIRS), PATHS[path]())
    from_generator, _ = score_candidates(
        DATASET, (pair for pair in PAIRS), PATHS[path]()
    )
    assert (
        _vector_bits(from_list)
        == _vector_bits(from_set)
        == _vector_bits(from_generator)
    )


def test_missing_records_are_reported_once_in_sorted_order(path):
    pairs = PAIRS + [("zz-gone", "a1"), ("b1", "aa-gone"), ("a2", "zz-gone")]
    vectors, missing = score_candidates(DATASET, pairs, PATHS[path]())
    assert missing == ["aa-gone", "zz-gone"]
    assert _vector_bits(vectors) == _reference(PAIRS)


def test_duplicate_candidates_are_scored_each_time(path):
    pairs = PAIRS + [("a1", "a2"), ("a1", "a2")]
    vectors, _ = score_candidates(DATASET, pairs, PATHS[path]())
    assert [vector.pair for vector in vectors] == sorted(pairs)
    assert _vector_bits(vectors) == _reference(pairs)


def test_every_resolved_pair_is_counted(path):
    counter = get_metrics().counter("frost_comparison_pairs_total")
    before = counter.value
    score_candidates(DATASET, PAIRS + [("a1", "gone")], PATHS[path]())
    assert counter.value == before + len(PAIRS)


def test_the_comparison_is_traced(path):
    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    try:
        with tracer.span("test.compare"):
            score_candidates(DATASET, PAIRS, PATHS[path]())
        (root,) = tracer.roots()
    finally:
        tracer.disable()
        tracer.reset()
    *ordering, comparison = root.children
    assert comparison.name == SPAN_OF[path]
    assert comparison.annotations["pairs"] == len(PAIRS)
    # the kernel path resolves and orders the pairs in a span of its own
    assert [span.name for span in ordering] == (
        ["comparison.order"] if path == "kernel" else []
    )


def test_row_loop_pairs_count_as_fallback():
    fallback = get_metrics().counter("frost_kernel_fallback_pairs_total")
    kernel = get_metrics().counter("frost_kernel_pairs_total")
    before = (fallback.value, kernel.value)
    score_candidates(DATASET, PAIRS, RowLoopComparator(SIMILARITIES))
    assert (fallback.value, kernel.value) == (
        before[0] + len(PAIRS), before[1]
    )
    score_candidates(DATASET, PAIRS, AttributeComparator(SIMILARITIES))
    assert (fallback.value, kernel.value) == (
        before[0] + len(PAIRS), before[1] + len(PAIRS)
    )


class TestSuppliedStore:
    """A prebuilt store skips interning when it covers the comparator."""

    @pytest.fixture
    def builds(self):
        return get_metrics().counter("frost_kernel_store_builds_total")

    def test_a_covering_store_is_used_as_is(self, builds):
        store = ColumnarStore.from_records(RECORDS_BY_ID, list(SIMILARITIES))
        before = builds.value
        vectors, missing = score_candidates(
            DATASET, PAIRS, AttributeComparator(SIMILARITIES), store=store
        )
        assert builds.value == before
        assert missing == []
        assert _vector_bits(vectors) == _reference(PAIRS)

    def test_a_store_lacking_an_attribute_is_replaced(self, builds):
        store = ColumnarStore.from_records(RECORDS_BY_ID, ["first_name"])
        before = builds.value
        vectors, _ = score_candidates(
            DATASET, PAIRS, AttributeComparator(SIMILARITIES), store=store
        )
        assert builds.value == before + 1
        assert _vector_bits(vectors) == _reference(PAIRS)

    def test_the_store_rows_decide_what_is_missing(self):
        """An id the supplied store lacks is missing, even when the
        records still hold it (deleted between layout and scoring)."""
        kept = {rid: DATASET[rid] for rid in ("a1", "a2", "b1", "b2")}
        store = ColumnarStore.from_records(kept, list(SIMILARITIES))
        vectors, missing = score_candidates(
            DATASET, PAIRS, AttributeComparator(SIMILARITIES), store=store
        )
        assert missing == ["c1"]
        assert _vector_bits(vectors) == _reference(
            [pair for pair in PAIRS if "c1" not in pair]
        )


class TestResolveCandidates:
    def test_sorted_pairs_and_their_records(self):
        ordered, resolved, missing = resolve_candidates(DATASET, PAIRS)
        assert ordered == sorted(PAIRS)
        assert missing == []
        assert set(resolved) == {rid for pair in PAIRS for rid in pair}
        assert all(resolved[rid] is DATASET[rid] for rid in resolved)

    def test_a_mapping_resolves_like_a_dataset(self):
        mapping = {record.record_id: record for record in DATASET}
        assert resolve_candidates(mapping, PAIRS) == resolve_candidates(
            DATASET, PAIRS
        )

    def test_pairs_of_missing_records_are_dropped(self):
        ordered, resolved, missing = resolve_candidates(
            DATASET, PAIRS + [("a1", "gone"), ("gone", "zz")]
        )
        assert ordered == sorted(PAIRS)
        assert missing == ["gone", "zz"]
        assert "gone" not in resolved and "zz" not in resolved


# -- retired surfaces stay retired -------------------------------------


@pytest.mark.parametrize(
    "module",
    ["repro.matching.parallel", "repro.engine.executors", "repro.blocking_disk"],
)
def test_retired_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_the_pipeline_takes_no_parallelism():
    with pytest.raises(TypeError):
        MatchingPipeline(
            candidate_generator=_candidates,
            comparator=AttributeComparator(FUNCTIONS),
            decision_model=_mean_model(),
            parallelism=None,
        )


def test_the_pipeline_takes_no_blocking_storage():
    with pytest.raises(TypeError):
        MatchingPipeline(
            candidate_generator=_candidates,
            comparator=AttributeComparator(FUNCTIONS),
            decision_model=_mean_model(),
            blocking_storage="disk",
        )
    assert not hasattr(MatchingPipeline, "with_blocking_storage")
