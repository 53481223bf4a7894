"""Regression: records deleted between blocking and scoring.

Candidate generation and comparison may be separated by arbitrary time
(engine job graphs run them as distinct jobs; streaming sessions score
against a live registry).  A record deleted in between must not crash
the comparison stage with ``KeyError`` — its pairs are skipped with a
warning and every other pair is scored normally.
"""

from __future__ import annotations

import logging

from repro.core.records import Record
from repro.matching import AttributeComparator, MatchingPipeline
from repro.matching.comparison import resolve_candidates, score_candidates


class _Registry:
    """Dict-backed record lookup, like the streaming session's registry."""

    def __init__(self, records):
        self._records = {record.record_id: record for record in records}

    def delete(self, record_id):
        del self._records[record_id]

    def __getitem__(self, record_id):
        return self._records[record_id]


RECORDS = [
    Record("r1", {"name": "alice smith"}),
    Record("r2", {"name": "alice smyth"}),
    Record("r3", {"name": "bob jones"}),
    Record("r4", {"name": "bob jonas"}),
]
CANDIDATES = {("r1", "r2"), ("r1", "r3"), ("r2", "r4"), ("r3", "r4")}


def _pipeline() -> MatchingPipeline:
    return MatchingPipeline(
        candidate_generator=lambda dataset: set(CANDIDATES),
        comparator=AttributeComparator({"name": "jaro_winkler"}),
        decision_model=lambda vector: vector.mean(),
    )


def test_resolve_candidates_reports_missing():
    registry = _Registry(RECORDS)
    registry.delete("r2")
    ordered, resolved, missing = resolve_candidates(registry, CANDIDATES)
    assert missing == ["r2"]
    assert ordered == [("r1", "r3"), ("r3", "r4")]
    assert set(resolved) == {"r1", "r3", "r4"}


def test_compare_candidates_skips_deleted_records(caplog):
    registry = _Registry(RECORDS)
    registry.delete("r2")
    pipeline = _pipeline()
    with caplog.at_level(logging.WARNING, logger="repro.matching.pipeline"):
        vectors = pipeline.compare_candidates(registry, CANDIDATES)
    assert [vector.pair for vector in vectors] == [("r1", "r3"), ("r3", "r4")]
    assert any("r2" in message for message in caplog.messages)
    assert any("deleted between" in message for message in caplog.messages)


def test_compare_candidates_intact_registry_does_not_warn(caplog):
    pipeline = _pipeline()
    with caplog.at_level(logging.WARNING, logger="repro.matching.pipeline"):
        vectors = pipeline.compare_candidates(_Registry(RECORDS), CANDIDATES)
    assert len(vectors) == len(CANDIDATES)
    assert not caplog.messages


def test_kernel_path_reports_deleted_records():
    registry = _Registry(RECORDS)
    registry.delete("r4")
    vectors, missing = score_candidates(
        registry,
        CANDIDATES,
        AttributeComparator({"name": "jaro_winkler"}),
    )
    assert [vector.pair for vector in vectors] == [("r1", "r2"), ("r1", "r3")]
    assert missing == ["r4"]
