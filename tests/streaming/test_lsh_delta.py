"""Property-based tests for incremental MinHash-LSH delta blocking.

The correctness of streaming LSH rests on one invariant — banding is
append-only, so the union of the delta candidate sets over any batch
split equals the batch :func:`~repro.matching.lsh.lsh_blocking`
candidate set over the same records.  Hypothesis searches randomized
record corpora *and* randomized batch splits for a counterexample.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import Dataset, Record
from repro.matching.lsh import LshConfig, lsh_blocking
from repro.streaming import build_pipeline_and_index, build_session
from repro.streaming.delta_blocking import IncrementalLshIndex

# Small vocabulary + short values maximizes bucket collisions, which is
# where an append-only bookkeeping bug would hide.
words = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsil", "zeta", "eta", "theta"]
)
values = st.lists(words, min_size=0, max_size=4).map(" ".join)

# A faster config than the default keeps hypothesis example counts cheap
# without changing the code path under test.
SMALL = LshConfig(num_perm=16, bands=8)


def make_records(texts: list[str]) -> list[Record]:
    return [
        Record(f"r{index}", {"name": text or None})
        for index, text in enumerate(texts)
    ]


def split_batches(records: list[Record], sizes: list[int]) -> list[list[Record]]:
    """Chop ``records`` into consecutive batches of the drawn sizes."""
    batches = []
    cursor = 0
    for size in sizes:
        if cursor >= len(records):
            break
        batches.append(records[cursor:cursor + size])
        cursor += size
    if cursor < len(records):
        batches.append(records[cursor:])
    return batches


@given(
    texts=st.lists(values, min_size=0, max_size=24),
    sizes=st.lists(st.integers(min_value=1, max_value=7), max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_delta_union_equals_batch_lsh_for_any_split(texts, sizes):
    """Union-of-deltas == batch LSH candidate set, for randomized batch
    splits — the exactness guarantee streaming sessions rely on."""
    records = make_records(texts)
    index = IncrementalLshIndex(SMALL)
    emitted = set()
    for batch in split_batches(records, sizes):
        emitted.update(index.ingest(batch))
    batch_candidates = lsh_blocking(Dataset(records, name="d"), SMALL)
    assert emitted == batch_candidates


@given(
    texts=st.lists(values, min_size=1, max_size=16),
    sizes=st.lists(st.integers(min_value=1, max_value=5), max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_delta_ingests_are_disjoint(texts, sizes):
    """No pair is emitted twice across ingests (deltas partition the
    batch candidate set)."""
    records = make_records(texts)
    index = IncrementalLshIndex(SMALL)
    seen = set()
    for batch in split_batches(records, sizes):
        delta = index.ingest(batch)
        assert not (set(delta) & seen)
        seen.update(delta)


class TestIncrementalLshIndex:
    def test_exact_duplicates_pair_across_batches(self):
        index = IncrementalLshIndex()
        first = index.ingest([Record("a", {"name": "john smith"})])
        assert first == []
        second = index.ingest([Record("b", {"name": "john smith"})])
        assert second == [("a", "b")]

    def test_tokenless_records_join_silently(self):
        index = IncrementalLshIndex()
        assert index.ingest([Record("a", {"name": None})]) == []
        assert "a" in index
        assert index.block_count == 0

    def test_retract_undoes_the_latest_ingest(self):
        index = IncrementalLshIndex()
        index.ingest([Record("a", {"name": "john smith"})])
        before = index.block_items()
        delta = index.ingest_delta([Record("b", {"name": "john smith"})])
        assert delta.pairs == [("a", "b")]
        index.retract(delta)
        assert index.block_items() == before
        assert "b" not in index
        # a retracted record re-ingests with the identical delta
        assert index.ingest([Record("b", {"name": "john smith"})]) == [("a", "b")]

    def test_restore_round_trips_without_rehashing(self):
        index = IncrementalLshIndex()
        index.ingest(
            [Record("a", {"name": "john smith"}),
             Record("b", {"name": "john smith"}),
             Record("c", {"name": "unrelated tokens"})]
        )
        clone = IncrementalLshIndex()
        clone.restore(index.ids, index.block_items())
        assert clone.block_items() == index.block_items()
        # the restored index keeps emitting correct deltas
        assert clone.ingest([Record("d", {"name": "john smith"})]) == [
            ("a", "d"), ("b", "d")
        ]

    def test_config_fingerprint_matches_batch_blocker(self):
        from repro.matching.lsh import LshBlocking

        config = LshConfig(num_perm=64, bands=16)
        assert (
            IncrementalLshIndex(config).config_fingerprint()
            == LshBlocking(config).config_fingerprint()
        )

    def test_capped_index_stops_emitting(self):
        config = LshConfig(max_block_size=2)
        index = IncrementalLshIndex(config)
        records = [Record(f"r{i}", {"name": "same tokens"}) for i in range(4)]
        index.ingest(records[:2])
        assert index.ingest(records[2:]) == []  # buckets are full


LSH_STREAM_CONFIG = {
    "key": {"kind": "lsh", "num_perm": 64, "bands": 16, "seed": 5},
    "similarities": {"name": "jaro_winkler", "zip": "exact"},
    "threshold": 0.7,
}


class TestLshStreamingSession:
    def rows(self):
        return [
            Record("r1", {"name": "alpha centauri system", "zip": "12"}),
            Record("r2", {"name": "alpha centauri systm", "zip": "12"}),
            Record("r3", {"name": "beta pictoris", "zip": "99"}),
            Record("r4", {"name": "beta pictoris b", "zip": "99"}),
            Record("r5", {"name": "gamma draconis", "zip": "50"}),
            Record("r6", {"name": "wholly different", "zip": "77"}),
        ]

    def test_incremental_clusters_equal_batch_recompute(self):
        records = self.rows()
        session = build_session(LSH_STREAM_CONFIG, name="lsh-stream")
        for start in range(0, len(records), 2):
            session.ingest(records[start:start + 2])
        pipeline, _ = build_pipeline_and_index(LSH_STREAM_CONFIG)
        batch_run = pipeline.run(Dataset(records, name="batch"))
        assert (
            session.clusters().nontrivial_clusters()
            == batch_run.experiment.clustering().nontrivial_clusters()
        )

    def test_status_reports_lsh_blocking(self):
        session = build_session(LSH_STREAM_CONFIG, name="lsh-stream")
        blocking = session.status()["blocking"]
        assert blocking["kind"] == "lsh"
        assert blocking["num_perm"] == 64
        assert blocking["rows"] == 4  # normalized: derived from bands

    def test_malformed_lsh_config_raises_value_error(self):
        bad = {
            "key": {"kind": "lsh", "num_perm": 100, "bands": 33},
            "similarities": {"name": "exact"},
        }
        with pytest.raises(ValueError, match="divide"):
            build_session(bad, name="broken")


class TestWindowedBlockerRejection:
    def test_sorted_neighborhood_gets_an_explanatory_error(self):
        """Regression: windowed blockers must fail loudly in delta mode
        with the *reason*, not a generic unknown-kind message."""
        from repro.streaming import validate_config

        config = {
            "key": {"kind": "sorted_neighborhood", "attribute": "name"},
            "similarities": {"name": "exact"},
        }
        with pytest.raises(ValueError, match="sort order"):
            validate_config(config)
        with pytest.raises(ValueError, match="delta"):
            validate_config(config)

    def test_unknown_kinds_list_the_supported_ones(self):
        from repro.streaming import validate_config

        with pytest.raises(ValueError, match="first_token.*lsh"):
            validate_config(
                {"key": {"kind": "nope"}, "similarities": {"name": "exact"}}
            )
