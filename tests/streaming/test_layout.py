"""The session's append-only layout: one columnar store per stream session.

Every ingest extends the layout with its prepared batch and scores the
delta against it.  Each batch's lanes must be bit-identical to scoring
on a store built from just the records that batch's pairs touch; a
resumed session lays out on its first ingest, rows = the session's
numeric ids; and a session builds one store in its whole life, the
layout, while a batch builds none.
"""

import random

import numpy as np

from repro.matching.comparison import score_candidates
from repro.storage.database import FrostStore
from repro.streaming import build_session, open_session
from repro.telemetry.metrics import get_metrics

SIMILARITIES = {
    "first": "jaro_winkler",
    "last": "monge_elkan",
    "city": "ngram_jaccard",
    "zip": "numeric",
}
CONFIG = {
    "key": {"kind": "first_token", "attribute": "last"},
    "similarities": SIMILARITIES,
    "threshold": 0.8,
}

FIRST = ["alice", "alicia", "bob", "robert", "carol", "karol"]
LAST = ["smith", "smyth", "jones", "johnson", "miller"]
CITY = ["berlin", "potsdam", "hamburg", "", None]
ZIP = ["10115", "10117", "nan", "inf", None, "80331"]


def batches(count=5, size=8, seed=3):
    rng = random.Random(seed)
    rows = [
        {
            "id": f"p{index:03d}",
            "first": rng.choice(FIRST),
            "last": rng.choice(LAST),
            "city": rng.choice(CITY),
            "zip": rng.choice(ZIP),
        }
        for index in range(count * size)
    ]
    return [rows[start:start + size] for start in range(0, len(rows), size)]


def record_comparisons(session, monkeypatch):
    """Per ingest, the session's batch and one scored on a touched-records store."""
    comparisons: list[tuple] = []
    compare = session.pipeline.compare_candidates

    def recording(prepared, candidates):
        vectors = compare(prepared, candidates)
        touched = {rid: prepared[rid] for pair in candidates for rid in pair}
        reference, _ = score_candidates(
            touched, candidates, session.pipeline.comparator
        )
        comparisons.append((vectors, reference))
        return vectors

    monkeypatch.setattr(session.pipeline, "compare_candidates", recording)
    return comparisons


def test_batches_score_like_a_store_of_their_touched_records(monkeypatch):
    session = build_session(CONFIG)
    comparisons = record_comparisons(session, monkeypatch)
    for batch in batches():
        session.ingest(batch)
    assert sum(len(vectors) for vectors, _ in comparisons) > 0
    for vectors, reference in comparisons:
        assert vectors.pairs == reference.pairs
        for mine, theirs in zip(vectors.lanes, reference.lanes):
            assert mine.tobytes() == theirs.tobytes()
        for mine, theirs in zip(vectors.nulls, reference.nulls):
            assert np.array_equal(mine, theirs)
        # the session's batches point into its layout
        assert vectors.row_ids is not reference.row_ids
        assert [vectors.row_ids[row] for row in vectors.rows_a.tolist()] == [
            pair[0] for pair in vectors.pairs
        ]


def assert_rows_are_numeric_ids(session):
    assert session._layout.row_ids == tuple(session._native)
    for native, numeric in session._numeric.items():
        assert session._layout.row_of(native) == numeric


def test_layout_rows_are_the_session_numeric_ids():
    session = build_session(CONFIG)
    for batch in batches():
        session.ingest(batch)
        assert_rows_are_numeric_ids(session)


def test_resume_lays_out_on_its_first_ingest():
    store = FrostStore(":memory:")
    everything = batches()
    session = build_session(CONFIG, store=store, name="s")
    for batch in everything[:3]:
        session.ingest(batch)
    resumed = open_session(store, "s")
    assert resumed._layout is None
    for batch in everything[3:]:
        resumed.ingest(batch)
        assert_rows_are_numeric_ids(resumed)
    uninterrupted = build_session(CONFIG)
    for batch in everything:
        uninterrupted.ingest(batch)
    assert resumed.snapshots == uninterrupted.snapshots
    assert set(resumed.clusters().clusters) == set(
        uninterrupted.clusters().clusters
    )


def test_one_store_build_per_session():
    builds = get_metrics().counter("frost_kernel_store_builds_total")
    store = FrostStore(":memory:")
    everything = batches()
    before = builds.value
    session = build_session(CONFIG, store=store, name="s")
    for batch in everything[:3]:
        session.ingest(batch)
    assert builds.value == before + 1  # the layout, on the first ingest
    before = builds.value
    resumed = open_session(store, "s")
    assert builds.value == before
    for batch in everything[3:]:
        resumed.ingest(batch)
    assert builds.value == before + 1  # the resumed session's layout


def test_one_store_build_per_pipeline_run():
    builds = get_metrics().counter("frost_kernel_store_builds_total")
    session = build_session(CONFIG)
    for batch in batches():
        session.ingest(batch)
    dataset = session.dataset()
    before = builds.value
    session.pipeline.run(dataset)
    assert builds.value == before + 1
