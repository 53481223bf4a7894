"""Streaming on integer rows: rollback, resume and the layout score memo.

A session scores its delta lanes as layout rows: the index's ids are
the session's numeric ids.  These tests pin what that must not change:

* a batch whose scoring or decision raises leaves the session exactly
  as before it — registry, index and its id table, layout, union-find —
  so the corrected batch ingests, and a resumed durable session equals
  the live one;
* a resumed session, whose index is restored from its numeric-id
  table (keyless records included) and the persisted block rows,
  equals the uninterrupted session's index and keeps ingesting like it;
* a batch whose value pairs earlier batches already scored is served
  from the layout's score memo without calling the measure;
* threads scoring one shared layout at once get the serial vectors.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.records import Record
from repro.datagen import make_person_benchmark
from repro.matching.comparison import score_candidates
from repro.matching.similarity import SIMILARITY_FUNCTIONS, jaro_winkler
from repro.storage.database import FrostStore
from repro.streaming import build_pipeline_and_index, build_session, open_session
from repro.telemetry.metrics import get_metrics


def person(record_id, first, last, city=None):
    return Record(record_id, {"first": first, "last": last, "city": city})


def boom_aware(first: str, second: str) -> float:
    """A custom measure that cannot score the value ``"boom"``."""
    if "boom" in (first, second):
        raise RuntimeError("cannot score 'boom'")
    return jaro_winkler(first, second)


BOOM_CONFIG = {
    "key": {"kind": "first_token", "attribute": "last"},
    "similarities": {"first": "boom_aware", "last": "jaro_winkler"},
    "threshold": 0.8,
}
FIRST_BATCH = [person("a", "ann", "smith"), person("b", "anne", "smith")]
BAD_BATCH = [person("c", "boom", "smith"), person("d", "bob", "jones")]
FIXED_BATCH = [person("c", "annie", "smith"), person("d", "bob", "jones")]
LAST_BATCH = [person("e", "ann", "smith"), person("f", "bobby", "jones")]


def live_state(session):
    return (
        session.status(),
        set(session.clusters().clusters),
        [snapshot.as_dict() for snapshot in session.snapshots],
        [(sp.pair, sp.score) for sp in session._accepted],
        session.index.block_items(),
        list(session.index.ids),
        list(session._native),
        dict(session._numeric),
        sorted(session._prepared),
    )


def durable_state(session):
    return (
        session.status(),
        set(session.clusters().clusters),
        [snapshot.as_dict() for snapshot in session.snapshots],
        [(sp.pair, sp.score) for sp in session._accepted],
    )


@pytest.fixture
def boom_measure(monkeypatch):
    monkeypatch.setitem(SIMILARITY_FUNCTIONS, "boom_aware", boom_aware)


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
@pytest.mark.parametrize("stage", ["scoring", "decision"])
def test_a_failed_scoring_leaves_the_session_untouched(
    boom_measure, durable, stage
):
    store = FrostStore(":memory:") if durable else None
    session = build_session(BOOM_CONFIG, store=store, name="s")
    session.ingest(FIRST_BATCH)
    before = live_state(session)
    unionfind = session._unionfind

    with pytest.MonkeyPatch.context() as patch:
        batch = BAD_BATCH
        if stage == "decision":
            def failing(vectors):
                raise RuntimeError("decision failed")

            patch.setattr(session.pipeline, "score_vectors", failing)
            batch = FIXED_BATCH
        with pytest.raises(RuntimeError, match="boom|decision failed"):
            session.ingest(batch)
    assert live_state(session) == before
    assert (session.version, session.record_count) == (1, 2)
    assert session._layout is None
    if not durable:
        # no per-batch copy: the union-find only grows once scoring is done
        assert session._unionfind is unionfind

    session.ingest(FIXED_BATCH)
    session.ingest(LAST_BATCH)
    reference_store = FrostStore(":memory:") if durable else None
    reference = build_session(BOOM_CONFIG, store=reference_store, name="s")
    for good in (FIRST_BATCH, FIXED_BATCH, LAST_BATCH):
        reference.ingest(good)
    assert durable_state(session) == durable_state(reference)
    assert session._layout.row_ids == tuple(session._native)
    if durable:
        resumed = open_session(store, "s")
        assert durable_state(resumed) == durable_state(session)
        assert store.load_stream("s")["merges"] == (
            reference_store.load_stream("s")["merges"]
        )


# -- resume: the index ids stay the numeric ids ---------------------------

TOKEN_CONFIG = {
    "key": {"kind": "token", "attributes": ["last", "city"],
            "min_token_length": 3},
    "similarities": {"first": "jaro_winkler", "last": "jaro_winkler",
                     "city": "ngram_jaccard"},
    "threshold": 0.75,
}
FIRSTS = ["ann", "anna", "bob", "rob", "carl", "karl"]
LASTS = ["smith", "smyth", "jones", "lee", "", None]
CITIES = ["north hill", "hill", "south bay", None, "ab"]


def token_batches(count=6, size=12, seed=5):
    rng = random.Random(seed)
    rows = [
        {
            "id": f"q{rng.randrange(10**5):05d}-{index}",
            "first": rng.choice(FIRSTS),
            "last": rng.choice(LASTS),
            "city": rng.choice(CITIES),
        }
        for index in range(count * size)
    ]
    return [rows[start:start + size] for start in range(0, len(rows), size)]


def assert_same_index(resumed, live, keyless):
    assert len(resumed) == len(live)
    assert all(record_id in resumed for record_id in keyless)
    assert list(resumed.ids) == list(live.ids)
    assert resumed.block_items() == live.block_items()


def test_a_resumed_session_with_keyless_records_ingests_like_an_uninterrupted_one():
    everything = token_batches()
    store = FrostStore(":memory:")
    session = build_session(TOKEN_CONFIG, store=store, name="s")
    for batch in everything[:3]:
        session.ingest(batch)
    resumed = open_session(store, "s")
    reference_store = FrostStore(":memory:")
    reference = build_session(TOKEN_CONFIG, store=reference_store, name="s")
    for batch in everything[:3]:
        reference.ingest(batch)
    # some records have no block key; they keep their numeric id in the
    # restored index all the same, so it equals the live one
    keyless = [
        row["id"] for batch in everything[:3] for row in batch
        if not row["last"] and not row["city"]
    ]
    assert keyless
    assert_same_index(resumed.index, reference.index, keyless)
    assert list(resumed.index.ids) == resumed._native
    for batch in everything[3:]:
        resumed.ingest(batch)
        reference.ingest(batch)
        assert_same_index(resumed.index, reference.index, keyless)
    assert resumed.snapshots == reference.snapshots
    assert sum(s.accepted_matches for s in reference.snapshots) > 0
    assert [(sp.pair, sp.score) for sp in resumed._accepted] == [
        (sp.pair, sp.score) for sp in reference._accepted
    ]
    assert set(resumed.clusters().clusters) == set(reference.clusters().clusters)
    assert store.load_stream("s")["merges"] == (
        reference_store.load_stream("s")["merges"]
    )


# -- the layout score memo ---------------------------------------------------


def test_a_batch_of_known_value_pairs_is_served_from_the_memo(monkeypatch):
    calls = []

    def counting(first, second):
        calls.append((first, second))
        return 1.0 if first == second else 0.0

    monkeypatch.setitem(SIMILARITY_FUNCTIONS, "counting", counting)
    session = build_session({
        "key": {"kind": "first_token", "attribute": "last"},
        "similarities": {"first": "counting"},
        "threshold": 0.5,
    })
    session.ingest([person("a1", "ann", "smith"), person("b1", "bob", "smith"),
                    person("a2", "ann", "smith")])
    assert sorted(calls) == [("ann", "ann"), ("ann", "bob")]

    metrics = get_metrics()
    counters = [
        metrics.counter(name)
        for name in (
            "frost_kernel_memo_hits_total",
            "frost_kernel_memo_misses_total",
            "frost_kernel_distinct_pairs_total",
        )
    ]
    before = [counter.value for counter in counters]
    calls.clear()
    # (a1, a3), (a2, a3): ann/ann; (a3, b1): ann/bob — all scored before
    snapshot = session.ingest([person("a3", "ann", "smith")])
    assert snapshot.delta_candidates == 3
    assert calls == []
    hits, misses, distinct = (
        counter.value - start for counter, start in zip(counters, before)
    )
    assert (hits, misses, distinct) == (2, 0, 2)
    assert [sorted(cluster) for cluster in session.clusters().clusters] == [
        ["a1", "a2", "a3"]
    ]


# -- threads scoring one shared layout ---------------------------------------

STRESS_SECONDS = 2.0
JOIN_SECONDS = 60.0


def test_threads_scoring_one_layout_get_the_serial_vectors():
    pipeline, _ = build_pipeline_and_index({
        "key": {"kind": "first_token", "attribute": "last_name"},
        "similarities": {"first_name": "jaro_winkler",
                         "last_name": "monge_elkan",
                         "city": "levenshtein", "street": "ngram_jaccard"},
        "threshold": 0.8,
    })
    dataset = make_person_benchmark(400, seed=9).dataset
    candidates = sorted(pipeline.generate_candidates(pipeline.prepare(dataset)))
    chunks = [candidates[start::7] for start in range(7)]
    serial = [
        score_candidates(pipeline.prepare(dataset), chunk, pipeline.comparator)[0]
        for chunk in chunks
    ]
    threads = 2 * (os.cpu_count() or 1) + 2
    failures: list[str] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + STRESS_SECONDS
        rounds = 0
        while rounds < 2 or time.monotonic() < deadline:
            # a fresh layout per round, so every round races on misses;
            # generate_candidates lays the prepared dataset out
            prepared = pipeline.prepare(dataset)
            pipeline.generate_candidates(prepared)
            barrier = threading.Barrier(threads, timeout=JOIN_SECONDS)

            def score(offset, prepared=prepared, barrier=barrier):
                barrier.wait()
                for step in range(len(chunks)):
                    which = (offset + step) % len(chunks)
                    vectors = pipeline.compare_candidates(prepared, chunks[which])
                    expected = serial[which]
                    if vectors.pairs != expected.pairs or not all(
                        np.array_equal(mine, theirs)
                        for mine, theirs in zip(
                            vectors.lanes + vectors.nulls,
                            expected.lanes + expected.nulls,
                        )
                    ):
                        failures.append(f"thread {offset} chunk {which}")

            workers = [
                threading.Thread(target=score, args=(offset,))
                for offset in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(JOIN_SECONDS)
                assert not worker.is_alive()
            rounds += 1
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
