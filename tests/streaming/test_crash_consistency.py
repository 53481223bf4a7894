"""Crash-consistent durable ingest: a failed or killed batch leaves no trace.

A durable ingest writes records, block memberships, merges and the
snapshot in one transaction.  Three faults interrupt batch ``K`` of a
file-backed stream:

* the database fills up (``PRAGMA max_page_count``), or another
  connection holds the write lock (``BEGIN IMMEDIATE``) past the
  ingesting connection's busy timeout, so the append raises; the live
  session must roll back to exactly its state before the batch, drop
  its layout, and ingest the same batch again once the fault clears;
* the process is killed (SIGKILL) as the batch's snapshot INSERT starts,
  inside the open write transaction; resuming the stream must find the
  previous batch's state.

Either way, finishing the ingest must give the clusters and snapshot
lineage of a session that was never interrupted.
"""

import json
import os
import random
import signal
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.storage.database import FrostStore
from repro.streaming import build_session, open_session

CONFIG = {
    "key": {"kind": "first_token", "attribute": "last"},
    "similarities": {
        "first": "jaro_winkler",
        "last": "jaro_winkler",
        "city": "ngram_jaccard",
    },
    "threshold": 0.8,
}
BATCHES = 5
K = 3  # the interrupted batch (1-based, like snapshot versions)
CHILD_TIMEOUT_S = 120

FIRST = ["alice", "alicia", "bob", "robert", "carol", "karol", "dave"]
LAST = ["smith", "smyth", "jones", "johnson", "miller", "muller"]
CITY = ["berlin", "potsdam", "hamburg", "munich"]


def batches(size=200, seed=11):
    rng = random.Random(seed)
    rows = [
        {
            "id": f"p{index:04d}",
            "first": rng.choice(FIRST),
            "last": rng.choice(LAST),
            "city": f"{rng.choice(CITY)} {rng.randrange(1000):03d}",
        }
        for index in range(BATCHES * size)
    ]
    return [rows[start:start + size] for start in range(0, len(rows), size)]


def uninterrupted(tmp_path):
    """The reference: every batch ingested into a fresh durable stream."""
    store = FrostStore(tmp_path / "reference.db")
    session = build_session(CONFIG, store=store, name="s")
    for batch in batches():
        session.ingest(batch)
    return store, session


def session_state(session):
    return (
        session.status(),
        set(session.clusters().clusters),
        [snapshot.as_dict() for snapshot in session.snapshots],
    )


def fill_the_database(path, connection):
    """Cap the file at one more page; returns the fault's release."""
    pages = connection.execute("PRAGMA page_count").fetchone()[0]
    connection.execute(f"PRAGMA max_page_count = {pages + 1}")
    return lambda: connection.execute("PRAGMA max_page_count = 1073741823")


def hold_the_write_lock(path, connection):
    """Hold ``BEGIN IMMEDIATE`` on a second connection; returns the release."""
    connection.execute("PRAGMA busy_timeout = 50")
    holder = sqlite3.connect(path)
    holder.execute("BEGIN IMMEDIATE")

    def release():
        holder.rollback()
        holder.close()
        connection.execute(
            f"PRAGMA busy_timeout = {FrostStore._BUSY_TIMEOUT_MS}"
        )

    return release


@pytest.mark.parametrize(
    ("fault", "error"),
    [(fill_the_database, "full"), (hold_the_write_lock, "locked")],
    ids=["full", "locked"],
)
def test_full_database_rolls_back_and_the_same_session_reingests(
    tmp_path, fault, error
):
    everything = batches()
    path = tmp_path / "stream.db"
    with FrostStore(path) as store:
        session = build_session(CONFIG, store=store, name="s")
        for batch in everything[:K - 1]:
            session.ingest(batch)
        before = session_state(session)

        connection = store._connection  # this thread's: the ingesting one
        release = fault(path, connection)
        with pytest.raises(sqlite3.OperationalError, match=error):
            session.ingest(everything[K - 1])
        assert session_state(session) == before
        assert session._layout is None
        assert open_session(store, "s").version == K - 1

        release()
        for batch in everything[K - 1:]:
            session.ingest(batch)
        assert session._layout.row_ids == tuple(session._native)

        reference_store, reference = uninterrupted(tmp_path)
        with reference_store:
            assert session_state(session) == session_state(reference)
            assert session_state(open_session(store, "s")) == session_state(
                open_session(reference_store, "s")
            )


CHILD = """
import json, os, signal, sys

from repro.storage.database import FrostStore
from repro.streaming import build_session

path, batches_path, kill_at = sys.argv[1], sys.argv[2], int(sys.argv[3])
with open(batches_path) as handle:
    config, batches = json.load(handle)
store = FrostStore(path)
session = build_session(config, store=store, name="s")


def die_in_snapshot_insert(statement):
    if statement.startswith("INSERT INTO stream_snapshots"):
        os.kill(os.getpid(), signal.SIGKILL)


for version, batch in enumerate(batches, start=1):
    if version == kill_at:
        store._connection.set_trace_callback(die_in_snapshot_insert)
    session.ingest(batch)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_sigkill_mid_ingest_resumes_at_the_previous_batch(tmp_path):
    everything = batches()
    batches_path = tmp_path / "batches.json"
    batches_path.write_text(json.dumps([CONFIG, everything]))
    path = tmp_path / "stream.db"
    source = Path(repro.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(path), str(batches_path), str(K)],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr

    reference_store, reference = uninterrupted(tmp_path)
    with reference_store, FrostStore(path) as store:
        resumed = open_session(store, "s")
        assert resumed.version == K - 1
        assert [s.as_dict() for s in resumed.snapshots] == [
            s.as_dict() for s in reference.snapshots[:K - 1]
        ]
        for batch in everything[K - 1:]:
            resumed.ingest(batch)
        assert session_state(resumed) == session_state(reference)
        assert session_state(open_session(store, "s")) == session_state(
            open_session(reference_store, "s")
        )
