"""Multi-statement store reads see one snapshot of the store.

:meth:`FrostStore.load_graph` and :meth:`FrostStore.load_stream` read
their document with several SELECTs.  A write committed between two of
them must land in the document entirely or not at all.  Each test hooks
the reading connection: as the read's second table SELECT starts, a
writer thread appends one more batch and the hook gives it a moment to
commit.  The document must equal the state before that batch, and the
writer must finish once the read is over.

A file store's reading connection is its own, so the hook is its trace
callback.  The in-memory store shares one connection between reader
and writer, and SQLite runs a trace callback holding that connection's
mutex, which the writer needs; there the hook wraps the connection's
``execute`` instead and runs just before the statement is handed over.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import pytest

from repro.storage.database import FrostStore

# How long the hook lets the writer try to commit in the middle of a read.
WRITER_GRACE_S = 1.0
JOIN_TIMEOUT_S = 30.0


def _snapshot(version: int, records: int, pairs: int) -> dict:
    return {
        "version": version,
        "parent_version": version - 1 if version > 1 else None,
        "record_count": records,
        "cluster_count": records - pairs,
        "pair_count": pairs,
        "delta_candidates": pairs,
        "accepted_matches": pairs,
    }


def _graph_case(store: FrostStore):
    store.create_graph("g", 0.5)
    store.append_graph_batch(
        "g", [(0, "a"), (1, "b")], [(0, 1, 0.9, True, None)]
    )

    def write() -> None:
        store.append_graph_batch(
            "g",
            [(2, "c"), (3, "d")],
            [(0, 2, 0.9, True, None), (2, 3, 0.8, True, None)],
        )

    def landed(document) -> bool:
        return len(document["nodes"]) == 4 and len(document["edges"]) == 3

    return "FROM graph_edges", write, lambda: store.load_graph("g"), landed


def _stream_case(store: FrostStore):
    store.create_stream("s", {"key": "k"})
    store.append_stream_batch(
        "s", 1, [(0, "a", {"n": "x"})], [("k", 0)], [], _snapshot(1, 1, 0)
    )

    def write() -> None:
        store.append_stream_batch(
            "s", 2, [(1, "b", {"n": "y"})], [("k", 1)], [(0, 1, 0.9)],
            _snapshot(2, 2, 1),
        )

    def landed(document) -> bool:
        return len(document["records"]) == 2 and len(document["snapshots"]) == 2

    return "FROM stream_blocks", write, lambda: store.load_stream("s"), landed


class _ExecuteHook:
    """The in-memory store's shared connection, calling ``hook(sql)``
    before each ``execute`` hands its statement to SQLite."""

    def __init__(self, connection, hook) -> None:
        self._wrapped = connection
        self._hook = hook

    def execute(self, statement, *parameters):
        self._hook(statement)
        return self._wrapped.execute(statement, *parameters)

    def __enter__(self):
        return self._wrapped.__enter__()

    def __exit__(self, *exc_info):
        return self._wrapped.__exit__(*exc_info)

    def __getattr__(self, name):
        return getattr(self._wrapped, name)


@contextmanager
def _statement_hook(store: FrostStore, hook):
    """Call ``hook(sql)`` as each statement of the calling thread starts."""
    if store._in_memory:
        shared = store._shared_connection
        store._shared_connection = _ExecuteHook(shared, hook)
        try:
            yield
        finally:
            store._shared_connection = shared
        return
    connection = store._connection
    connection.set_trace_callback(hook)
    try:
        yield
    finally:
        connection.set_trace_callback(None)


@pytest.fixture(params=["file", "memory"])
def store(request, tmp_path):
    path = tmp_path / "frost.db" if request.param == "file" else ":memory:"
    with FrostStore(path) as opened:
        yield opened


@pytest.mark.parametrize("case", [_graph_case, _stream_case],
                         ids=["load_graph", "load_stream"])
def test_write_during_read_lands_whole_or_not_at_all(store, case):
    trigger, write, load, landed = case(store)
    before = load()
    reader = threading.get_ident()
    committed = threading.Event()
    errors: list[BaseException] = []
    writers: list[threading.Thread] = []

    def writer() -> None:
        try:
            write()
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)
        finally:
            committed.set()

    def hook(statement: str) -> None:
        if threading.get_ident() != reader or trigger not in statement or writers:
            return
        writers.append(threading.Thread(target=writer))
        writers[0].start()
        committed.wait(WRITER_GRACE_S)

    with _statement_hook(store, hook):
        document = load()
    assert writers, "the hook never saw the read's statement"
    writers[0].join(JOIN_TIMEOUT_S)
    assert not writers[0].is_alive(), "the writer stayed blocked"
    assert not errors, errors
    assert document == before
    assert landed(load())
