"""Disk-backed incremental delta blocking for streaming sessions.

:class:`DiskBlockingIndex` is a drop-in
:class:`~repro.streaming.delta_blocking.IncrementalBlockingIndex` whose
block membership lists live in the
:class:`~repro.blocking_disk.store.DiskBlockingStore` tables instead of
a Python ``dict[str, list[str]]``.  Ingest, retract, restore, and the
emission-cap semantics are identical — pair emission is the in-memory
index's own loop, reading the stored members of each touched block (in
arrival order, via the rowid-aliased ``entry_id``) through its member
hooks — so the union of deltas over any ingest split equals the batch
candidate set, the property durable sessions and their resume path are
built on.

Only the id table stays in Python memory (O(records) strings, needed
for the duplicate-ingest guard and to translate the stored record ids
to the index ids the emission loop works on); the O(memberships) block
state — the part that grows with key fan-out — is on disk, as
``(block_key, record_id)`` rows of ``blocking_keys``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.blocking_disk.store import DiskBlockingStore
from repro.core.records import Record
from repro.streaming.delta_blocking import (
    DeltaIngest,
    IncrementalBlockingIndex,
    KeyEmitter,
)

__all__ = ["DiskBlockingIndex"]


class DiskBlockingIndex(IncrementalBlockingIndex):
    """SQLite-backed live block index emitting delta candidate pairs.

    Parameters
    ----------
    keys_for / max_block_size:
        As for :class:`IncrementalBlockingIndex`.
    store:
        The disk store holding the membership rows.  ``None`` (default)
        creates a private scratch database, removed when the index is
        closed or garbage-collected.
    """

    def __init__(
        self,
        keys_for: KeyEmitter,
        max_block_size: int | None = None,
        store: DiskBlockingStore | None = None,
    ) -> None:
        super().__init__(keys_for, max_block_size)
        self._owns_store = store is None
        self._store = store or DiskBlockingStore()
        self._run_id = self._store.begin_run("incremental", {})
        # the dict the parent allocated stays empty: membership lives
        # in the store's blocking_keys rows
        self._blocks.clear()

    def close(self) -> None:
        """Release a privately-owned scratch store."""
        if self._owns_store:
            self._store.close()

    # -- queries ----------------------------------------------------------------

    @property
    def block_count(self) -> int:
        return self._store.block_count(self._run_id)

    def block_items(self) -> list[tuple[str, str]]:
        return list(
            self._store.connection.execute(
                "SELECT block_key, record_id FROM blocking_keys "
                "WHERE run_id = ? ORDER BY block_key, record_id",
                (self._run_id,),
            )
        )

    def _members(self, key: str) -> list[int]:
        id_of = self._id_of
        return [
            id_of[record_id]
            for (record_id,) in self._store.connection.execute(
                "SELECT record_id FROM blocking_keys "
                "WHERE run_id = ? AND block_key = ? ORDER BY entry_id",
                (self._run_id, key),
            )
        ]

    def _add_member(self, key: str, member: int) -> None:
        self._store.connection.execute(
            "INSERT INTO blocking_keys "
            "(run_id, block_key, record_id) VALUES (?, ?, ?)",
            (self._run_id, key, self._ids[member]),
        )

    # -- mutation ---------------------------------------------------------------

    def ingest_delta(self, records: Iterable[Record]) -> DeltaIngest:
        # The inherited emission loop reads and adds members through the
        # hooks above, which translate index ids to the stored record
        # ids; their rows commit in one batch at the end (on error, after
        # the loop's retract() has deleted them again).
        try:
            return super().ingest_delta(records)
        finally:
            self._store.connection.commit()

    def retract(self, delta: DeltaIngest) -> None:
        """Undo one :meth:`ingest_delta` (a failed batch's rollback).

        A record ingests at most once, so ``(block_key, record_id)``
        identifies exactly the rows that ingest added.
        """
        with self._store.connection as connection:
            connection.executemany(
                "DELETE FROM blocking_keys "
                "WHERE run_id = ? AND block_key = ? AND record_id = ?",
                (
                    (self._run_id, key, record_id)
                    for key, record_id in delta.memberships
                ),
            )
        self._forget(delta)

    def restore(self, memberships: Iterable[tuple[str, str]]) -> None:
        if self._id_of:
            raise ValueError("restore() requires an empty index")
        rows = list(memberships)
        with self._store.connection as connection:
            connection.executemany(
                "INSERT INTO blocking_keys (run_id, block_key, record_id) "
                "VALUES (?, ?, ?)",
                ((self._run_id, key, record_id) for key, record_id in rows),
            )
        for _, record_id in rows:
            self._intern(record_id)
