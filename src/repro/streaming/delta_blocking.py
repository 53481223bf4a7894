"""Incremental candidate generation: delta blocking.

Batch blockers (:mod:`repro.matching.blocking`) recompute the entire
candidate set on every run.  An :class:`IncrementalBlockingIndex`
instead keeps the block membership lists alive between ingests and, for
a batch of new records, emits only the *delta* candidate pairs — the
new-vs-existing and new-vs-new pairs inside each block.  For key-based
blocking schemes this decomposition is exact: the union of the deltas
over all ingests equals the batch candidate set over the union of the
records, which is what makes incremental clustering maintenance
(:mod:`repro.streaming.session`) equivalent to a full recompute.

The same decomposition covers approximate blocking:
:class:`IncrementalLshIndex` treats a record's MinHash-LSH band buckets
(:mod:`repro.matching.lsh`) as its block keys — banding is append-only
(a new record joins buckets, never reshuffles them), so the exact
delta/batch equivalence holds for LSH too.

Blocks hold dense integer *index ids*, not record-id strings: a
delta is built as two ``int64`` lanes (:class:`DeltaIngest`).  A
streaming session's index ids are its numeric ids, live and resumed,
so it scores those lanes as rows of its layout without building a
string pair — the dense-id, list-based processing of *Columnar
Storage and List-based Processing for Graph DBMSs* (PAPERS.md).  The
sorted canonical string pairs are built only when read.  Block keys
come from the batch blockers' own key emitters
(:func:`~repro.matching.blocking.single_key`,
:func:`~repro.matching.blocking.token_keys`), so a stream and its
batch blocker derive the same keys.

The sorted-neighborhood method (and any windowed blocker) is
deliberately *not* supported — its windowed candidates depend on the
global sort order, so a new record can both add and remove pairs,
breaking the append-only delta model.  :func:`repro.streaming.config`
rejects such schemes with an explicit error instead of silently
misusing them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.columnar.batch import _LOW_BITS, sorted_unique
from repro.core.pairs import Pair, make_pair
from repro.core.records import Record
from repro.matching.blocking import KeyEmitter, single_key, token_keys
from repro.matching.lsh import LshConfig, MinHasher

__all__ = [
    "DeltaIngest",
    "IncrementalBlockingIndex",
    "IncrementalLshIndex",
    "single_key",
    "token_keys",
]


@dataclass(frozen=True, eq=False)
class DeltaIngest:
    """What one index ingest produced.

    The delta candidate pairs are two ``int64`` lanes of *index ids*:
    pair ``i`` joins ``ids[firsts[i]]`` and ``ids[seconds[i]]``, with
    ``firsts[i] < seconds[i]``, each pair once, ordered by
    ``(first, second)`` id (arrival order, not record-id order).

    ``ids`` is the index's id table (index id → record id, in the order
    the index first saw each record, or the table :meth:`restore
    <IncrementalBlockingIndex.restore>` was given), shared with the
    index and only ever appended to while the delta stands.  A
    streaming session feeds its records in numeric-id order, so the
    lanes are its numeric ids.  ``memberships`` are the
    ``(block_key, record_id)`` rows this ingest added — exactly what a
    durable session must persist (and retract on a failed persist),
    without rescanning the whole index — and ``record_ids`` the
    ingested ids in batch order.

    :attr:`pairs` builds the sorted canonical record-id pairs from the
    lanes on first read; code that only scores or counts the delta
    never builds them.
    """

    ids: Sequence[str]
    firsts: np.ndarray
    seconds: np.ndarray
    memberships: list[tuple[str, str]]
    record_ids: list[str]

    @cached_property
    def pairs(self) -> list[Pair]:
        """The delta candidate pairs, canonical and sorted."""
        ids = self.ids
        return sorted(
            make_pair(ids[first], ids[second])
            for first, second in zip(self.firsts.tolist(), self.seconds.tolist())
        )


class IncrementalBlockingIndex:
    """Live block index that emits only delta candidate pairs on ingest.

    Record ids are interned to dense *index ids* in the order the index
    first sees them, or as :meth:`restore` is given them (:attr:`ids`),
    and blocks hold those integers, so a
    delta is built as integer lanes (:class:`DeltaIngest`) and the
    string pairs exist only where something reads them.

    Parameters
    ----------
    keys_for:
        Maps a record to its block keys (see :func:`single_key` and
        :func:`token_keys`).  A record may land in several blocks; the
        emitted pair set is deduplicated.
    max_block_size:
        Optional emission cap per block.  Once a block holds this many
        records, later arrivals still *join* the block but no longer
        emit pairs against it — the incremental analogue of batch block
        purging.  Note the semantics differ from the batch purge, which
        drops the entire oversized block retroactively; an incremental
        index cannot retract pairs it already emitted.
    """

    def __init__(
        self, keys_for: KeyEmitter, max_block_size: int | None = None
    ) -> None:
        if max_block_size is not None and max_block_size < 1:
            raise ValueError(
                f"max_block_size must be positive, got {max_block_size}"
            )
        self._keys_for = keys_for
        self.max_block_size = max_block_size
        self._blocks: dict[str, list[int]] = {}
        self._ids: list[str] = []
        self._id_of: dict[str, int] = {}

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._id_of)

    def __contains__(self, record_id: object) -> bool:
        return record_id in self._id_of

    @property
    def ids(self) -> Sequence[str]:
        """The id table: index id → record id (read-only)."""
        return self._ids

    @property
    def block_count(self) -> int:
        """Number of non-empty blocks currently indexed."""
        return len(self._blocks)

    def block_items(self) -> list[tuple[str, str]]:
        """All ``(block_key, record_id)`` memberships, sorted (durable form)."""
        ids = self._ids
        return sorted(
            (key, ids[member])
            for key, members in self._blocks.items()
            for member in members
        )

    # -- mutation ---------------------------------------------------------------

    def ingest(self, records: Iterable[Record]) -> list[Pair]:
        """Index ``records`` and return the sorted delta candidate pairs.

        The delta contains every new-vs-existing and new-vs-new pair
        that shares a block key — exactly the candidates a batch blocker
        would add for these records.  Pairs are returned sorted so that
        downstream scoring is deterministic.
        """
        return self.ingest_delta(records).pairs

    def ingest_delta(self, records: Iterable[Record]) -> DeltaIngest:
        """Like :meth:`ingest`, returning the delta as id lanes.

        Each touched block contributes its members × the new record;
        one sort of the packed ``first << 32 | second`` keys
        (:func:`~repro.columnar.batch.sorted_unique`) de-duplicates
        pairs that share several blocks.  An exception
        (a duplicate id or a failing key emitter) undoes this call's
        memberships before it propagates.
        """
        ids = self._ids
        id_of = self._id_of
        blocks = self._blocks
        cap = self.max_block_size
        members_lane: list[int] = []
        emitters: list[int] = []
        counts: list[int] = []
        memberships: list[tuple[str, str]] = []
        record_ids: list[str] = []
        try:
            for record in records:
                record_id = record.record_id
                if record_id in id_of:
                    raise ValueError(
                        f"record {record_id!r} is already indexed"
                    )
                new = len(ids)
                id_of[record_id] = new
                ids.append(record_id)
                record_ids.append(record_id)
                for key in self._keys_for(record):
                    members = blocks.get(key)
                    if members is None:
                        blocks[key] = [new]
                    else:
                        if cap is None or len(members) < cap:
                            if members[-1] == new:  # the key was emitted twice
                                make_pair(record_id, record_id)  # raises
                            members_lane.extend(members)
                            emitters.append(new)
                            counts.append(len(members))
                        members.append(new)
                    memberships.append((key, record_id))
        except BaseException:
            self.retract(
                DeltaIngest(ids, _NO_IDS, _NO_IDS, memberships, record_ids)
            )
            raise
        keys = sorted_unique(
            (np.array(members_lane, dtype=np.int64) << 32)
            | np.repeat(np.array(emitters, dtype=np.int64), counts)
        )
        return DeltaIngest(
            ids=ids,
            firsts=keys >> 32,
            seconds=keys & _LOW_BITS,
            memberships=memberships,
            record_ids=record_ids,
        )

    def retract(self, delta: DeltaIngest) -> None:
        """Undo one :meth:`ingest_delta` (used when scoring or durable
        persistence of the batch fails and the session must roll back
        to its pre-batch state).

        Only the *latest* ingest may be retracted — memberships were
        appended, so they sit at the tail of their block lists.  The
        delta's pairs are built before its ids are dropped, while the
        ids still name its records; the id table then sheds the ids at
        its tail that no longer index a record, so the next ingest
        reuses them.
        """
        id_of = self._id_of
        for key, record_id in reversed(delta.memberships):
            member = id_of[record_id]
            members = self._blocks.get(key)
            if members and members[-1] == member:
                members.pop()
            elif members is not None:  # defensive: not the latest ingest
                members.remove(member)
            if not members and members is not None:
                del self._blocks[key]
        delta.pairs
        for record_id in delta.record_ids:
            id_of.pop(record_id, None)
        ids = self._ids
        while ids and id_of.get(ids[-1]) != len(ids) - 1:
            ids.pop()

    def restore(
        self, ids: Iterable[str], memberships: Iterable[tuple[str, str]]
    ) -> None:
        """Rebuild the index from an id table and persisted block rows.

        Used when resuming a durable session; emits nothing.  Must be
        called on an empty index.  ``ids`` becomes the id table as
        given — a session passes its record ids in numeric-id order,
        records without a block key included — so the restored index
        equals the one the session built live.  ``memberships`` are the
        persisted ``(block_key, record_id)`` rows; a row naming an id
        outside ``ids`` raises ``ValueError`` and leaves the index
        empty.
        """
        if self._id_of:
            raise ValueError("restore() requires an empty index")
        table = list(ids)
        id_of = {record_id: member for member, record_id in enumerate(table)}
        if len(id_of) != len(table):
            raise ValueError("restore() needs distinct record ids")
        blocks: dict[str, list[int]] = {}
        for key, record_id in memberships:
            member = id_of.get(record_id)
            if member is None:
                raise ValueError(
                    f"block {key!r} names record {record_id!r}, "
                    "which is not in the id table"
                )
            blocks.setdefault(key, []).append(member)
        self._ids.extend(table)  # the table deltas share stays the same list
        self._id_of = id_of
        self._blocks = blocks


_NO_IDS = np.empty(0, dtype=np.int64)


class IncrementalLshIndex(IncrementalBlockingIndex):
    """Approximate delta blocking over MinHash-LSH band buckets.

    Each ingested record is MinHashed (seeded, ``PYTHONHASHSEED``- and
    process-independent — see :mod:`repro.matching.lsh`) and joins one
    bucket per LSH band; the delta pairs are the new-vs-existing and
    new-vs-new pairs within those buckets.  Because banding is
    append-only, the union of the deltas over all ingests equals the
    batch :func:`~repro.matching.lsh.lsh_blocking` candidate set over
    the union of the records — the same exactness guarantee the
    key-based index gives, now for approximate blocking.

    The equivalence requires ``config.max_block_size`` to be unset: a
    cap makes this index stop *emitting* once a bucket fills up, while
    the batch blocker purges the oversized bucket retroactively (the
    usual capped-stream trade-off, see :mod:`repro.streaming.config`).

    Durable sessions persist the emitted ``(bucket_key, record_id)``
    memberships like any other block rows; :meth:`restore` rebuilds the
    bucket lists without re-hashing, so resuming does not depend on
    signatures being recomputed (though with the same ``config`` they
    would come out identical).
    """

    def __init__(self, config: LshConfig | None = None) -> None:
        self.config = config or LshConfig()
        hasher = MinHasher(self.config)
        super().__init__(
            hasher.keys_for, max_block_size=self.config.max_block_size
        )

    def config_fingerprint(self) -> dict[str, object]:
        """Content token mirroring the batch blocker's fingerprint."""
        return {"lsh_blocking": self.config.as_dict()}
