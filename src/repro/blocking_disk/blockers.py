"""Disk-executed counterparts of the batch blockers (SQL pushdown plans).

A :class:`DiskBlockingPlan` describes how one blocking scheme spills
into the :class:`~repro.blocking_disk.store.DiskBlockingStore` tables:
an ``emit`` function mapping each record to its block keys (plus, for
MinHash-LSH, the packed signature blob to persist), the purge cap, and
— for the sorted-neighborhood method — the window the SQL join applies.
:func:`spill_records` writes a record stream's rows (callable once per
corpus slice) and :func:`stream_candidates` reads the run's candidate
pairs back in bounded, sorted chunks; together they yield the same
candidate set the in-memory blocker would, without holding more than
one spill batch and one result chunk in Python memory.

Identity with the in-memory path is by construction, not coincidence:
plans reuse the exact key emitters of the delta-blocking machinery
(:func:`~repro.streaming.delta_blocking.token_keys`,
:func:`~repro.streaming.delta_blocking.single_key`,
:meth:`~repro.matching.lsh.MinHasher.band_keys`), so the ``(block_key,
record_id)`` rows agree row-for-row, and the SQL joins reproduce the
Python pair canonicalization (see :mod:`repro.blocking_disk.store`).
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro.blocking_disk.store import DiskBlockingStore
from repro.core.pairs import Pair
from repro.core.records import Record
from repro.matching.blocking import BlockingKey, note_purged_blocks
from repro.matching.lsh import LshConfig, MinHasher, record_tokens
from repro.streaming.delta_blocking import single_key, token_keys

__all__ = [
    "DiskBlockingPlan",
    "standard_plan",
    "token_plan",
    "sorted_neighborhood_plan",
    "lsh_plan",
    "spill_records",
    "stream_candidates",
]

Emit = Callable[[Record], tuple[Sequence[str], bytes | None]]


@dataclass(frozen=True)
class DiskBlockingPlan:
    """How one blocking scheme executes inside the storage engine."""

    scheme: str
    emit: Emit
    max_block_size: int | None = None
    window: int | None = None
    config: Mapping[str, object] = field(default_factory=dict)


def _keys_only(emitter: Callable[[Record], Sequence[str]]) -> Emit:
    def emit(record: Record) -> tuple[Sequence[str], bytes | None]:
        return emitter(record), None

    return emit


def standard_plan(
    key: BlockingKey, config: Mapping[str, object] | None = None
) -> DiskBlockingPlan:
    """Standard key blocking: one row per record, ``None`` keys skipped."""
    return DiskBlockingPlan(
        scheme="standard_blocking",
        emit=_keys_only(single_key(key)),
        config=dict(config or {}),
    )


def token_plan(
    attributes: Iterable[str] | None = None,
    min_token_length: int = 3,
    max_block_size: int | None = 200,
) -> DiskBlockingPlan:
    """Token blocking: one row per (long) token, oversized blocks purged."""
    return DiskBlockingPlan(
        scheme="token_blocking",
        emit=_keys_only(token_keys(attributes, min_token_length)),
        max_block_size=max_block_size,
        config={
            "attributes": list(attributes) if attributes is not None else None,
            "min_token_length": min_token_length,
            "max_block_size": max_block_size,
        },
    )


def sorted_neighborhood_plan(
    key: BlockingKey, window: int = 5
) -> DiskBlockingPlan:
    """Sorted-neighborhood: every record gets exactly one row (``None``
    keys sort first under ``""``), and the window join pairs records by
    their ``ROW_NUMBER()`` position over ``(block_key, record_id)``."""
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")

    def emit(record: Record) -> tuple[Sequence[str], bytes | None]:
        return (key(record) or "",), None

    return DiskBlockingPlan(
        scheme="sorted_neighborhood",
        emit=emit,
        window=window,
        config={"window": window},
    )


def lsh_plan(config: LshConfig | None = None) -> DiskBlockingPlan:
    """MinHash-LSH: band-bucket rows plus the packed signature blob.

    Each record is hashed once — the signature feeds both the persisted
    blob (``<num_perm`` unsigned 64-bit little-endian values``>``) and
    the band keys, via
    :meth:`~repro.matching.lsh.MinHasher.band_keys_from_signature`.
    """
    config = config or LshConfig()
    hasher = MinHasher(config)
    packer = struct.Struct(f"<{config.num_perm}Q")

    def emit(record: Record) -> tuple[Sequence[str], bytes | None]:
        tokens = record_tokens(
            record,
            attributes=config.attributes,
            min_token_length=config.min_token_length,
            shingle_size=config.shingle_size,
        )
        signature = hasher.signature(tokens)
        if signature is None:
            return (), None
        return (
            hasher.band_keys_from_signature(signature),
            packer.pack(*signature),
        )

    return DiskBlockingPlan(
        scheme="lsh_blocking",
        emit=emit,
        max_block_size=config.max_block_size,
        config=config.as_dict(),
    )


# -- execution ------------------------------------------------------------------


def spill_records(
    store: DiskBlockingStore,
    run_id: int,
    plan: DiskBlockingPlan,
    records: Iterable[Record],
) -> int:
    """Spill one record stream's key (and signature) rows; returns rows.

    ``records`` may be a generator — batching happens inside the store,
    so arbitrarily large streams spill in bounded memory.  Callable
    repeatedly for batched corpora (the benchmark generates the corpus
    in slices and frees each one after its spill).
    """
    signatures: list[tuple[str, bytes]] = []

    def rows() -> Iterator[tuple[str, str]]:
        for record in records:
            keys, blob = plan.emit(record)
            if blob is not None:
                signatures.append((record.record_id, blob))
                if len(signatures) >= store.chunk_size:
                    store.spill_signatures(run_id, signatures)
                    signatures.clear()
            for key in keys:
                yield key, record.record_id

    spilled = store.spill_keys(run_id, rows())
    if signatures:
        store.spill_signatures(run_id, signatures)
    return spilled


def stream_candidates(
    store: DiskBlockingStore,
    run_id: int,
    plan: DiskBlockingPlan,
    chunk_size: int | None = None,
) -> Iterator[list[Pair]]:
    """Stream a spilled run's candidate pairs in bounded, sorted chunks.

    Reports the purge pass (counters + one warning) before the join, so
    dropped oversized blocks are observable exactly like on the
    in-memory path.
    """
    purged_blocks, purged_records = store.purge_stats(
        run_id, plan.max_block_size
    )
    note_purged_blocks(f"disk:{plan.scheme}", purged_blocks, purged_records)
    return store.iter_candidate_chunks(
        run_id,
        max_block_size=plan.max_block_size,
        window=plan.window,
        chunk_size=chunk_size,
    )
