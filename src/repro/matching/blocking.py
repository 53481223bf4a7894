"""Candidate generation / blocking (pipeline step 2, §1.2).

Blocking prunes the quadratic comparison space ``[D]^2`` down to a
candidate set that should retain as many true duplicates as possible
[10, 47].  Implemented: the full cross product (no blocking), standard
key-based blocking, the sorted-neighborhood method (windowing), and
token blocking; MinHash-LSH lives in :mod:`repro.matching.lsh`.

Every blocker works on dense integer rows — the rows of
``dataset.columnar_store()``, which equal the numeric ids assigned at
import (§5.3) — and emits through one routine, :func:`block_pairs`: a
blocker only says which rows share which block (or, for the sorted
neighborhood, in which order rows stand), and the routine builds every
block's pairs with array arithmetic, applies the block-size purge or
the window, and de-duplicates the pairs of records that share several
blocks.  No per-pair tuple is built: the result is a
:class:`~repro.columnar.batch.RowPairSet`, canonical pair lanes in
sorted order that read as a set of canonical id pairs, so the output
can be evaluated directly with pair-based metrics (pairs completeness /
reduction ratio) and is scored on its rows by the comparison stage.
The lanes are sorted by record id, so the candidates — and everything
scored from them — never depend on ``PYTHONHASHSEED`` or record order.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterable, Sequence
from itertools import chain, count

import numpy as np

from repro.columnar.batch import RowPairSet
from repro.core.records import Dataset, Record
from repro.matching.similarity import tokenize
from repro.telemetry.metrics import get_metrics

__all__ = [
    "block_pairs",
    "full_pairs",
    "standard_blocking",
    "sorted_neighborhood",
    "token_blocking",
    "first_token_key",
    "prefix_key",
    "soundex_key",
    "key_blocks",
    "note_purged_blocks",
    "single_key",
    "token_keys",
]

_LOGGER = logging.getLogger(__name__)

# Recall loss from the max_block_size purge must be observable: purged
# blocks silently shrink the candidate set, which reads as "fast" until
# pairs completeness is measured.  One counter pair is shared by every
# purge site — token blocking and LSH bucket purging.
_PURGED_BLOCKS = get_metrics().counter(
    "frost_blocking_purged_blocks_total",
    "Oversized blocks dropped by the max_block_size purge",
)
_PURGED_RECORDS = get_metrics().counter(
    "frost_blocking_purged_records_total",
    "Record memberships lost inside purged oversized blocks",
)

BlockingKey = Callable[[Record], str | None]
KeyEmitter = Callable[[Record], Sequence[str]]


def note_purged_blocks(
    scheme: str, purged_blocks: int, purged_records: int
) -> None:
    """Record one run's block purge in telemetry (no-op when nothing
    was purged) and warn once per run so the recall loss is visible."""
    if not purged_blocks:
        return
    _PURGED_BLOCKS.inc(purged_blocks)
    _PURGED_RECORDS.inc(purged_records)
    _LOGGER.warning(
        "%s purged %d oversized block(s) spanning %d record memberships "
        "(max_block_size); recall may drop — see "
        "frost_blocking_purged_blocks_total",
        scheme,
        purged_blocks,
        purged_records,
    )


def block_pairs(
    dataset: Dataset,
    rows: Sequence[int],
    blocks: Sequence[int] | None = None,
    *,
    window: int | None = None,
    max_block_size: int | None = None,
    scheme: str = "blocking",
) -> RowPairSet:
    """The candidate pairs of blocks of rows, as canonical sorted lanes.

    ``rows[i]`` is a row of ``dataset.columnar_store()`` (its numeric
    id) and ``blocks[i]`` the integer id of the block it joins;
    ``blocks=None`` puts every row in one block.  A row joins a block
    at most once.  Within a block, members keep the order of ``rows``:
    with ``window`` a member pairs only with the ``window - 1`` members
    after it (the sorted-neighborhood window), otherwise with all of
    them.  Blocks of more than ``max_block_size`` members are purged
    and counted under ``scheme`` (:func:`note_purged_blocks`).

    The pairs go to :meth:`RowPairSet.from_ranks
    <repro.columnar.batch.RowPairSet.from_ranks>` as two lanes of id
    ranks; it orders them as :func:`sorted` orders id tuples and drops
    the repeats of records that share several blocks.
    """
    store = dataset.columnar_store()
    members = np.asarray(rows, dtype=np.int64)
    if blocks is None:
        sizes = np.array([len(members)], dtype=np.int64)
    else:
        block_ids = np.asarray(blocks, dtype=np.int64)
        order = np.argsort(block_ids, kind="stable")
        members, block_ids = members[order], block_ids[order]
        starts = np.flatnonzero(np.diff(block_ids, prepend=-1))
        sizes = np.diff(starts, append=len(members))
    if max_block_size is not None:
        oversized = sizes > max_block_size
        note_purged_blocks(
            scheme, int(oversized.sum()), int(sizes[oversized].sum())
        )
        members = members[np.repeat(~oversized, sizes)]
        sizes = sizes[~oversized]
    # Member p of a block ending before position `end` pairs with the
    # members p + 1 .. end - 1 (at most window - 1 of them).
    positions = np.arange(len(members))
    partners = np.repeat(np.cumsum(sizes), sizes) - positions - 1
    if window is not None:
        np.minimum(partners, window - 1, out=partners)
    ranks = store.id_ranks()[members]
    # Pair k of member p sits at k - (pairs before p), so its partner's
    # position is that plus p + 1.  The lanes are passed as temporaries,
    # which the set frees as soon as it has packed them, and the partner
    # lane comes first, built while it is the only pair lane.
    before = np.cumsum(partners) - partners - positions - 1
    return RowPairSet.from_ranks(
        store,
        ranks[np.arange(int(partners.sum())) - np.repeat(before, partners)],
        np.repeat(ranks, partners),
    )


def key_blocks(
    dataset: Dataset, keys_for: KeyEmitter
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, blocks)`` of every record's keys, for :func:`block_pairs`.

    Records are visited in numeric-id order, and equal keys get equal
    integer block ids (not dense: ids are only ever compared).
    """
    key_lists = [keys_for(record) for record in dataset]
    rows = np.repeat(
        np.arange(len(key_lists)),
        np.fromiter(map(len, key_lists), dtype=np.int64, count=len(key_lists)),
    )
    block_of: dict[str, int] = {}
    blocks = np.fromiter(
        map(block_of.setdefault, chain.from_iterable(key_lists), count()),
        dtype=np.int64,
        count=len(rows),
    )
    return rows, blocks


def full_pairs(dataset: Dataset) -> RowPairSet:
    """The entire ``[D]^2`` — exact but quadratic; baseline only."""
    return block_pairs(dataset, range(len(dataset)))


def standard_blocking(dataset: Dataset, key: BlockingKey) -> RowPairSet:
    """All pairs that share a blocking key value.

    Records whose key is ``None`` are excluded (they would otherwise
    form a giant null block).
    """
    return block_pairs(dataset, *key_blocks(dataset, single_key(key)))


def sorted_neighborhood(
    dataset: Dataset, key: BlockingKey, window: int = 5
) -> RowPairSet:
    """Sorted-neighborhood method: sort by key, pair within a window.

    Records with ``None`` keys sort *first* under an empty key (they
    still participate, as the original method prescribes a total
    order).  Equal keys are tie-broken by record id — sorting by key
    alone would leave ties in dataset insertion order, making the
    window (and therefore the candidate set) depend on ingestion order.
    """
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")
    sort_keys = [(key(record) or "", record.record_id) for record in dataset]
    order = sorted(range(len(sort_keys)), key=sort_keys.__getitem__)
    return block_pairs(dataset, order, window=window)


def token_blocking(
    dataset: Dataset,
    attributes: Iterable[str] | None = None,
    min_token_length: int = 3,
    max_block_size: int | None = 200,
) -> RowPairSet:
    """Token blocking: records sharing any (non-stop) token are candidates.

    ``max_block_size`` drops oversized blocks (ubiquitous tokens such as
    brand names) — the standard block-purging heuristic; set ``None`` to
    keep everything.
    """
    rows, blocks = key_blocks(dataset, token_keys(attributes, min_token_length))
    return block_pairs(
        dataset, rows, blocks,
        max_block_size=max_block_size, scheme="token_blocking",
    )


# -- key emitters -------------------------------------------------------------------


def single_key(key: BlockingKey) -> KeyEmitter:
    """Adapt a standard blocking key into a key emitter.

    Records whose key is ``None`` emit no keys (they never become
    candidates), as :func:`standard_blocking` prescribes.
    """

    def keys(record: Record) -> Sequence[str]:
        value = key(record)
        return () if value is None else (value,)

    return keys


def token_keys(
    attributes: Iterable[str] | None = None, min_token_length: int = 3
) -> KeyEmitter:
    """Key emitter of token blocking: one key per (long) token.

    Every token of at least ``min_token_length`` characters across the
    given attributes (default: all) becomes a block key.  ``attributes``
    is read once, here, so a one-shot iterable serves every record.
    Keys are emitted in sorted order for deterministic pair emission.
    """
    names = None if attributes is None else tuple(attributes)

    def keys(record: Record) -> Sequence[str]:
        seen: set[str] = set()
        for attribute in names if names is not None else record.values:
            value = record.value(attribute)
            if not value:
                continue
            for token in tokenize(value):
                if len(token) >= min_token_length:
                    seen.add(token)
        return sorted(seen)

    return keys


# -- common key functions -----------------------------------------------------------


def _keyable_value(record: Record, attribute: str) -> str | None:
    """The attribute value iff it carries any non-whitespace content.

    ``None``, empty, and whitespace-only values are all "missing" for
    blocking purposes: a key derived from ``"   "`` would otherwise
    group every whitespace-padded record into one junk block (and a
    whitespace *prefix* key is indistinguishable from real data).
    """
    value = record.value(attribute)
    if value is None or not value.strip():
        return None
    return value


def first_token_key(attribute: str) -> BlockingKey:
    """Key: the first token of ``attribute`` (lowercased)."""

    def key(record: Record) -> str | None:
        value = _keyable_value(record, attribute)
        if value is None:
            return None
        tokens = tokenize(value)
        return tokens[0] if tokens else None

    return key


def prefix_key(attribute: str, length: int = 3) -> BlockingKey:
    """Key: the first ``length`` characters of ``attribute``."""

    def key(record: Record) -> str | None:
        value = _keyable_value(record, attribute)
        if value is None:
            return None
        return value.lower()[:length]

    return key


def soundex_key(attribute: str) -> BlockingKey:
    """Key: the Soundex code of ``attribute`` — robust to typos."""
    from repro.matching.similarity import soundex

    def key(record: Record) -> str | None:
        value = _keyable_value(record, attribute)
        if value is None:
            return None
        return soundex(value)

    return key
