"""Candidate generation / blocking (pipeline step 2, §1.2).

Blocking prunes the quadratic comparison space ``[D]^2`` down to a
candidate set that should retain as many true duplicates as possible
[10, 47].  Implemented: the full cross product (no blocking), standard
key-based blocking, the sorted-neighborhood method (windowing), and
token blocking.  All blockers return canonical pairs, so their output
can be evaluated directly with pair-based metrics (pairs completeness /
reduction ratio).

Blockers visit blocks in sorted order, so any order-sensitive
instrumentation of the emission (tracing, progress sampling) is
reproducible.  The candidate *sets* they return are content-identical
regardless of ``PYTHONHASHSEED`` either way; byte-identical stored
experiments and cache digests are guaranteed downstream, where the
pipeline scores candidates in sorted order
(:meth:`~repro.matching.pipeline.MatchingPipeline.compare_candidates`).
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterable
from itertools import combinations

from repro.core.pairs import Pair, make_pair
from repro.core.records import Dataset, Record
from repro.matching.similarity import tokenize
from repro.telemetry.metrics import get_metrics

__all__ = [
    "full_pairs",
    "standard_blocking",
    "sorted_neighborhood",
    "token_blocking",
    "first_token_key",
    "prefix_key",
    "soundex_key",
    "note_purged_blocks",
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


def full_pairs(dataset: Dataset) -> set[Pair]:
    """The entire ``[D]^2`` — exact but quadratic; baseline only."""
    ids = dataset.record_ids
    return {make_pair(a, b) for a, b in combinations(ids, 2)}


def standard_blocking(dataset: Dataset, key: BlockingKey) -> set[Pair]:
    """All pairs that share a blocking key value.

    Records whose key is ``None`` are excluded (they would otherwise
    form a giant null block).
    """
    blocks: dict[str, list[str]] = {}
    for record in dataset:
        value = key(record)
        if value is not None:
            blocks.setdefault(value, []).append(record.record_id)
    candidates: set[Pair] = set()
    for value in sorted(blocks):
        candidates.update(
            make_pair(a, b) for a, b in combinations(blocks[value], 2)
        )
    return candidates


def sorted_neighborhood(
    dataset: Dataset, key: BlockingKey, window: int = 5
) -> set[Pair]:
    """Sorted-neighborhood method: sort by key, pair within a window.

    Records with ``None`` keys sort *first* under an empty key (they
    still participate, as the original method prescribes a total
    order).  Equal keys are tie-broken by record id — sorting by key
    alone would leave ties in dataset insertion order, making the
    window (and therefore the candidate set) depend on ingestion order.
    """
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")
    ordered = sorted(
        (record.record_id for record in dataset),
        key=lambda record_id: (key(dataset[record_id]) or "", record_id),
    )
    candidates: set[Pair] = set()
    for index, record_id in enumerate(ordered):
        for offset in range(1, window):
            if index + offset >= len(ordered):
                break
            candidates.add(make_pair(record_id, ordered[index + offset]))
    return candidates


def token_blocking(
    dataset: Dataset,
    attributes: Iterable[str] | None = None,
    min_token_length: int = 3,
    max_block_size: int | None = 200,
) -> set[Pair]:
    """Token blocking: records sharing any (non-stop) token are candidates.

    ``max_block_size`` drops oversized blocks (ubiquitous tokens such as
    brand names) — the standard block-purging heuristic; set ``None`` to
    keep everything.
    """
    blocks: dict[str, list[str]] = {}
    for record in dataset:
        names = attributes if attributes is not None else record.values.keys()
        seen: set[str] = set()
        for attribute in names:
            value = record.value(attribute)
            if not value:
                continue
            for token in tokenize(value):
                if len(token) >= min_token_length:
                    seen.add(token)
        for token in sorted(seen):
            blocks.setdefault(token, []).append(record.record_id)
    candidates: set[Pair] = set()
    purged_blocks = purged_records = 0
    for token in sorted(blocks):
        members = blocks[token]
        if max_block_size is not None and len(members) > max_block_size:
            purged_blocks += 1
            purged_records += len(members)
            continue
        candidates.update(make_pair(a, b) for a, b in combinations(members, 2))
    note_purged_blocks("token_blocking", purged_blocks, purged_records)
    return candidates


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
