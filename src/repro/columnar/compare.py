"""Block comparison engine over columnar stores.

:func:`compare_block` is the columnar counterpart of
:func:`repro.matching.attribute_matching.compare_pairs`: it scores a
whole block of candidate pairs attribute by attribute instead of pair
by pair.  Per attribute it

1. gathers the two value-id lanes of the block from the store's
   columns (two vectorized index operations),
2. masks null lanes (value id 0) — those comparisons stay ``None``,
   exactly like the scalar path's missing-value handling,
3. packs the remaining ``(vid_a, vid_b)`` lanes into 64-bit keys and
   deduplicates them with one ``np.unique`` — real-world blocks repeat
   the same value pairs constantly (blocking groups similar records),
   so the kernels score each *distinct* value pair once,
4. scores those distinct pairs — for a kernel that calls a Python
   measure per value pair, only the ones the store's score memo lacks
   (see below) — and scatters the scores back over the block.

The result is a :class:`~repro.columnar.batch.PairBatch` — one score
lane and null mask per attribute instead of one object per pair — which
reads as a sequence of :class:`SimilarityVector` objects byte-identical
to the scalar loop's (same pairs, same attribute order, same Python
``float`` scores): every kernel guarantees bitwise score equality and
the null/argument-order semantics are reproduced exactly.

The per-layout score memo: a kernel with a
:attr:`~repro.columnar.kernels.Kernel.measure` keeps its scores in
``store.score_memo`` under the measure's identity, as one sorted array
of packed ``vid_a << 32 | vid_b`` keys and one of scores.  A block
probes the keys with one ``np.searchsorted`` and calls the measure
only for the misses; it is the one memo of value-pair scores, so a
fresh layout scores its pairs afresh.  Value ids
never change in an append-only store, so entries stay valid across
:meth:`~repro.columnar.ColumnarStore.extend`.  A memo holds at most
:data:`~repro.columnar.kernels.MEMO_ENTRIES` keys (when full, it
restarts from the current block) and is replaced in one assignment, so
threads scoring one store at once may lose each other's entries but
never read a torn memo.  Probes count as
``frost_kernel_memo_hits_total`` / ``frost_kernel_memo_misses_total``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.columnar.batch import _LOW_BITS, PairBatch, store_rows
from repro.columnar.kernels import MEMO_ENTRIES, Kernel, KernelPlan
from repro.columnar.store import NULL_VID, ColumnarStore
from repro.core.pairs import Pair
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import span

__all__ = ["compare_block"]

_KERNEL_PAIRS = get_metrics().counter(
    "frost_kernel_pairs_total",
    "Candidate pairs scored through the columnar batch kernels",
)
_KERNEL_DISTINCT = get_metrics().counter(
    "frost_kernel_distinct_pairs_total",
    "Distinct (attribute, value-pair) scores computed by batch kernels",
)
_KERNEL_FALLBACK = get_metrics().counter(
    "frost_kernel_fallback_pairs_total",
    "Candidate pairs scored by the serial row loop (no kernel plan)",
)
_MEMO_HITS = get_metrics().counter(
    "frost_kernel_memo_hits_total",
    "Distinct value-pair scores found in a store's score memo",
)
_MEMO_MISSES = get_metrics().counter(
    "frost_kernel_memo_misses_total",
    "Distinct value-pair scores a store's score memo lacked",
)
_STORE_BUILDS = get_metrics().counter(
    "frost_kernel_store_builds_total",
    "Columnar stores built for comparison blocks",
)


def count_store_build() -> None:
    """Record one columnar store construction (wiring call sites)."""
    _STORE_BUILDS.inc()


def count_fallback(pairs: int) -> None:
    """Record candidate pairs that took the serial row loop."""
    if pairs:
        _KERNEL_FALLBACK.inc(pairs)


def compare_block(
    store: ColumnarStore,
    pairs: Sequence[Pair] | None,
    plan: KernelPlan,
    rows: tuple[np.ndarray, np.ndarray] | None = None,
) -> PairBatch:
    """Similarity vectors of ``pairs``, scored by batch kernels.

    ``pairs`` must already be canonical (:func:`repro.core.pairs.make_pair`)
    and ordered by the caller; the i-th vector of the returned batch
    belongs to the i-th pair.  Counts its work in ``frost_kernel_*``.

    ``rows`` holds the store rows of each pair's first and second
    record, as :func:`~repro.columnar.batch.store_rows` returns them;
    the comparison stage passes the rows it resolved the pairs with,
    and without them they are looked up here.  Given rows, ``pairs``
    may be ``None``: the batch then builds them from the rows when
    first read.
    """
    with span(
        "comparison.columnar",
        pairs=len(pairs) if rows is None else len(rows[0]),
        attributes=len(plan.attributes),
        rows=len(store),
    ):
        rows_a, rows_b = store_rows(store, pairs) if rows is None else rows
        lanes: list[np.ndarray] = []
        nulls: list[np.ndarray] = []
        distinct_total = 0
        for attribute, kernel in zip(plan.attributes, plan.kernels):
            column = store.column(attribute).astype(np.int64, copy=False)
            vids_a = column[rows_a]
            vids_b = column[rows_b]
            present = (vids_a != NULL_VID) & (vids_b != NULL_VID)
            lane = np.zeros(len(rows_a), dtype=np.float64)
            if present.any():
                packed = (vids_a[present] << 32) | vids_b[present]
                unique, inverse = np.unique(packed, return_inverse=True)
                lane[present] = _distinct_scores(store, kernel, unique)[inverse]
                distinct_total += len(unique)
            lanes.append(lane)
            nulls.append(~present)
        _KERNEL_PAIRS.inc(len(rows_a))
        if distinct_total:
            _KERNEL_DISTINCT.inc(distinct_total)
        return PairBatch(
            pairs, rows_a, rows_b, store.row_ids, plan.attributes, lanes, nulls
        )


def _distinct_scores(
    store: ColumnarStore, kernel: Kernel, keys: np.ndarray
) -> np.ndarray:
    """Scores of the sorted packed value-id pairs ``keys``.

    A kernel with a measure scores only the keys the store's memo
    lacks and adds them to it (see the module docstring).
    """
    measure = kernel.measure
    if measure is None:
        return kernel.unique_scores(store, keys >> 32, keys & _LOW_BITS)
    version = kernel.memo_version()
    # The entry holds the measure, so its id cannot be reused meanwhile.
    entry = store.score_memo.get(id(measure))
    if entry is None or entry[1] != version:
        entry = (measure, version, _NO_KEYS, _NO_SCORES)
    _, _, memo_keys, memo_scores = entry
    at = np.searchsorted(memo_keys, keys)
    if len(memo_keys):
        scores = memo_scores.take(at, mode="clip")
        missed = memo_keys.take(at, mode="clip") != keys
    else:
        scores = np.empty(len(keys), dtype=np.float64)
        missed = np.ones(len(keys), dtype=bool)
    miss_keys = keys[missed]
    _MEMO_HITS.inc(len(keys) - len(miss_keys))
    if not len(miss_keys):
        return scores
    _MEMO_MISSES.inc(len(miss_keys))
    miss_scores = kernel.unique_scores(
        store, miss_keys >> 32, miss_keys & _LOW_BITS
    )
    scores[missed] = miss_scores
    size = len(memo_keys) + len(miss_keys)
    if size <= MEMO_ENTRIES:
        # the misses ascend: the i-th lands after the i misses before
        # it and the memo keys below it, so the merge stays sorted
        slots = at[missed] + np.arange(len(miss_keys))
        kept = np.ones(size, dtype=bool)
        kept[slots] = False
        memo_keys = _merged(memo_keys, kept, slots, miss_keys)
        memo_scores = _merged(memo_scores, kept, slots, miss_scores)
    elif len(keys) <= MEMO_ENTRIES:
        memo_keys, memo_scores = keys, scores
    else:
        return scores
    store.score_memo[id(measure)] = (measure, version, memo_keys, memo_scores)
    return scores


def _merged(
    old: np.ndarray, kept: np.ndarray, slots: np.ndarray, new: np.ndarray
) -> np.ndarray:
    """``old`` at the ``kept`` positions and ``new`` at ``slots``."""
    merged = np.empty(len(kept), dtype=old.dtype)
    merged[kept] = old
    merged[slots] = new
    return merged


_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_SCORES = np.empty(0, dtype=np.float64)
