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
4. scatters the distinct scores back over the block.

The result is a :class:`~repro.columnar.batch.PairBatch` — one score
lane and null mask per attribute instead of one object per pair — which
reads as a sequence of :class:`SimilarityVector` objects byte-identical
to the scalar loop's (same pairs, same attribute order, same Python
``float`` scores): every kernel guarantees bitwise score equality and
the null/argument-order semantics are reproduced exactly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.columnar.batch import PairBatch, store_rows
from repro.columnar.kernels import KernelPlan
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
    pairs: Sequence[Pair],
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
    and without them they are looked up here.
    """
    with span(
        "comparison.columnar",
        pairs=len(pairs),
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
            lane = np.zeros(len(pairs), dtype=np.float64)
            if present.any():
                packed = (vids_a[present] << 32) | vids_b[present]
                unique, inverse = np.unique(packed, return_inverse=True)
                unique_scores = kernel.unique_scores(
                    store,
                    unique >> 32,
                    unique & np.int64(0xFFFFFFFF),
                )
                lane[present] = unique_scores[inverse]
                distinct_total += len(unique)
            lanes.append(lane)
            nulls.append(~present)
        _KERNEL_PAIRS.inc(len(pairs))
        if distinct_total:
            _KERNEL_DISTINCT.inc(distinct_total)
        return PairBatch(
            pairs, rows_a, rows_b, store.row_ids, plan.attributes, lanes, nulls
        )
