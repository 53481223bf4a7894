"""The pairwise comparison stage: candidates in, similarity vectors out.

Similarity-based attribute matching (pipeline step 3) is the hottest
loop of the codebase.  :func:`score_candidates` runs it in one process
on the list-based lanes of :mod:`repro.columnar` — the columnar storage
and list-based processing of *Columnar Storage and List-based
Processing for Graph DBMSs* (PAPERS.md):

* each pair's two ids are looked up as store rows once, and pairs
  whose records were deleted between blocking and scoring are dropped;
  candidates that already are rows of the store
  (:class:`~repro.columnar.RowPairs`: a batch blocker's
  :class:`~repro.columnar.RowPairSet`, a streaming session's delta)
  skip the lookup and are oriented so the smaller record id comes
  first;
* the rows are ordered by their integer ranks in sorted record-id
  order (:meth:`~repro.columnar.ColumnarStore.id_ranks`), which is
  exactly the order :func:`sorted` gives the id tuples — one ordering
  function for both inputs, :func:`_rank_order`;
* the batch kernels score every distinct value pair once, or not at
  all when the store's score memo holds it, into one
  :class:`~repro.columnar.PairBatch` of score lanes whose string pairs
  are built from the rows only when read.

Comparators the kernels cannot plan (subclasses and duck-typed
objects, see :func:`repro.columnar.plan_for`) are scored by the serial
row loop into a list.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain, repeat

import numpy as np

from repro.columnar import (
    ColumnarStore,
    RowPairs,
    compare_block,
    count_fallback,
    count_store_build,
    plan_for,
)
from repro.core.pairs import Pair
from repro.core.records import Record
from repro.matching.attribute_matching import (
    AttributeComparator,
    SimilarityVector,
    compare_pairs,
)
from repro.telemetry import metrics as _telemetry_metrics
from repro.telemetry import spans as _tracing

_PAIRS_COMPARED = _telemetry_metrics.get_metrics().counter(
    "frost_comparison_pairs_total",
    "Candidate pairs scored by the similarity comparison stage",
)

__all__ = ["resolve_candidates", "score_candidates"]


def resolve_candidates(
    records, candidates: Iterable[Pair]
) -> tuple[list[Pair], dict[str, Record], list[str]]:
    """Sorted resolvable pairs, their records, and missing record ids.

    ``records`` only needs item access by record id (a
    :class:`~repro.core.records.Dataset`, or a mapping such as the
    streaming session's registry of prepared records).  Pairs whose
    records were deleted between blocking and scoring are dropped
    instead of raising ``KeyError`` — the caller decides how loudly to
    report the returned missing ids.

    Used by the serial row loop of comparators without a kernel plan;
    the kernel path resolves through store rows (:func:`_store_order`)
    to the same pairs in the same order.
    """
    ordered = sorted(candidates)
    resolved: dict[str, Record] = {}
    missing: set[str] = set()
    # dict, not set: first-appearance order keeps ``resolved``
    # identical across hash seeds
    for record_id in {rid: None for pair in ordered for rid in pair}:
        try:
            resolved[record_id] = records[record_id]
        except KeyError:
            missing.add(record_id)
    if missing:
        ordered = [
            pair
            for pair in ordered
            if pair[0] not in missing and pair[1] not in missing
        ]
    return ordered, resolved, sorted(missing)


def _store_order(
    store: ColumnarStore, candidates: Sequence[Pair]
) -> tuple[tuple[np.ndarray, np.ndarray], list[str]]:
    """Store rows of the candidates in sorted order, plus missing ids.

    Looks both ids of every pair up in ``store.row_index`` in one pass;
    ids the store lacks are the missing records, and their pairs are
    dropped.  The rest are ordered by :func:`_rank_order`, exactly like
    ``sorted(candidates)`` — duplicates and non-canonical pairs
    included — without comparing a single string.
    """
    rows = np.fromiter(
        map(store.row_index.get, chain.from_iterable(candidates), repeat(-1)),
        dtype=np.int64,
        count=2 * len(candidates),
    ).reshape(-1, 2)
    absent = rows < 0
    missing: list[str] = []
    if absent.any():
        positions, sides = np.nonzero(absent)
        missing = sorted({
            candidates[position][side]
            for position, side in zip(positions.tolist(), sides.tolist())
        })
        rows = rows[~absent.any(axis=1)]
    return _rank_order(store, rows[:, 0], rows[:, 1]), missing


def _rank_order(
    store: ColumnarStore,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    orient: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs ordered by their rows' ``(rank, rank)`` integers.

    Ranks are positions in sorted record-id order, so this is the order
    :func:`sorted` gives the id tuples (stable, so equal pairs keep
    their input order).  With ``orient`` each pair is first turned so
    its lower-ranked row — the smaller record id — comes first, which
    makes every pair canonical.
    """
    ranks = store.id_ranks()
    rank_a = ranks[rows_a]
    rank_b = ranks[rows_b]
    if orient:
        swap = rank_a > rank_b
        rows_a, rows_b = (
            np.where(swap, rows_b, rows_a), np.where(swap, rows_a, rows_b)
        )
        rank_a, rank_b = np.minimum(rank_a, rank_b), np.maximum(rank_a, rank_b)
    order = np.argsort(rank_a * len(ranks) + rank_b, kind="stable")
    return rows_a[order], rows_b[order]


def _candidate_store(
    records, candidates: Sequence[Pair], attributes: Sequence[str]
) -> ColumnarStore:
    """A store over the records the candidates name, for callers without one.

    Rows follow the distinct ids in sorted order, so interning does not
    depend on set iteration order (or the hash seed); ids ``records``
    lacks are left out and resolve as missing.
    """
    found: dict[str, Record] = {}
    for record_id in sorted({rid for pair in candidates for rid in pair}):
        try:
            found[record_id] = records[record_id]
        except KeyError:
            pass
    count_store_build()
    return ColumnarStore.from_records(found, attributes)


def score_candidates(
    records,
    candidates: Iterable[Pair],
    comparator: AttributeComparator,
    store: ColumnarStore | None = None,
) -> tuple[Sequence[SimilarityVector], list[str]]:
    """Similarity vectors of ``candidates`` in sorted-pair order.

    Returns ``(vectors, missing_record_ids)``; ``missing_record_ids``
    lists records that disappeared between blocking and scoring (their
    pairs are skipped).  An :class:`AttributeComparator` is scored by
    the batch kernels of :mod:`repro.columnar`
    (:func:`repro.columnar.plan_for`) into one
    :class:`~repro.columnar.PairBatch`.  Subclassed and duck-typed
    comparators, which get no plan, are scored by :func:`compare_pairs`
    into a list.

    ``store`` optionally supplies a prebuilt :class:`ColumnarStore`
    holding the records (the layout of a prepared dataset or of a
    streaming session), so the comparison pass skips interning.  Its
    rows resolve the pairs: an id it lacks is a missing record.  It is
    used when it covers the comparator's attributes; otherwise, and
    without one, a store is built over the candidates' records.
    :class:`~repro.columnar.RowPairs` of that same store are scored on
    their rows without building a string.  Scores never depend on the
    store — kernels read interned *values*, not row positions.
    """
    plan = plan_for(comparator)
    if plan is None:
        ordered, resolved, missing = resolve_candidates(records, candidates)
        _PAIRS_COMPARED.inc(len(ordered))
        count_fallback(len(ordered))
        with _tracing.span("comparison.serial", pairs=len(ordered)):
            return compare_pairs(resolved, ordered, comparator), missing
    with _tracing.span("comparison.order") as order_span:
        if store is not None and any(
            attribute not in store.attributes for attribute in plan.attributes
        ):
            store = None
        if isinstance(candidates, RowPairs) and candidates.store is store:
            rows = _rank_order(
                store, candidates.rows_a, candidates.rows_b, orient=True
            )
            missing: list[str] = []
        else:
            candidates = (
                candidates if isinstance(candidates, (list, tuple))
                else list(candidates)
            )
            if store is None:
                store = _candidate_store(records, candidates, plan.attributes)
            rows, missing = _store_order(store, candidates)
        order_span.annotate(pairs=len(rows[0]))
    _PAIRS_COMPARED.inc(len(rows[0]))
    return compare_block(store, None, plan, rows), missing
