"""Sharded parallel execution of the pairwise comparison stage.

Similarity-based attribute matching (pipeline step 3) is the hottest
loop of the codebase: every candidate pair costs several pure-Python
string-similarity evaluations, and the GIL keeps a thread pool from
scaling it.  This module partitions the candidate pairs into
**deterministic shards** and scores the shards on separate *processes*
(:class:`~repro.engine.executors.ProcessExecutor`), then merges the
shard outputs back into the exact order the serial loop would have
produced — the parallel path is **byte-identical** to
:meth:`MatchingPipeline.compare_candidates` with ``workers=1``:

* shard assignment hashes the canonical pair with CRC-32 (stable
  across processes, platforms, and ``PYTHONHASHSEED``), so the same
  input always yields the same shards;
* each shard receives only the column slice of the records its pairs
  touch (:meth:`~repro.columnar.ColumnarStore.slice`) instead of the
  whole dataset;
* every shard scores its pairs in sorted order with the batch kernels
  of :mod:`repro.columnar`, and ships its score lanes back to be
  scattered to their pairs' positions in the global sorted order of
  one :class:`~repro.columnar.PairBatch` — vector *values* are
  unaffected because the similarity functions are pure.

The global order itself comes from the store: each pair's two ids are
looked up as store rows once, and the pairs are ordered by the rows'
integer ranks in sorted record-id order
(:meth:`~repro.columnar.ColumnarStore.id_ranks`), which is exactly the
order :func:`sorted` gives the id tuples.

Comparators the kernels cannot plan (subclasses and duck-typed
objects, see :func:`repro.columnar.plan_for`) are scored by the serial
row loop, whatever the parallelism settings.

Because the output cannot differ, the parallelism knob deliberately
stays **out** of :meth:`MatchingPipeline.config_fingerprint`: the
engine's result cache serves a result computed with ``workers=4`` to a
``workers=1`` request and vice versa.
"""

from __future__ import annotations

import logging
import time
import zlib
from collections.abc import Iterable, Sequence
from itertools import chain, repeat
from dataclasses import dataclass

import numpy as np

from repro.columnar import (
    ColumnarStore,
    PairBatch,
    count_fallback,
    count_kernel_work,
    count_store_build,
    plan_for,
    score_block,
)
from repro.columnar.batch import store_rows
from repro.core.pairs import Pair
from repro.core.records import Record
from repro.matching.attribute_matching import (
    AttributeComparator,
    SimilarityVector,
    compare_pairs,
)
from repro.telemetry import metrics as _telemetry_metrics
from repro.telemetry import spans as _tracing

_LOG = logging.getLogger("repro.matching.parallel")

_PAIRS_COMPARED = _telemetry_metrics.get_metrics().counter(
    "frost_comparison_pairs_total",
    "Candidate pairs scored by the similarity comparison stage",
)

__all__ = [
    "ParallelConfig",
    "shard_of",
    "partition_pairs",
    "resolve_candidates",
    "compare_pairs_sharded",
]

# Below this many pairs a fork + pickle round-trip costs more than the
# comparisons it saves; the pipeline falls back to the serial loop.
DEFAULT_MIN_PAIRS = 2048
# Shards per worker: more shards than workers smooths skew (a shard
# that happens to hold long values does not straggle the whole batch).
SHARDS_PER_WORKER = 4


@dataclass(frozen=True)
class ParallelConfig:
    """How (and whether) to shard the comparison stage.

    Attributes
    ----------
    workers:
        Process count. ``1`` keeps the serial path; ``0``/``None``
        means "all cores".
    shards:
        Partition count; defaults to ``SHARDS_PER_WORKER × workers``.
        More shards than workers lets fast workers steal skewed work.
    min_pairs:
        Candidate-set size below which the serial path is used even
        when ``workers > 1`` — fork/pickle overhead would dominate.
    """

    workers: int | None = 1
    shards: int | None = None
    min_pairs: int = DEFAULT_MIN_PAIRS

    def __post_init__(self) -> None:
        # ValueError (not TypeError) on any malformed value: configs
        # arrive from JSON request bodies, and the API layer maps
        # ValueError to a 400 while anything else becomes a 500.
        for field_name in ("workers", "shards", "min_pairs"):
            value = getattr(self, field_name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise ValueError(
                    f"{field_name} must be an integer, got {value!r}"
                )
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.min_pairs is None or self.min_pairs < 0:
            raise ValueError(f"min_pairs must be >= 0, got {self.min_pairs}")

    def resolved_workers(self) -> int:
        """The effective process count (``0``/``None`` → all cores)."""
        if self.workers is None or self.workers == 0:
            import os

            return os.cpu_count() or 1
        return self.workers

    def resolved_shards(self) -> int:
        """The effective shard count (default: shards-per-worker)."""
        if self.shards is not None:
            return self.shards
        return max(1, SHARDS_PER_WORKER * self.resolved_workers())

    def engaged(self, pair_count: int) -> bool:
        """Whether the parallel path should run for ``pair_count`` pairs."""
        return self.resolved_workers() > 1 and pair_count >= self.min_pairs

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable form (stream configs, status payloads)."""
        return {
            "workers": self.workers,
            "shards": self.shards,
            "min_pairs": self.min_pairs,
        }

    @classmethod
    def from_dict(cls, document: object) -> "ParallelConfig":
        """Parse the :meth:`as_dict` form (missing keys keep defaults)."""
        if document is None:
            return cls()
        if not isinstance(document, dict):
            raise ValueError("parallelism config must be a JSON object")
        unknown = set(document) - {"workers", "shards", "min_pairs"}
        if unknown:
            raise ValueError(
                f"unknown parallelism keys: {', '.join(sorted(unknown))}"
            )
        # A config that names shards but not workers still means "go
        # parallel": default the worker count to all cores (0) so the
        # requested sharding is not a silent no-op (the CLI applies
        # the same rule to a bare --shards flag).
        default_workers = 0 if document.get("shards") is not None else 1
        return cls(
            workers=document.get("workers", default_workers),
            shards=document.get("shards"),
            min_pairs=document.get("min_pairs", DEFAULT_MIN_PAIRS),
        )


def shard_of(pair: Pair, shard_count: int) -> int:
    """Deterministic shard index of one canonical pair.

    CRC-32 over the two ids (separated by an id-safe delimiter) is
    stable across processes and hash seeds — unlike builtin ``hash``,
    which ``PYTHONHASHSEED`` randomizes per process.
    """
    first, second = pair
    digest = zlib.crc32(f"{first}\x1f{second}".encode("utf-8"))
    return digest % shard_count


def _shard_positions(
    pairs: Sequence[Pair], shard_count: int
) -> list[np.ndarray]:
    """Per shard, the ascending positions in ``pairs`` of its pairs."""
    if shard_count < 1:
        raise ValueError(f"shard count must be positive, got {shard_count}")
    assignment = np.fromiter(
        (shard_of(pair, shard_count) for pair in pairs),
        dtype=np.int64,
        count=len(pairs),
    )
    order = np.argsort(assignment, kind="stable")
    bounds = np.cumsum(np.bincount(assignment, minlength=shard_count))
    return np.split(order, bounds[:-1])


def partition_pairs(
    pairs: Iterable[Pair], shard_count: int
) -> list[list[Pair]]:
    """Partition pairs into ``shard_count`` hash-assigned shards.

    Every input pair lands in exactly one shard, and each shard
    preserves the input iteration order — feed sorted pairs in and
    every shard comes out sorted.
    """
    pairs = list(pairs)
    return [
        [pairs[position] for position in positions.tolist()]
        for positions in _shard_positions(pairs, shard_count)
    ]


def resolve_candidates(
    records, candidates: Iterable[Pair]
) -> tuple[list[Pair], dict[str, Record], list[str]]:
    """Sorted resolvable pairs, their records, and missing record ids.

    ``records`` only needs item access by record id (a
    :class:`~repro.core.records.Dataset`, a mapping, or the streaming
    session's prepared view).  Pairs whose records were deleted between
    blocking and scoring are dropped instead of raising ``KeyError`` —
    the caller decides how loudly to report the returned missing ids.

    Used by the serial row loop of comparators without a kernel plan;
    the kernel path resolves through store rows (:func:`_store_order`)
    to the same pairs in the same order.
    """
    ordered = sorted(candidates)
    resolved: dict[str, Record] = {}
    missing: set[str] = set()
    # dict, not set: first-appearance order keeps downstream interning
    # (and therefore store pickles) identical across hash seeds
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
) -> tuple[list[Pair], tuple[np.ndarray, np.ndarray], list[str]]:
    """Candidates in sorted order with their store rows, plus missing ids.

    Looks both ids of every pair up in ``store.row_index`` in one pass;
    ids the store lacks are the missing records, and their pairs are
    dropped.  The rest are ordered by their rows' ``(rank, rank)``
    integers, which orders them exactly like ``sorted(candidates)`` —
    duplicates and non-canonical pairs included — without comparing a
    single string.
    """
    rows = np.fromiter(
        map(store.row_index.get, chain.from_iterable(candidates), repeat(-1)),
        dtype=np.int64,
        count=2 * len(candidates),
    ).reshape(-1, 2)
    absent = rows < 0
    missing: list[str] = []
    kept = np.arange(len(candidates))
    if absent.any():
        positions, sides = np.nonzero(absent)
        missing = sorted({
            candidates[position][side]
            for position, side in zip(positions.tolist(), sides.tolist())
        })
        kept = np.flatnonzero(~absent.any(axis=1))
        rows = rows[kept]
    ranks = store.id_ranks()
    order = np.argsort(
        ranks[rows[:, 0]] * len(ranks) + ranks[rows[:, 1]], kind="stable"
    )
    ordered = [candidates[position] for position in kept[order].tolist()]
    rows = rows[order]
    return ordered, (rows[:, 0].copy(), rows[:, 1].copy()), missing


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


# Columnar shard of work: (pairs, the column *slice* those pairs touch).
# Slices re-intern down to the values the shard references, so the wire
# payload is two int arrays + a compact string pool per attribute
# instead of one dict per record.  The comparator is NOT part of the
# task — it is identical for every shard, so the executor ships it once
# per worker as shared state instead of pickling it into all
# ~4×workers tasks (a fitted TfIdfCosine carries corpus-wide
# statistics).
_ColumnarShardTask = tuple[Sequence[Pair], ColumnarStore]


def _columnar_shard_tasks(
    shards: Sequence[Sequence[Pair]],
    store: ColumnarStore,
) -> list[_ColumnarShardTask]:
    """Per-shard tasks shipping column slices instead of record dicts."""
    tasks: list[_ColumnarShardTask] = []
    for shard in shards:
        touched: dict[str, None] = {}
        for first, second in shard:
            touched.setdefault(first)
            touched.setdefault(second)
        tasks.append((shard, store.slice(touched)))
    return tasks


def _compare_shard_columnar(task: _ColumnarShardTask):
    """Columnar worker entry point: ``(seconds, lanes, nulls, distinct)``.

    Ships one float64 array and one mask per attribute rather than
    per-pair rows; the parent scatters them into the batch of the whole
    candidate set.  A pool worker can reach neither the parent's span
    tree nor its counters, so the shard's wall time and distinct
    value-pair count travel with its lanes.  The comparator still
    travels once per worker as shared state; the kernel plan is
    re-derived from it per shard (a few dict lookups).  The parent only
    dispatches columnar tasks when planning succeeded on the identical
    comparator, so the plan is never ``None`` here.
    """
    from repro.engine.executors import shared_state

    started = time.perf_counter()
    pairs, store = task
    batch, distinct = score_block(
        store, pairs, plan_for(shared_state()), store_rows(store, pairs)
    )
    return time.perf_counter() - started, batch.lanes, batch.nulls, distinct


def compare_pairs_sharded(
    records,
    candidates: Iterable[Pair],
    comparator: AttributeComparator,
    config: ParallelConfig | None = None,
    executor=None,
    store: ColumnarStore | None = None,
) -> tuple[Sequence[SimilarityVector], list[str]]:
    """Similarity vectors of ``candidates``, sharded across processes.

    Returns ``(vectors, missing_record_ids)``.  Vectors come back in
    sorted-pair order and are byte-identical to the serial loop;
    ``missing_record_ids`` lists records that disappeared between
    blocking and scoring (their pairs are skipped).  An
    :class:`AttributeComparator` is scored by the batch kernels of
    :mod:`repro.columnar` (:func:`repro.columnar.plan_for`) into one
    :class:`~repro.columnar.PairBatch`, serial or sharded.  Subclassed
    and duck-typed comparators, which get no plan, are scored serially
    by :func:`compare_pairs` into a list.

    ``executor`` overrides the executor derived from ``config`` —
    tests inject a :class:`~repro.engine.executors.SerialExecutor` to
    exercise the sharded code path without forking.

    ``store`` optionally supplies a prebuilt :class:`ColumnarStore`
    holding the records (the layout of a prepared dataset or of a
    streaming session), so the comparison pass skips interning.  Its
    rows resolve the pairs: an id it lacks is a missing record.  It is
    used when it covers the comparator's attributes; otherwise, and
    without one, a store is built over the candidates' records.  Scores
    never depend on the store — kernels read interned *values*, not
    row positions.
    """
    config = config or ParallelConfig()
    tracer = _tracing.get_tracer()
    plan = plan_for(comparator)
    if plan is None:
        ordered, resolved, missing = resolve_candidates(records, candidates)
        _PAIRS_COMPARED.inc(len(ordered))
        count_fallback(len(ordered))
        with tracer.span("comparison.serial", pairs=len(ordered)):
            return compare_pairs(resolved, ordered, comparator), missing
    candidates = (
        candidates if isinstance(candidates, (list, tuple)) else list(candidates)
    )
    if store is None or any(
        attribute not in store.attributes for attribute in plan.attributes
    ):
        store = _candidate_store(records, candidates, plan.attributes)
    ordered, rows, missing = _store_order(store, candidates)
    _PAIRS_COMPARED.inc(len(ordered))
    if executor is None and not config.engaged(len(ordered)):
        batch, distinct = score_block(store, ordered, plan, rows)
        count_kernel_work(len(ordered), distinct)
        return batch, missing
    if executor is None:
        from repro.engine.executors import executor_for

        executor = executor_for(config.resolved_workers())
    with tracer.span(
        "comparison.sharded",
        pairs=len(ordered),
        workers=getattr(executor, "workers", None),
        shards=config.resolved_shards(),
    ):
        positions = [
            where
            for where in _shard_positions(ordered, config.resolved_shards())
            if len(where)
        ]
        shards = [[ordered[i] for i in where.tolist()] for where in positions]
        _LOG.debug(
            "dispatching %d pairs across %d shards", len(ordered), len(shards)
        )
        payloads = executor.map(
            _compare_shard_columnar,
            _columnar_shard_tasks(shards, store),
            shared=comparator,
        )
        distinct = 0
        for shard, (seconds, _, _, shard_distinct) in zip(shards, payloads):
            if tracer.enabled:
                tracer.record("comparison.shard", seconds, pairs=len(shard))
            distinct += shard_distinct
        count_kernel_work(len(ordered), distinct)
        # Each shard holds its pairs in global sorted order, so
        # scattering shard outputs back to their positions reproduces
        # the serial scan.
        return _merge_lanes(store, ordered, rows, plan.attributes, positions,
                            payloads), missing


def _merge_lanes(
    store, ordered, rows, attributes, positions, payloads
) -> PairBatch:
    """One batch over ``ordered`` (at store ``rows``) from shard lanes."""
    lanes = [np.zeros(len(ordered)) for _ in attributes]
    nulls = [np.zeros(len(ordered), dtype=bool) for _ in attributes]
    for where, (_, shard_lanes, shard_nulls, _) in zip(positions, payloads):
        for lane, null, shard_lane, shard_null in zip(
            lanes, nulls, shard_lanes, shard_nulls
        ):
            lane[where] = shard_lane
            null[where] = shard_null
    rows_a, rows_b = rows
    return PairBatch(
        ordered, rows_a, rows_b, store.row_ids, attributes, lanes, nulls
    )
