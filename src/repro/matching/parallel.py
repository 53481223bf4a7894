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
* each shard receives only the records its pairs touch (compact
  per-shard serialization instead of shipping the whole dataset to
  every worker);
* every shard scores its pairs in sorted order, and the per-shard
  outputs are scattered back to their pairs' positions in the global
  sorted order — vector *values* are unaffected because the similarity
  functions are pure.  Kernel-scored shards ship their score lanes
  back and merge into one :class:`~repro.columnar.PairBatch`.

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
from dataclasses import dataclass

import numpy as np

from repro.columnar import (
    ColumnarStore,
    PairBatch,
    compare_block,
    count_fallback,
    count_store_build,
    plan_for,
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
    "COLUMNAR_MIN_PAIRS",
    "shard_of",
    "partition_pairs",
    "resolve_candidates",
    "compare_pairs_sharded",
]

# Below this many pairs a fork + pickle round-trip costs more than the
# comparisons it saves; the pipeline falls back to the serial loop.
DEFAULT_MIN_PAIRS = 2048
# Below this many pairs building a columnar store costs more than the
# per-pair function calls it batches away; the scalar loop wins.
COLUMNAR_MIN_PAIRS = 32
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


# One shard of work, shipped to a worker process: (pairs, the records
# those pairs touch).  The comparator is NOT part of the task — it is
# identical for every shard, so the executor ships it once per worker
# as shared state instead of pickling it into all ~4×workers tasks
# (a fitted TfIdfCosine carries corpus-wide statistics).
_ShardTask = tuple[Sequence[Pair], dict[str, Record]]


# Packed wire format for shard results: pickling 50k frozen-dataclass
# vectors costs ~4x what the equivalent (pair, value-tuple) rows do, and
# the per-vector attribute keys are redundant when every vector of a
# shard shares one schema (the AttributeComparator case).  Rebuilding
# the vectors in the parent is cheaper than unpickling them.


def _compare_shard_packed(task: _ShardTask):
    """Worker entry point returning the compact wire form of a shard.

    Module-level (picklable by reference); reads the comparator from
    the executor's per-worker shared state.
    """
    from repro.engine.executors import shared_state

    pairs, records = task
    # compare_pairs only needs item access by id and preserves sequence
    # order — the same scoring loop the batch surface uses.
    vectors = compare_pairs(records, pairs, shared_state())
    if not vectors:
        return ("raw", None, [])
    attributes = tuple(vectors[0].values.keys())
    # Only exact SimilarityVector instances may be packed: a subclass
    # (extra fields, overridden behaviour) would be silently rebuilt as
    # the base class, breaking serial/parallel identity.
    if all(
        type(v) is SimilarityVector and tuple(v.values.keys()) == attributes
        for v in vectors
    ):
        return (
            "packed",
            attributes,
            [(v.pair, tuple(v.values.values())) for v in vectors],
        )
    return ("raw", None, vectors)  # schema varies: ship as-is


def _compare_shard_timed(task: _ShardTask):
    """Like :func:`_compare_shard_packed`, prefixed with its wall time.

    Used only while tracing is enabled: a pool worker cannot reach the
    parent's span tree, so it times itself and the parent folds the
    measurement back in as one completed child span per shard
    (:meth:`~repro.telemetry.spans.Tracer.record`).
    """
    started = time.perf_counter()
    payload = _compare_shard_packed(task)
    return (time.perf_counter() - started, payload)


def _unpack_shard(payload) -> list[SimilarityVector]:
    """Rebuild a shard's vectors from the packed wire form."""
    tag, attributes, rows = payload
    if tag == "raw":
        return rows
    return [
        SimilarityVector(pair=pair, values=dict(zip(attributes, values)))
        for pair, values in rows
    ]


def _shard_tasks(
    shards: Sequence[Sequence[Pair]],
    records: dict[str, Record],
) -> list[_ShardTask]:
    """Build per-shard tasks carrying only the records each shard touches."""
    tasks: list[_ShardTask] = []
    for shard in shards:
        touched: dict[str, Record] = {}
        for first, second in shard:
            if first not in touched:
                touched[first] = records[first]
            if second not in touched:
                touched[second] = records[second]
        tasks.append((shard, touched))
    return tasks


# Columnar shard of work: (pairs, the column *slice* those pairs touch).
# Slices re-intern down to the values the shard references, so the wire
# payload is two int arrays + a compact string pool per attribute
# instead of one dict per record.
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
    """Columnar worker entry point: the score lanes of one shard's block.

    Ships ``(lanes, nulls)`` — one float64 array and one mask per
    attribute — rather than per-pair rows; the parent scatters them
    into the batch of the whole candidate set.  The comparator still
    travels once per worker as shared state; the kernel plan is
    re-derived from it per shard (a few dict lookups).  The parent only
    dispatches columnar tasks when planning succeeded on the identical
    comparator, so the plan is never ``None`` here.
    """
    from repro.engine.executors import shared_state

    pairs, store = task
    batch = compare_block(store, pairs, plan_for(shared_state()))
    return batch.lanes, batch.nulls


def _compare_shard_columnar_timed(task: _ColumnarShardTask):
    """Like :func:`_compare_shard_columnar`, with its wall time."""
    started = time.perf_counter()
    payload = _compare_shard_columnar(task)
    return (time.perf_counter() - started, payload)


def compare_pairs_sharded(
    records,
    candidates: Iterable[Pair],
    comparator: AttributeComparator,
    config: ParallelConfig | None = None,
    executor=None,
    columnar: bool = True,
    store: ColumnarStore | None = None,
) -> tuple[Sequence[SimilarityVector], list[str]]:
    """Similarity vectors of ``candidates``, sharded across processes.

    Returns ``(vectors, missing_record_ids)``.  Vectors come back in
    sorted-pair order and are byte-identical to the serial loop;
    ``missing_record_ids`` lists records that disappeared between
    blocking and scoring (their pairs are skipped).  Kernel-scored
    candidates come back as one :class:`~repro.columnar.PairBatch`,
    serial or sharded; the scalar loop returns a list.

    ``executor`` overrides the executor derived from ``config`` —
    tests inject a :class:`~repro.engine.executors.SerialExecutor` to
    exercise the sharded code path without forking.

    ``columnar`` routes comparison through the batch kernels of
    :mod:`repro.columnar` when every configured measure has one
    (:func:`repro.columnar.plan_for`) and the block is big enough to
    amortize building the store; the kernels are byte-identical to the
    scalar measures, so — like parallelism — the knob can never change
    the output, only the speed.

    ``store`` optionally supplies a prebuilt :class:`ColumnarStore`
    covering the candidate records (e.g. the layout cached on the
    prepared dataset) so the comparison pass skips re-interning; it is
    used only if every resolved record is present, and never changes
    scores — kernels read interned *values*, not row positions.
    """
    config = config or ParallelConfig()
    tracer = _tracing.get_tracer()
    ordered, resolved, missing = resolve_candidates(records, candidates)
    _PAIRS_COMPARED.inc(len(ordered))
    plan = None
    if columnar and len(ordered) >= COLUMNAR_MIN_PAIRS:
        plan = plan_for(comparator)
        if plan is None:
            count_fallback(len(ordered))
    if store is not None and (
        plan is None
        or any(a not in store.attributes for a in comparator.attributes)
        or any(record_id not in store for record_id in resolved)
    ):
        store = None
    if plan is not None and store is None:
        store = ColumnarStore.from_records(resolved, comparator.attributes)
        count_store_build()
    if executor is None and not config.engaged(len(ordered)):
        if plan is not None:
            return compare_block(store, ordered, plan), missing
        with tracer.span("comparison.serial", pairs=len(ordered)):
            return compare_pairs(resolved, ordered, comparator), missing
    if executor is None:
        from repro.engine.executors import executor_for

        executor = executor_for(config.resolved_workers())
    with tracer.span(
        "comparison.sharded",
        pairs=len(ordered),
        workers=getattr(executor, "workers", None),
        shards=config.resolved_shards(),
        columnar=plan is not None,
    ):
        positions = [
            where
            for where in _shard_positions(ordered, config.resolved_shards())
            if len(where)
        ]
        shards = [[ordered[i] for i in where.tolist()] for where in positions]
        _LOG.debug(
            "dispatching %d pairs across %d shards (columnar=%s)",
            len(ordered),
            len(shards),
            plan is not None,
        )
        if plan is not None:
            tasks: Sequence = _columnar_shard_tasks(shards, store)
            worker, worker_timed = (
                _compare_shard_columnar,
                _compare_shard_columnar_timed,
            )
        else:
            tasks = _shard_tasks(shards, resolved)
            worker, worker_timed = _compare_shard_packed, _compare_shard_timed
        if tracer.enabled:
            # Workers time themselves (a pool child cannot reach this
            # span tree); each measurement becomes one completed child
            # span, so the trace shows the true per-shard skew.
            payloads = []
            for task, (seconds, payload) in zip(
                tasks,
                executor.map(worker_timed, tasks, shared=comparator),
            ):
                tracer.record(
                    "comparison.shard", seconds, pairs=len(task[0])
                )
                payloads.append(payload)
        else:
            payloads = executor.map(worker, tasks, shared=comparator)
        # Each shard holds its pairs in global sorted order, so
        # scattering shard outputs back to their positions reproduces
        # the serial scan.
        if plan is not None:
            return _merge_lanes(store, ordered, plan.attributes, positions,
                                payloads), missing
        vectors: list = [None] * len(ordered)
        for where, payload in zip(positions, payloads):
            for position, vector in zip(where.tolist(), _unpack_shard(payload)):
                vectors[position] = vector
        return vectors, missing


def _merge_lanes(store, ordered, attributes, positions, payloads) -> PairBatch:
    """One batch over ``ordered`` from the shards' ``(lanes, nulls)``."""
    lanes = [np.zeros(len(ordered)) for _ in attributes]
    nulls = [np.zeros(len(ordered), dtype=bool) for _ in attributes]
    for where, (shard_lanes, shard_nulls) in zip(positions, payloads):
        for lane, null, shard_lane, shard_null in zip(
            lanes, nulls, shard_lanes, shard_nulls
        ):
            lane[where] = shard_lane
            null[where] = shard_null
    rows_a, rows_b = store_rows(store, ordered)
    return PairBatch(
        ordered, rows_a, rows_b, store.row_ids, attributes, lanes, nulls
    )
