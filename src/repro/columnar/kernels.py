"""Batch similarity kernels over columnar value-id blocks.

Each kernel scores one attribute for a whole block of candidate pairs
at once, given the two value-id arrays of the block.  The block engine
(:mod:`repro.columnar.compare`) deduplicates the block down to its
*distinct* value-id pairs first — the same two strings are never scored
twice — and every kernel guarantees **bitwise identity** with its
scalar counterpart in :mod:`repro.matching.similarity`:

* set-overlap kernels (token/n-gram Jaccard, overlap coefficient)
  count intersections over the store's sorted interned-id arrays; the
  counts are exact integers, so the final divisions produce the very
  same doubles as the scalar ``len(a & b) / len(a | b)``;
* the numeric kernel evaluates the scalar's relative-distance formula
  elementwise in ``float64`` — IEEE-754 basic operations are
  deterministic, so each lane equals the scalar result bit for bit;
* edit-distance, Jaro–Winkler and Monge–Elkan kernels call the scalar
  functions per distinct string pair (identity by construction), with
  Monge–Elkan memoizing its *inner* token-level similarity across the
  whole corpus vocabulary;
* the TF-IDF cosine kernel calls the fitted instance per distinct
  value pair, so even the float summation order matches;
* any other measure runs on a generic :class:`MemoizedKernel` over the
  function itself, which scores each distinct value pair of a block
  once — identical to the row loop for the pure ``(str, str) -> float``
  functions the :data:`~repro.matching.similarity.Similarity` type
  describes.

The kernels that call a Python function per value pair
(:class:`MemoizedKernel`, :class:`TfIdfKernel`) name it as their
:attr:`Kernel.measure`; :func:`~repro.columnar.compare_block` memoizes
their scores on the store, so a value pair scored by an earlier block
of the same layout is not scored again.  That layout memo is the one
memo of value-pair scores; a fresh layout scores its pairs afresh.

:func:`plan_for` maps every exact
:class:`~repro.matching.attribute_matching.AttributeComparator` onto a
:class:`KernelPlan`; only subclassed or duck-typed comparators get
``None`` and are scored by the caller's serial row loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.columnar.store import ColumnarStore
from repro.matching.attribute_matching import AttributeComparator
from repro.matching.similarity import (
    TfIdfCosine,
    exact,
    jaro,
    jaro_winkler,
    levenshtein,
    monge_elkan,
    ngram_jaccard,
    numeric_similarity,
    overlap_coefficient,
    soundex_similarity,
    token_jaccard,
)

__all__ = ["Kernel", "KernelPlan", "MEMO_ENTRIES", "plan_for", "kernel_for"]

# Entries the per-layout score memo of :func:`repro.columnar.compare_block`
# holds per measure; it is the only memo of value-pair scores.
MEMO_ENTRIES = 131072


class Kernel:
    """Scores the distinct value-id pairs of one attribute block.

    ``unique_scores`` receives two equal-length ``int64`` arrays of
    non-null value ids (the deduplicated block) and returns one
    ``float64`` score per pair, bitwise equal to the scalar measure on
    the corresponding strings.

    ``measure`` is the scalar function a kernel calls once per value
    pair, or ``None`` for a vectorized kernel.  Scores of a kernel with
    a measure are memoized on the store per measure object (and
    :meth:`memo_version`), never per kernel name: every custom
    measure's kernel is named ``"custom"``.
    """

    name = "kernel"
    measure = None

    def memo_version(self) -> object:
        """What the measure's scores depend on besides the two values."""
        return None

    def unique_scores(
        self, store: ColumnarStore, vids_a: np.ndarray, vids_b: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    def warm(self, store: ColumnarStore) -> None:
        """Precompute the derived arrays this kernel reads from ``store``.

        Called at layout time (:meth:`KernelPlan.warm`) so the scoring
        pass itself touches only ready-made arrays — the columnar
        analogue of paying import/layout cost at load, not per query.
        """


# -- set-overlap kernels -----------------------------------------------------


def _gather_csr(
    indptr: np.ndarray, ids: np.ndarray, vids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the CSR rows of ``vids`` into (pair-index, id) arrays.

    Returns ``(rows, flat_ids, counts)`` where ``rows[k]`` is the
    position within ``vids`` owning ``flat_ids[k]``; rows ascend and
    each row's ids stay sorted, so the flattened keys below are
    globally sorted.
    """
    counts = indptr[vids + 1] - indptr[vids]
    total = int(counts.sum())
    rows = np.repeat(np.arange(len(vids), dtype=np.int64), counts)
    if total == 0:
        return rows, np.empty(0, dtype=np.int64), counts
    cumulative = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        cumulative - counts, counts
    )
    flat = ids[np.repeat(indptr[vids], counts) + offsets]
    return rows, flat, counts


def _intersection_sizes(
    store_csr: tuple[np.ndarray, np.ndarray],
    vids_a: np.ndarray,
    vids_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair ``(|A ∩ B|, |A|, |B|)`` over sorted interned-id rows.

    Encodes every (pair, id) membership as ``pair * stride + id`` and
    intersects the two sorted key arrays in one vectorized pass — the
    list-based batch processing move of the columnar-graph-DBMS
    literature, applied to similarity sets.
    """
    indptr, ids = store_csr
    rows_a, flat_a, counts_a = _gather_csr(indptr, ids, vids_a)
    rows_b, flat_b, counts_b = _gather_csr(indptr, ids, vids_b)
    stride = int(ids.max()) + 1 if len(ids) else 1
    keys_a = rows_a * stride + flat_a
    keys_b = rows_b * stride + flat_b
    common = np.intersect1d(keys_a, keys_b, assume_unique=True)
    intersections = np.bincount(
        common // stride, minlength=len(vids_a)
    ).astype(np.int64)
    return intersections, counts_a.astype(np.int64), counts_b.astype(np.int64)


class TokenJaccardKernel(Kernel):
    """Vectorized :func:`~repro.matching.similarity.token_jaccard`."""

    name = "token_jaccard"

    def _csr(self, store: ColumnarStore) -> tuple[np.ndarray, np.ndarray]:
        return store.token_csr()

    def warm(self, store):
        self._csr(store)

    def unique_scores(self, store, vids_a, vids_b):
        inter, len_a, len_b = _intersection_sizes(
            self._csr(store), vids_a, vids_b
        )
        union = len_a + len_b - inter
        scores = np.divide(
            inter,
            union,
            out=np.ones(len(union), dtype=np.float64),
            where=union > 0,  # both empty -> 1.0, like the scalar
        )
        return scores


class NgramJaccardKernel(TokenJaccardKernel):
    """Vectorized :func:`~repro.matching.similarity.ngram_jaccard`."""

    name = "ngram_jaccard"

    def __init__(self, n: int = 2) -> None:
        self.n = n

    def _csr(self, store: ColumnarStore) -> tuple[np.ndarray, np.ndarray]:
        return store.ngram_csr(self.n)


class OverlapKernel(Kernel):
    """Vectorized :func:`~repro.matching.similarity.overlap_coefficient`."""

    name = "overlap"

    def warm(self, store):
        store.token_csr()

    def unique_scores(self, store, vids_a, vids_b):
        inter, len_a, len_b = _intersection_sizes(
            store.token_csr(), vids_a, vids_b
        )
        smaller = np.minimum(len_a, len_b)
        # Scalar: either side empty -> 1.0 iff both empty, else 0.0.
        empty_side = smaller == 0
        both_empty = (len_a == 0) & (len_b == 0)
        scores = np.divide(
            inter,
            smaller,
            out=np.zeros(len(smaller), dtype=np.float64),
            where=~empty_side,
        )
        scores[both_empty] = 1.0
        return scores


# -- elementwise kernels -----------------------------------------------------


class ExactKernel(Kernel):
    """Interned-id equality — one vectorized comparison per pair."""

    name = "exact"

    def unique_scores(self, store, vids_a, vids_b):
        return np.where(vids_a == vids_b, 1.0, 0.0)


class SoundexKernel(Kernel):
    """Vectorized Soundex-code equality with the sentinel fallback."""

    name = "soundex"

    def warm(self, store):
        store.soundex_codes()

    def unique_scores(self, store, vids_a, vids_b):
        codes = store.soundex_codes()
        code_a = codes[vids_a]
        code_b = codes[vids_b]
        # Sentinel code 0 = not encodable -> exact string equality,
        # which interning reduces to value-id equality.
        sentinel = (code_a == 0) | (code_b == 0)
        return np.where(
            sentinel,
            np.where(vids_a == vids_b, 1.0, 0.0),
            np.where(code_a == code_b, 1.0, 0.0),
        )


class NumericKernel(Kernel):
    """Vectorized :func:`~repro.matching.similarity.numeric_similarity`.

    Evaluates the scalar's relative-distance formula lane by lane with
    the same IEEE-754 ``float64`` operations (same operand order, same
    rounding), so every lane is bitwise equal to the scalar result.
    """

    name = "numeric"

    def __init__(self, tolerance: float = 0.2) -> None:
        self.tolerance = tolerance

    def warm(self, store):
        store.numeric()

    def unique_scores(self, store, vids_a, vids_b):
        parsed, usable = store.numeric()
        value_a = parsed[vids_a]
        value_b = parsed[vids_b]
        both = usable[vids_a] & usable[vids_b]
        scale = np.maximum(np.abs(value_a), np.abs(value_b))
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = np.abs(value_a - value_b) / scale
            linear = 1.0 - relative / self.tolerance
        scores = np.where(
            value_a == value_b,
            1.0,
            np.where(
                scale == 0.0,
                1.0,
                np.where(relative >= self.tolerance, 0.0, linear),
            ),
        )
        # Unparsable / non-finite values: exact string equality.
        return np.where(both, scores, np.where(vids_a == vids_b, 1.0, 0.0))


# -- memoized string kernels -------------------------------------------------


@lru_cache(maxsize=262144)
def _cached_inner_jaro_winkler(token_a: str, token_b: str) -> float:
    """Monge–Elkan's inner measure, memoized over the token vocabulary.

    The one process-wide memo of the kernels: the layout memo keys
    value pairs, while Monge–Elkan's inner loop repeats token pairs
    across different value pairs.
    """
    return jaro_winkler(token_a, token_b)


def _monge_elkan(first: str, second: str) -> float:
    """:func:`~repro.matching.similarity.monge_elkan` on the memoized inner.

    The scalar itself, so identity holds by construction; each distinct
    token pair costs one Jaro–Winkler evaluation per process.
    """
    return monge_elkan(first, second, inner=_cached_inner_jaro_winkler)


class MemoizedKernel(Kernel):
    """A scalar measure called once per distinct value pair."""

    def __init__(self, name: str, function) -> None:
        self.name = name
        self.measure = function

    def unique_scores(self, store, vids_a, vids_b):
        values = store.values
        function = self.measure
        return np.fromiter(
            (
                function(values[vid_a], values[vid_b])
                for vid_a, vid_b in zip(vids_a.tolist(), vids_b.tolist())
            ),
            dtype=np.float64,
            count=len(vids_a),
        )


class TfIdfKernel(MemoizedKernel):
    """TF-IDF cosine: one fitted instance, called per distinct value pair.

    Bound to one fitted :class:`~repro.matching.similarity.TfIdfCosine`
    instance, whose own vector cache serves every value once per corpus
    state.  Scores change when the instance's corpus grows, so its
    document count is part of the score memo's key
    (:meth:`memo_version`).
    """

    def __init__(self, measure: TfIdfCosine) -> None:
        super().__init__("tfidf_cosine", measure)

    def memo_version(self) -> object:
        return self.measure._documents


# -- planning ----------------------------------------------------------------


@dataclass(frozen=True)
class KernelPlan:
    """The per-attribute kernels of one :class:`AttributeComparator`."""

    attributes: tuple[str, ...]
    kernels: tuple[Kernel, ...]

    def warm(self, store: ColumnarStore) -> None:
        """Precompute every derived array the plan's kernels will read.

        Layout time: :meth:`MatchingPipeline.generate_candidates
        <repro.matching.pipeline.MatchingPipeline.generate_candidates>`
        warms the prepared dataset's store before blocking it, and a
        streaming session warms its layout after each extension.
        """
        for kernel in self.kernels:
            kernel.warm(store)


def _builders():
    return {
        exact: lambda: ExactKernel(),
        levenshtein: lambda: MemoizedKernel("levenshtein", levenshtein),
        jaro: lambda: MemoizedKernel("jaro", jaro),
        jaro_winkler: lambda: MemoizedKernel("jaro_winkler", jaro_winkler),
        token_jaccard: lambda: TokenJaccardKernel(),
        overlap_coefficient: lambda: OverlapKernel(),
        ngram_jaccard: lambda: NgramJaccardKernel(),
        monge_elkan: lambda: MemoizedKernel("monge_elkan", _monge_elkan),
        soundex_similarity: lambda: SoundexKernel(),
        numeric_similarity: lambda: NumericKernel(),
    }


_KERNEL_BUILDERS = _builders()


def kernel_for(function) -> Kernel | None:
    """The dedicated batch kernel of one similarity function, if any.

    Matches the *built-in* measures by function identity (a wrapped or
    partially-applied variant could behave differently, so it gets no
    kernel) and fitted :class:`TfIdfCosine` instances by type.
    """
    try:
        builder = _KERNEL_BUILDERS.get(function)
    except TypeError:  # unhashable callable
        builder = None
    if builder is not None:
        return builder()
    if type(function) is TfIdfCosine:
        return TfIdfKernel(function)
    return None


def plan_for(comparator) -> KernelPlan | None:
    """A :class:`KernelPlan` for ``comparator``, or ``None``.

    Every exact :class:`AttributeComparator` gets a plan: measures
    without a dedicated kernel (:func:`kernel_for`) run on a generic
    :class:`MemoizedKernel` over the function itself.  A subclass may
    override ``compare`` and a duck-typed comparator has no
    ``functions`` to plan from, so both get ``None``.
    """
    if type(comparator) is not AttributeComparator:
        return None
    functions = comparator.functions
    return KernelPlan(
        attributes=tuple(functions),
        kernels=tuple(
            kernel_for(function) or MemoizedKernel("custom", function)
            for function in functions.values()
        ),
    )
