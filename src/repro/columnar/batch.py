"""List-based pair batches: comparison, decision and clustering on lanes.

*Columnar Storage and List-based Processing for Graph DBMSs* (PAPERS.md)
has operators pass blocks of values between them instead of one tuple
at a time.  This module applies that to the matching pipeline's steps
3-5 (§1.2):

* :func:`~repro.columnar.compare_block` returns a :class:`PairBatch` —
  the block's sorted canonical pairs, their two store row-id arrays and
  one ``float64`` score lane plus null mask per attribute — instead of
  one :class:`SimilarityVector` object per pair;
* the ``mean_similarity`` decision model becomes lane arithmetic
  (:meth:`PairBatch.mean_scores`), wrapped as a :class:`ScoredBatch`;
* connected-components clustering of the accepted rows runs on their
  integer row ids (:func:`component_labels`, :func:`closure_matches`),
  and the experiment built from them keeps the clustering for
  evaluation and the match lanes (:class:`ClosureLanes`) for its
  content digest.

Both batch types are read-only sequence views: they build their
:class:`SimilarityVector` / :class:`ScoredPair` objects only when
indexed or iterated, and compare equal under ``==`` to the lists the
row-by-row path returns, so every consumer that wants objects (graph
builds, rule sets, ML models, other clustering algorithms) keeps
working unchanged.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence, Set
from typing import NamedTuple

import numpy as np

from repro.core.clustering import Clustering
from repro.core.experiment import DigestRows, Match, collector_paused, row_tails
from repro.core.pairs import Pair, ScoredPair, make_pair
from repro.matching.attribute_matching import SimilarityVector

__all__ = [
    "ClosureLanes",
    "PairBatch",
    "RowPairSet",
    "RowPairs",
    "ScoredBatch",
    "accepted_pairs",
    "closure_matches",
    "component_labels",
    "sorted_unique",
    "store_rows",
]

_LOW_BITS = np.int64(0xFFFFFFFF)


def store_rows(store, pairs: Sequence[Pair]) -> tuple[np.ndarray, np.ndarray]:
    """The two ``int64`` store-row arrays of ``pairs`` (first, second id)."""
    row_index = store.row_index
    rows = np.fromiter(
        (row_index[record_id] for pair in pairs for record_id in pair),
        dtype=np.int64,
        count=2 * len(pairs),
    ).reshape(-1, 2)
    return np.ascontiguousarray(rows[:, 0]), np.ascontiguousarray(rows[:, 1])


class RowPairs:
    """Candidate pairs given as two row lanes of one columnar store.

    Pair ``i`` joins the records at rows ``rows_a[i]`` and
    ``rows_b[i]`` of ``store``, in either order.  Iterating builds the
    canonical record-id pairs; the comparison stage scores a store's
    own row pairs without building any
    (:func:`repro.matching.comparison.score_candidates`).
    """

    __slots__ = ("store", "rows_a", "rows_b")

    def __init__(
        self, store, rows_a: np.ndarray, rows_b: np.ndarray
    ) -> None:
        self.store = store
        self.rows_a = rows_a
        self.rows_b = rows_b

    def __len__(self) -> int:
        return len(self.rows_a)

    def __iter__(self):
        row_ids = self.store.row_ids
        return map(
            make_pair,
            map(row_ids.__getitem__, self.rows_a.tolist()),
            map(row_ids.__getitem__, self.rows_b.tolist()),
        )

    def __repr__(self) -> str:
        return f"RowPairs(pairs={len(self)})"


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)``, by one sort and an adjacent-difference mask.

    On ``int64`` keys numpy 2.4's ``np.unique`` takes a hash path that
    runs about fifty times slower than this sort on a million packed
    pair keys.
    """
    keys = np.sort(keys)
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


class RowPairSet(RowPairs, Set):
    """Canonical candidate pairs of one store, as sorted row lanes.

    ``keys`` holds each pair once as ``low << 32 | high`` over its two
    rows' ranks in sorted record-id order (:meth:`ColumnarStore.id_ranks
    <repro.columnar.ColumnarStore.id_ranks>`), ascending; ``rows_a`` is
    the row of each pair's smaller record id.  So the pairs are in the
    order :func:`sorted` gives their id tuples, and the comparison stage
    scores a store's own set on its rows without a string lookup.
    :meth:`from_ranks` builds one from two rank lanes; only this class
    knows the key format.

    The lanes also read as a read-only set of canonical record-id
    pairs: iteration builds the tuples in sorted order, ``in`` is an
    exact binary search over ``keys`` (``False`` for a reversed pair,
    ``(x, x)`` or ids the store lacks), and set algebra returns plain
    ``set`` objects.
    """

    __slots__ = ("keys", "_ranks")

    def __init__(self, store, keys: np.ndarray) -> None:
        ranks = store.id_ranks()
        by_rank = np.empty_like(ranks)
        by_rank[ranks] = np.arange(len(ranks))
        super().__init__(store, by_rank[keys >> 32], by_rank[keys & _LOW_BITS])
        self.keys = keys
        # ranks as of the keys: extending the store replaces the array
        self._ranks = ranks

    @classmethod
    def from_ranks(
        cls, store, firsts: np.ndarray, seconds: np.ndarray
    ) -> RowPairSet:
        """The distinct pairs of the rows ranked ``firsts[i]``, ``seconds[i]``.

        Ranks are :meth:`ColumnarStore.id_ranks
        <repro.columnar.ColumnarStore.id_ranks>` positions; a pair may
        come in either order and any number of times.  ``seconds`` is
        overwritten, and lanes passed as temporaries are freed as soon
        as they are packed, so packing holds at most three pair lanes.
        """
        if (firsts == seconds).any():
            raise ValueError("a record pair needs two distinct records")
        keys = np.minimum(firsts, seconds)
        np.maximum(firsts, seconds, out=seconds)
        del firsts
        keys <<= 32
        keys |= seconds
        del seconds
        keys = sorted_unique(keys)
        return cls(store, keys)

    @classmethod
    def _from_iterable(cls, pairs: Iterable[Pair]) -> set[Pair]:
        return set(pairs)

    def __contains__(self, pair: object) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        ranks = self._ranks
        row_index = self.store.row_index
        try:
            row_a = row_index.get(pair[0], len(ranks))
            row_b = row_index.get(pair[1], len(ranks))
        except TypeError:  # an unhashable id is no record id
            return False
        if row_a >= len(ranks) or row_b >= len(ranks):
            return False
        # a reversed pair or (x, x) packs to a key no member has
        key = int(ranks[row_a]) << 32 | int(ranks[row_b])
        at = int(np.searchsorted(self.keys, key))
        return at < len(self.keys) and int(self.keys[at]) == key

    def __repr__(self) -> str:
        return f"RowPairSet(pairs={len(self)})"


class PairBatch(Sequence):
    """Similarity vectors of one block of candidate pairs, kept as lanes.

    ``pairs`` are canonical and in the order they were scored;
    ``rows_a``/``rows_b`` are the rows of each pair's first and second
    record in the store the block was scored on, and ``row_ids`` maps
    those rows back to record ids.  Constructed with ``pairs=None``, a
    batch builds :attr:`pairs` from its rows on first read, and
    :func:`accepted_pairs` builds only the accepted ones.  Per
    attribute of ``attributes``
    (comparator order) ``lanes`` holds the ``float64`` scores and
    ``nulls`` a mask that is true where either record lacks the value;
    a null lane position holds ``0.0``.

    Indexing and iteration build :class:`SimilarityVector` objects on
    demand (``None`` for nulls, Python ``float`` scores); slicing
    returns a sub-batch.  A batch equals the vector list the scalar
    loop returns for the same pairs.
    """

    __slots__ = (
        "_pairs", "rows_a", "rows_b", "row_ids", "attributes", "lanes",
        "nulls", "_columns",
    )

    def __init__(
        self,
        pairs: Sequence[Pair] | None,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        row_ids: Sequence[str],
        attributes: Sequence[str],
        lanes: Sequence[np.ndarray],
        nulls: Sequence[np.ndarray],
    ) -> None:
        self._pairs = (
            pairs if pairs is None or isinstance(pairs, list) else list(pairs)
        )
        self.rows_a = rows_a
        self.rows_b = rows_b
        self.row_ids = row_ids
        self.attributes = tuple(attributes)
        self.lanes = tuple(lanes)
        self.nulls = tuple(nulls)
        self._columns: list[list[float | None]] | None = None

    def __len__(self) -> int:
        return len(self.rows_a)

    @property
    def pairs(self) -> list[Pair]:
        """The canonical pairs, in scoring order (built once, on demand)."""
        if self._pairs is None:
            self._pairs = self.pairs_at(slice(None))
        return self._pairs

    def pairs_at(self, positions) -> list[Pair]:
        """The pairs at ``positions`` (an index array or a slice)."""
        if self._pairs is not None:
            if isinstance(positions, slice):
                return self._pairs[positions]
            return [self._pairs[position] for position in positions.tolist()]
        row_ids = self.row_ids
        return list(zip(
            map(row_ids.__getitem__, self.rows_a[positions].tolist()),
            map(row_ids.__getitem__, self.rows_b[positions].tolist()),
        ))

    def _python_columns(self) -> list[list[float | None]]:
        """Per-attribute Python lists with ``None`` at nulls (cached)."""
        if self._columns is None:
            columns = []
            for lane, null in zip(self.lanes, self.nulls):
                column = lane.tolist()
                for position in np.flatnonzero(null).tolist():
                    column[position] = None
                columns.append(column)
            self._columns = columns
        return self._columns

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PairBatch(
                None if self._pairs is None else self._pairs[index],
                self.rows_a[index],
                self.rows_b[index],
                self.row_ids,
                self.attributes,
                [lane[index] for lane in self.lanes],
                [null[index] for null in self.nulls],
            )
        pair = self.pairs[index]
        values = [column[index] for column in self._python_columns()]
        return _vector(pair, dict(zip(self.attributes, values)))

    def __iter__(self):
        attributes = self.attributes
        for pair, values in zip(self.pairs, zip(*self._python_columns())):
            yield _vector(pair, dict(zip(attributes, values)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairBatch) and other.attributes == self.attributes:
            return self.pairs == other.pairs and all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(
                    self.nulls + self.lanes, other.nulls + other.lanes
                )
            )
        if isinstance(other, (list, PairBatch)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    __hash__ = None  # mutable-list semantics: views are not hashable

    def __repr__(self) -> str:
        return (
            f"PairBatch(pairs={len(self)}, "
            f"attributes={', '.join(self.attributes)})"
        )

    def mean_scores(self) -> np.ndarray:
        """:meth:`SimilarityVector.mean` of every row, as one array.

        Adds the lanes in attribute order, which is the left-to-right
        order of the scalar mean.  A null position holds ``0.0`` and
        ``x + 0.0 == x`` for every running total (which starts at
        ``+0.0`` and so is never ``-0.0``), so each row sums exactly the
        present values, rounded after every addition, and divides by
        their count — bit for bit the scalar result.
        """
        total = np.zeros(len(self), dtype=np.float64)
        present = np.zeros(len(self), dtype=np.int64)
        for lane, null in zip(self.lanes, self.nulls):
            total += lane
            present += ~null
        return np.divide(
            total, present, out=np.zeros(len(self)), where=present > 0
        )


class ScoredBatch(Sequence):
    """Decision-model scores of a :class:`PairBatch`, as a view.

    Iterates, indexes and compares like the ``list[ScoredPair]`` the
    row-by-row decision stage returns; ``scores`` keeps the float64
    array for vectorized thresholding.
    """

    __slots__ = ("batch", "scores")

    def __init__(self, batch: PairBatch, scores: np.ndarray) -> None:
        self.batch = batch
        self.scores = scores

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ScoredBatch(self.batch[index], self.scores[index])
        return _scored_pair(float(self.scores[index]), self.batch.pairs[index])

    def __iter__(self):
        for score, pair in zip(self.scores.tolist(), self.batch.pairs):
            yield _scored_pair(score, pair)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ScoredBatch):
            return self.batch.pairs == other.batch.pairs and np.array_equal(
                self.scores, other.scores
            )
        if isinstance(other, list):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"ScoredBatch(pairs={len(self)})"


def accepted_pairs(scored: Sequence[ScoredPair], threshold: float) -> list[ScoredPair]:
    """The scored pairs at or above ``threshold``, in input order.

    A :class:`ScoredBatch` is thresholded as one array, and only its
    accepted rows become :class:`ScoredPair` objects.
    """
    if not isinstance(scored, ScoredBatch):
        return [sp for sp in scored if sp.score >= threshold]
    index = np.flatnonzero(scored.scores >= threshold)
    return [
        _scored_pair(score, pair)
        for pair, score in zip(
            scored.batch.pairs_at(index), scored.scores[index].tolist()
        )
    ]


# Frozen dataclasses pay one object.__setattr__ per field in __init__;
# writing the instance dict directly (as unpickling does), or the slots
# of a slotted class through their descriptors, builds the same object
# at a fraction of the cost, which matters per pair.


def _vector(pair: Pair, values: dict[str, float | None]) -> SimilarityVector:
    vector = SimilarityVector.__new__(SimilarityVector)
    vector.__dict__["pair"] = pair
    vector.__dict__["values"] = values
    return vector


def _scored_pair(score: float, pair: Pair) -> ScoredPair:
    scored = ScoredPair.__new__(ScoredPair)
    scored.__dict__["score"] = score
    scored.__dict__["pair"] = pair
    return scored


_set_pair = Match.__dict__["pair"].__set__
_set_score = Match.__dict__["score"].__set__
_set_from_clustering = Match.__dict__["from_clustering"].__set__


def _match(pair: Pair, score: float | None, from_clustering: bool) -> Match:
    match = Match.__new__(Match)
    _set_pair(match, pair)
    _set_score(match, score)
    _set_from_clustering(match, from_clustering)
    return match


# -- clustering on row ids ---------------------------------------------------


def component_labels(
    count: int, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """Connected components of ``count`` nodes joined by edge arrays.

    Returns, per node, the smallest node id of its component.  Each
    round hooks every root onto the smallest root it shares an edge
    with, then jumps pointers until every node points at its root, so a
    round at least halves the roots of a path and long chains take a
    logarithmic number of rounds.
    """
    labels = np.arange(count, dtype=np.int64)
    first = np.asarray(first, dtype=np.int64)
    second = np.asarray(second, dtype=np.int64)
    while True:
        label_a = labels[first]
        label_b = labels[second]
        linked = label_a != label_b
        if not linked.any():
            return labels
        low = np.minimum(label_a[linked], label_b[linked])
        high = np.maximum(label_a[linked], label_b[linked])
        np.minimum.at(labels, high, low)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


class ClosureLanes(NamedTuple):
    """The matches of :func:`closure_matches` as lanes, for their digest.

    ``ids`` are the clustered record ids in sorted order; match ``i``
    pairs ``ids[firsts[i]]`` with ``ids[seconds[i]]``.  The accepted
    rows sit at ``direct`` and carry ``scores``; every other match is
    unscored and flagged ``from_clustering``.
    """

    ids: list[str]
    firsts: np.ndarray
    seconds: np.ndarray
    direct: np.ndarray
    scores: np.ndarray

    def digest_rows(self) -> DigestRows:
        """:func:`~repro.core.experiment.rows_digest` input of the matches.

        Each distinct score is rendered once.  Scores are told apart by
        bit pattern, because ``0.0 == -0.0`` yet each has its own text.
        """
        (derived,) = row_tails([None], [True])
        tails = [derived] * len(self.firsts)
        scores = self.scores
        bits, inverse = np.unique(
            scores.view(f"u{scores.itemsize}"), return_inverse=True
        )
        texts = row_tails(bits.view(scores.dtype).tolist(), [False] * len(bits))
        for position, distinct in zip(self.direct.tolist(), inverse.tolist()):
            tails[position] = texts[distinct]
        return self.ids, self.firsts.tolist(), self.seconds.tolist(), tails


def closure_matches(
    scored: ScoredBatch, accepted: np.ndarray
) -> tuple[Clustering, list[Match], ClosureLanes]:
    """Connected components of the accepted rows and their match list.

    ``accepted`` is a boolean mask over ``scored``.  Returns what
    ``connected_components`` and the pipeline's match assembly build
    from the accepted :class:`ScoredPair` list: the clustering (clusters
    in the same order as :meth:`Clustering.from_pairs`) and every
    intra-cluster pair as one :class:`Match`, in sorted pair order,
    scored where the decision model accepted it and flagged
    ``from_clustering`` where only transitivity implies it.  The third
    value holds the same matches as :class:`ClosureLanes`.
    """
    batch = scored.batch
    index = np.flatnonzero(accepted)
    if not len(index):
        empty = np.empty(0, dtype=np.int64)
        return Clustering([]), [], ClosureLanes(
            [], empty, empty, empty, np.empty(0, dtype=np.float64)
        )
    # Dense node ids over the rows the accepted pairs touch.
    rows, endpoints = np.unique(
        np.concatenate((batch.rows_a[index], batch.rows_b[index])),
        return_inverse=True,
    )
    first, second = endpoints[: len(index)], endpoints[len(index):]
    labels = component_labels(len(rows), first, second)
    # Rank the nodes by record id: pairs sort by (first id, second id),
    # so visiting nodes in rank order visits pairs in sorted order.
    ids = [batch.row_ids[row] for row in rows.tolist()]
    by_rank = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
    rank = np.empty_like(by_rank)
    rank[by_rank] = np.arange(len(by_rank))
    # Members grouped by component, each component in rank order.
    members = np.lexsort((rank, labels))
    component = labels[members]
    starts = np.flatnonzero(np.r_[True, component[1:] != component[:-1]])
    sizes = np.diff(np.r_[starts, len(members)])
    # Each node pairs with the members after it in its component.
    position = np.empty_like(members)
    position[members] = np.arange(len(members))
    at = position[by_rank]
    counts = np.repeat(starts + sizes, sizes)[at] - at - 1
    firsts = np.repeat(by_rank, counts)
    offsets = np.arange(len(firsts)) - np.repeat(np.cumsum(counts) - counts, counts)
    seconds = members[np.repeat(at + 1, counts) + offsets]
    # Closure keys ascend, so each accepted pair is found by bisection.
    nodes = len(ids)
    direct = np.searchsorted(
        rank[firsts] * nodes + rank[seconds], rank[first] * nodes + rank[second]
    )
    accepted_scores = scored.scores[index]
    scores: list[float | None] = [None] * len(firsts)
    for place, score in zip(direct.tolist(), accepted_scores.tolist()):
        scores[place] = score
    derived = np.ones(len(firsts), dtype=bool)
    derived[direct] = False
    with collector_paused():
        matches = [
            _match((ids[a], ids[b]), score, flag)
            for a, b, score, flag in zip(
                firsts.tolist(), seconds.tolist(), scores, derived.tolist()
            )
        ]
    order = np.argsort(rank[members[starts]])
    clustering = Clustering(
        [ids[node] for node in members[start:start + size].tolist()]
        for start, size in zip(starts[order].tolist(), sizes[order].tolist())
    )
    lanes = ClosureLanes(
        [ids[node] for node in by_rank.tolist()],
        rank[firsts], rank[seconds], direct, accepted_scores,
    )
    return clustering, matches, lanes
