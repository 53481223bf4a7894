"""Experiments and gold standards.

An *experiment* is the output of running a matching solution on a
dataset (Section 1.2): a set of matches, optionally carrying similarity
scores and a flag for pairs that were added by a duplicate-clustering
step rather than labeled by the decision model itself (needed for the
"plain result pairs" selection strategy, Section 4.2.4).

A *gold standard* models the ground truth; Frost supports both a
pair-list format and a cluster-assignment format (Section 3.1.1).
"""

from __future__ import annotations

import gc
import hashlib
import json
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter

from repro.core.clustering import Clustering, closure_distance
from repro.core.pairs import Pair, ScoredPair, make_pair

__all__ = ["Match", "Experiment", "GoldStandard", "collector_paused"]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while match lists are built.

    Building or serializing an experiment allocates a few container
    objects per match (the match, its pair or row), hundreds of
    thousands in all; the allocation count alone triggers collections
    that rescan the whole heap, yet none of these objects can be part
    of a reference cycle.  The previous state is restored on exit.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass(frozen=True, slots=True)
class Match:
    """One match of an experiment.

    Slotted: an experiment holds one per pair, hundreds of thousands
    of them, and a match carries no per-instance ``__dict__``.

    Attributes
    ----------
    pair:
        Canonical record-id pair.
    score:
        Similarity/confidence the solution assigned; ``None`` when the
        solution does not expose scores.
    from_clustering:
        True when the pair was added by the duplicate-clustering step
        (e.g. transitive closure), not by the decision model.
    """

    pair: Pair
    score: float | None = None
    from_clustering: bool = False


# -- content digest -------------------------------------------------------------

# The encoder settings of the digest document (see :func:`rows_digest`).
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_SCALAR_TYPES = frozenset({type(None), bool, int, float})
_DIGEST_CHUNK_ROWS = 8192
_PAIR = attrgetter("pair")

DigestRows = tuple[Sequence[object], Sequence[int], Sequence[int], Sequence[str]]


def row_tails(scores: Sequence[object], flags: Sequence[object]) -> list[str]:
    """The ``score,from_clustering`` JSON text of each digest row.

    Each text is what :func:`json.dumps` writes for the two values, so
    ``-0.0``, ``NaN`` and ``true`` (which equals ``1``) keep their own
    spelling.  No JSON ``null``, boolean or number contains a bracket,
    so rows of those are encoded in one call and split at the row
    boundaries; other values are encoded row by row.
    """
    rows = list(zip(scores, flags))
    if not rows:
        return []
    if set(map(type, scores)).union(map(type, flags)) <= _SCALAR_TYPES:
        return _JSON.encode(rows)[2:-2].split("],[")
    return [_JSON.encode(row)[1:-1] for row in rows]


def rows_digest(
    ids: Sequence[object],
    firsts: Sequence[int],
    seconds: Sequence[int],
    tails: Sequence[str],
) -> str:
    """SHA-256 hex digest of an experiment's rows as canonical JSON.

    Row ``i`` is ``[ids[firsts[i]], ids[seconds[i]], score,
    from_clustering]``, its last two values given as the text
    ``tails[i]`` (see :func:`row_tails`); rows must come in sorted pair
    order.  The hashed bytes are exactly those of ``json.dumps(rows,
    sort_keys=True, separators=(",", ":"))``.  Each id is encoded once,
    and a row is joined from shared per-id pieces, so only its tail is
    a string of its own; the text streams into the hash a chunk of rows
    at a time and is never held whole.
    """
    texts = [_JSON.encode(record_id) for record_id in ids]
    # A row's first piece closes the row before it: the first row's
    # "]," is cut off and the last row is closed after the loop.
    opens = [f"],[{text}," for text in texts]
    closes = [f"{text}," for text in texts]
    digest = hashlib.sha256(b"[")
    cut = 2
    for start in range(0, len(tails), _DIGEST_CHUNK_ROWS):
        stop = start + _DIGEST_CHUNK_ROWS
        chunk = tails[start:stop]
        pieces = [""] * (3 * len(chunk))
        pieces[0::3] = map(opens.__getitem__, firsts[start:stop])
        pieces[1::3] = map(closes.__getitem__, seconds[start:stop])
        pieces[2::3] = chunk
        digest.update("".join(pieces)[cut:].encode("utf-8"))
        cut = 0
    digest.update(b"]]" if tails else b"]")
    return digest.hexdigest()


def _match_rows(matches: Iterable[Match]) -> DigestRows:
    """:func:`rows_digest` input for any matches: sorted by pair, ids indexed.

    An experiment's pairs are unique, so sorting the matches by pair
    sorts their rows.
    """
    ordered = sorted(matches, key=_PAIR)
    pairs = list(map(_PAIR, ordered))
    first_ids = list(map(itemgetter(0), pairs))
    second_ids = list(map(itemgetter(1), pairs))
    ids = list(dict.fromkeys(chain(first_ids, second_ids)))
    index = {record_id: position for position, record_id in enumerate(ids)}
    tails = row_tails(
        [match.score for match in ordered],
        [match.from_clustering for match in ordered],
    )
    return (
        ids,
        list(map(index.__getitem__, first_ids)),
        list(map(index.__getitem__, second_ids)),
        tails,
    )


class Experiment:
    """A matching solution's result on one dataset.

    Parameters
    ----------
    matches:
        Iterable of :class:`Match`, ``(id, id)`` tuples, or
        ``(id, id, score)`` tuples.  Duplicate pairs keep the first
        occurrence.
    name:
        Display name, e.g. ``"Examplerun-1"``.
    solution:
        Name of the matching solution that produced the result.
    metadata:
        Free-form soft-KPI payload (runtime seconds, configuration
        effort, ...), consumed by :mod:`repro.kpis`.
    """

    def __init__(
        self,
        matches: Iterable[Match | tuple],
        name: str = "experiment",
        solution: str | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> None:
        self.name = name
        self.solution = solution
        self.metadata: dict[str, object] = dict(metadata or {})
        self._matches: dict[Pair, Match] = {}
        for raw in matches:
            match = self._coerce(raw)
            self._matches.setdefault(match.pair, match)
        self._clustering: Clustering | None = None
        self._digest: str | None = None
        self._digest_rows: Callable[[], DigestRows] | None = None

    @classmethod
    def _assembled(
        cls,
        matches: Iterable[Match],
        name: str,
        solution: str | None,
        metadata: Mapping[str, object],
        clustering: Clustering | None = None,
        digest_rows: Callable[[], DigestRows] | None = None,
    ) -> "Experiment":
        """An experiment over a clustering stage's matches, taken as given.

        ``matches`` must be :class:`Match` objects with unique canonical
        pairs in sorted order, so neither coercion nor the
        first-occurrence check runs.  ``clustering``, when given, is
        the one the matches close (the clusters of
        :meth:`Clustering.from_pairs` over them, in order), and
        ``digest_rows`` returns :func:`rows_digest`'s input for them;
        it is dropped once :meth:`content_digest` has been computed.
        """
        experiment = cls((), name=name, solution=solution, metadata=metadata)
        experiment._matches = {match.pair: match for match in matches}
        experiment._clustering = clustering
        experiment._digest_rows = digest_rows
        return experiment

    @staticmethod
    def _coerce(raw: Match | tuple) -> Match:
        if isinstance(raw, Match):
            return raw
        if isinstance(raw, ScoredPair):
            return Match(pair=raw.pair, score=raw.score)
        if len(raw) == 2:
            return Match(pair=make_pair(raw[0], raw[1]))
        if len(raw) == 3:
            return Match(pair=make_pair(raw[0], raw[1]), score=float(raw[2]))
        raise TypeError(f"cannot interpret {raw!r} as a match")

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._matches)

    def __contains__(self, pair: object) -> bool:
        if isinstance(pair, tuple) and len(pair) == 2 and pair[0] != pair[1]:
            return make_pair(*pair) in self._matches
        return False

    def __iter__(self):
        return iter(self._matches.values())

    def __repr__(self) -> str:
        return f"Experiment(name={self.name!r}, matches={len(self)})"

    # -- views ------------------------------------------------------------------------

    @property
    def matches(self) -> Sequence[Match]:
        """All matches, in insertion order (first occurrence wins)."""
        return tuple(self._matches.values())

    def pairs(self) -> set[Pair]:
        """All matched pairs (the set ``E``)."""
        return set(self._matches)

    def original_pairs(self) -> set[Pair]:
        """Pairs labeled by the decision model itself (Section 4.2.4)."""
        return {
            pair
            for pair, match in self._matches.items()
            if not match.from_clustering
        }

    def scored_pairs(self) -> list[ScoredPair]:
        """Matches that carry a score, as :class:`ScoredPair` objects."""
        return [
            ScoredPair(score=match.score, pair=pair)
            for pair, match in self._matches.items()
            if match.score is not None
        ]

    def score_of(self, first: str, second: str) -> float | None:
        """Score of a pair, or ``None`` if unmatched/unscored."""
        if first == second:
            return None
        match = self._matches.get(make_pair(first, second))
        return match.score if match else None

    def has_scores(self) -> bool:
        """Whether every match carries a similarity score."""
        return all(match.score is not None for match in self._matches.values())

    # -- derived ---------------------------------------------------------------------

    def clustering(self) -> Clustering:
        """Clustering induced by transitively closing the match set.

        Snowman constructs this clustering at import time and reuses it
        for all evaluations (Section 5.3); we cache it likewise.
        """
        if self._clustering is None:
            self._clustering = Clustering.from_pairs(self._matches)
        return self._clustering

    def content_digest(self) -> str:
        """SHA-256 of the match set, scores and closure flags included.

        The digest of the compact JSON of the sorted ``[first, second,
        score, from_clustering]`` rows (see :func:`rows_digest`),
        computed once and cached.  An experiment the clustering stage
        built on lanes computes it from those lanes; any other takes
        one pass over its matches.
        """
        if self._digest is None:
            rows = self._digest_rows
            with collector_paused():
                self._digest = rows_digest(
                    *(rows() if rows is not None else _match_rows(self._matches.values()))
                )
            self._digest_rows = None
        return self._digest

    def closure_distance(self) -> int:
        """Pairs missing for transitive closure (Section 3.2.3)."""
        return closure_distance(self._matches)

    def closed(self, name: str | None = None) -> "Experiment":
        """A transitively closed copy of this experiment.

        Pairs added by the closure are flagged ``from_clustering`` and
        inherit no score, matching Frost's requirement that result sets
        be closed while remembering which pairs were original
        (Section 4.2.4).
        """
        closed_pairs = self.clustering().pairs()
        matches: list[Match] = list(self._matches.values())
        existing = set(self._matches)
        matches.extend(
            Match(pair=pair, from_clustering=True)
            for pair in sorted(closed_pairs - existing)
        )
        return Experiment(
            matches,
            name=name or f"{self.name}-closed",
            solution=self.solution,
            metadata=self.metadata,
        )

    def threshold_subset(self, threshold: float, name: str | None = None) -> "Experiment":
        """Matches with ``score >= threshold`` (unscored pairs dropped)."""
        return Experiment(
            (
                match
                for match in self._matches.values()
                if match.score is not None and match.score >= threshold
            ),
            name=name or f"{self.name}@{threshold:g}",
            solution=self.solution,
            metadata=self.metadata,
        )


@dataclass
class GoldStandard:
    """The ground truth duplicate relationships of a dataset.

    The clustering representation is canonical: "the gold standard
    typically represents complete knowledge [...] it is a clustering of
    D where every record belongs to exactly one cluster"
    (Section 3.1.1).
    """

    clustering: Clustering
    name: str = "gold"
    _pairs: set[Pair] | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Iterable[str]], name: str = "gold"
    ) -> "GoldStandard":
        """Gold standard from a duplicate-pair list (closed transitively)."""
        return cls(clustering=Clustering.from_pairs(pairs), name=name)

    @classmethod
    def from_assignment(
        cls, assignment: dict[str, str], name: str = "gold"
    ) -> "GoldStandard":
        """Gold standard from a cluster-id attribute (Section 3.1.1)."""
        return cls(clustering=Clustering.from_assignment(assignment), name=name)

    def pairs(self) -> set[Pair]:
        """All true duplicate pairs ``G`` (cached)."""
        if self._pairs is None:
            self._pairs = self.clustering.pairs()
        return self._pairs

    def pair_count(self) -> int:
        """Number of true duplicate pairs ``|G|``."""
        return self.clustering.pair_count()

    def is_duplicate(self, first: str, second: str) -> bool:
        """Whether two records are true duplicates."""
        return self.clustering.same_cluster(first, second)

    def as_experiment(self) -> Experiment:
        """The gold standard viewed as a (perfect) experiment."""
        return Experiment(
            ((a, b) for a, b in self.pairs()), name=self.name, solution="gold"
        )
