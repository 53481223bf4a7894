"""Error analysis: nearest correctly classified pair (§4.4).

"To better understand why a pair was misclassified [...] one could
analyze why a similar pair was labelled correctly."  For a
misclassified pair ``p_f = {e_f1, e_f2}`` we search the correctly
classified pairs for the most similar ``p_t = {e_t1, e_t2}``.
Similarity between the two *pairs* is expressed by two vectors

    v_direct = (sim(e_f1, e_t1), sim(e_f2, e_t2))
    v_cross  = (sim(e_f1, e_t2), sim(e_f2, e_t1))

each reduced with a Minkowski norm (q in [1, 2]) against the origin,
and the pair score is the max of the two reductions.  The candidate
with the highest score is selected.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.pairs import Pair
from repro.core.records import Dataset, Record

__all__ = ["minkowski_norm", "pair_similarity_score", "ErrorAnalysis", "Explanation"]

RecordSimilarity = Callable[[Record, Record], float]


def minkowski_norm(vector: tuple[float, float], q: float) -> float:
    """``(|v1|^q + |v2|^q)^(1/q)`` — Manhattan at q=1, Euclidean at q=2."""
    if not 1.0 <= q <= 2.0:
        raise ValueError(f"q must be in [1, 2], got {q}")
    return (abs(vector[0]) ** q + abs(vector[1]) ** q) ** (1.0 / q)


def pair_similarity_score(
    failed: tuple[Record, Record],
    correct: tuple[Record, Record],
    similarity: RecordSimilarity,
    q: float = 2.0,
) -> float:
    """``max(distance(v_direct), distance(v_cross))`` per §4.4."""
    failed_a, failed_b = failed
    correct_a, correct_b = correct
    direct = (similarity(failed_a, correct_a), similarity(failed_b, correct_b))
    cross = (similarity(failed_a, correct_b), similarity(failed_b, correct_a))
    return max(minkowski_norm(direct, q), minkowski_norm(cross, q))


@dataclass(frozen=True)
class Explanation:
    """A misclassified pair enriched with its nearest correct pair."""

    failed_pair: Pair
    nearest_correct_pair: Pair | None
    score: float


class ErrorAnalysis:
    """Enrich misclassified pairs with similar correctly classified pairs.

    Parameters
    ----------
    dataset:
        Provides the records behind pair ids.
    similarity:
        Record-level similarity; defaults to the mean Jaro–Winkler over
        shared non-null attributes.  §4.4 notes exhaustive search costs
        ``O(n^4)`` in the worst case and suggests "a simple distance
        measure for a set of promising pairs internally" — pass a
        restricted ``candidates`` list to :meth:`explain` for that.
    """

    def __init__(
        self,
        dataset: Dataset,
        similarity: RecordSimilarity | None = None,
        q: float = 2.0,
    ) -> None:
        self.dataset = dataset
        self.q = q
        if similarity is None:
            similarity = _default_record_similarity
        self.similarity = similarity

    def explain(
        self,
        failed_pair: Pair,
        correct_pairs: Sequence[Pair],
    ) -> Explanation:
        """Find the most similar correctly classified pair (§4.4)."""
        failed = (
            self.dataset[failed_pair[0]],
            self.dataset[failed_pair[1]],
        )
        best_pair: Pair | None = None
        best_score = -math.inf
        for candidate in correct_pairs:
            if candidate == failed_pair:
                continue
            correct = (self.dataset[candidate[0]], self.dataset[candidate[1]])
            score = pair_similarity_score(failed, correct, self.similarity, self.q)
            if score > best_score or (
                score == best_score
                and (best_pair is None or candidate < best_pair)
            ):
                best_score = score
                best_pair = candidate
        return Explanation(
            failed_pair=failed_pair,
            nearest_correct_pair=best_pair,
            score=best_score if best_pair is not None else 0.0,
        )

    def explain_all(
        self,
        failed_pairs: Sequence[Pair],
        correct_pairs: Sequence[Pair],
    ) -> list[Explanation]:
        """Explanations for a batch of misclassified pairs."""
        return [self.explain(pair, correct_pairs) for pair in failed_pairs]


def _default_record_similarity(first: Record, second: Record) -> float:
    from repro.matching.similarity import jaro_winkler

    shared = [
        attribute
        for attribute in first.values
        if first.value(attribute) is not None
        and second.value(attribute) is not None
    ]
    if not shared:
        return 0.0
    return sum(
        jaro_winkler(first.value(attribute), second.value(attribute))
        for attribute in shared
    ) / len(shared)
