"""Similarity-based attribute value matching (pipeline step 3, §1.2).

Computes, for each candidate pair, a vector of per-attribute similarity
values — the feature representation consumed by the decision models of
step 4.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.core.pairs import Pair
from repro.core.records import Dataset, Record
from repro.matching.similarity import SIMILARITY_FUNCTIONS, Similarity, ordered_sum

__all__ = ["AttributeComparator", "SimilarityVector", "compare_pairs"]


@dataclass(frozen=True)
class SimilarityVector:
    """Per-attribute similarities of one candidate pair.

    ``values[attribute]`` is the similarity in ``[0, 1]``, or ``None``
    when either record is null in that attribute (missing comparisons
    are distinguished from zero similarity so that decision models can
    handle sparsity explicitly, cf. §4.5.2).
    """

    pair: Pair
    values: Mapping[str, float | None]

    def dense(self, attributes: Sequence[str], missing: float = 0.0) -> list[float]:
        """Vector over ``attributes`` with ``missing`` for null comparisons."""
        return [
            self.values.get(attribute) if self.values.get(attribute) is not None
            else missing
            for attribute in attributes
        ]

    def mean(self) -> float:
        """Mean of the non-missing similarities (0.0 if all missing).

        Summed left to right (:func:`~repro.matching.similarity.ordered_sum`),
        the order :meth:`repro.columnar.PairBatch.mean_scores` reproduces
        lane by lane.
        """
        present = [v for v in self.values.values() if v is not None]
        if not present:
            return 0.0
        return ordered_sum(present) / len(present)


class AttributeComparator:
    """Configurable per-attribute similarity computation.

    Parameters
    ----------
    config:
        Mapping from attribute name to a similarity function or the
        name of a built-in one (see
        :data:`repro.matching.similarity.SIMILARITY_FUNCTIONS`).
    """

    def __init__(self, config: Mapping[str, Similarity | str]) -> None:
        if not config:
            raise ValueError("comparator needs at least one attribute")
        self._config: dict[str, Similarity] = {}
        for attribute, function in config.items():
            if isinstance(function, str):
                try:
                    function = SIMILARITY_FUNCTIONS[function]
                except KeyError:
                    known = ", ".join(sorted(SIMILARITY_FUNCTIONS))
                    raise KeyError(
                        f"unknown similarity {function!r}; known: {known}"
                    ) from None
            self._config[attribute] = function

    @property
    def attributes(self) -> list[str]:
        """The attribute names this comparator is configured for."""
        return list(self._config)

    @property
    def functions(self) -> Mapping[str, Similarity]:
        """Attribute → similarity function, in configuration order.

        The public view :func:`repro.columnar.plan_for` inspects to
        decide whether every configured measure has a batch kernel.
        """
        return dict(self._config)

    def compare(self, first: Record, second: Record) -> SimilarityVector:
        """Similarity vector of one record pair."""
        values: dict[str, float | None] = {}
        for attribute, function in self._config.items():
            value_a = first.value(attribute)
            value_b = second.value(attribute)
            if value_a is None or value_b is None:
                values[attribute] = None
            else:
                values[attribute] = function(value_a, value_b)
        from repro.core.pairs import make_pair

        return SimilarityVector(
            pair=make_pair(first.record_id, second.record_id), values=values
        )


def compare_pairs(
    dataset: Dataset,
    pairs: set[Pair] | Sequence[Pair],
    comparator: AttributeComparator,
) -> list[SimilarityVector]:
    """Similarity vectors for all candidate pairs.

    Sequences keep their order — the i-th vector belongs to the i-th
    pair, so vectors stay aligned with external labels.  Unordered sets
    are sorted for determinism.
    """
    ordered = sorted(pairs) if isinstance(pairs, (set, frozenset)) else pairs
    return [
        comparator.compare(dataset[first], dataset[second])
        for first, second in ordered
    ]
