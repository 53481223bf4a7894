"""Error categorization (§7 outlook: "Categorizing errors").

"The ability to categorize the errors of a matching solution helps to
more easily find structural deficiencies.  For example, a matching
solution could be especially weak in the handling of typos."

For every misclassified pair we classify, per attribute, the
*relationship* between the two records' values — equal, formatting-only
difference, word-order difference, abbreviation, typo, conflicting, or
involving missing values.  Aggregated over all false negatives this
reveals which error class defeats the solution (e.g. many
typo-relations among missed duplicates ⇒ weak typo handling); over all
false positives it reveals which kind of agreement misleads it.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.core.experiment import Experiment, GoldStandard
from repro.core.pairs import Pair
from repro.core.records import Dataset, Record
from repro.matching.similarity import levenshtein_distance

__all__ = [
    "ValueRelation",
    "classify_value_pair",
    "categorize_record_pair",
    "ErrorCategorization",
    "categorize_errors",
]


class ValueRelation(enum.Enum):
    """How two attribute values of a record pair relate to each other."""

    BOTH_NULL = "both-null"
    ONE_NULL = "one-null"
    EQUAL = "equal"
    FORMATTING = "formatting"  # equal after case/whitespace normalization
    WORD_ORDER = "word-order"  # same tokens, different order
    ABBREVIATION = "abbreviation"  # tokens abbreviate each other
    TYPO = "typo"  # small edit distance
    DIFFERENT = "different"  # none of the above


def _normalized(value: str) -> str:
    return " ".join(value.lower().split())


def _check_typo_threshold(typo_threshold: int) -> None:
    if typo_threshold < 0:
        raise ValueError(
            f"typo_threshold must be non-negative, got {typo_threshold}"
        )


def _abbreviates(first: str, second: str) -> bool:
    """Whether token ``first`` abbreviates ``second`` ('j.' vs 'john')."""
    stem = first.rstrip(".")
    return 1 <= len(stem) < len(second) and second.startswith(stem)


def _token_abbreviation_match(first: str, second: str) -> bool:
    """Tokens align pairwise with at least one abbreviation relation."""
    tokens_a = first.split()
    tokens_b = second.split()
    if len(tokens_a) != len(tokens_b):
        return False
    saw_abbreviation = False
    for token_a, token_b in zip(tokens_a, tokens_b):
        if token_a == token_b:
            continue
        if _abbreviates(token_a, token_b) or _abbreviates(token_b, token_a):
            saw_abbreviation = True
            continue
        return False
    return saw_abbreviation


def classify_value_pair(
    first: str | None, second: str | None, typo_threshold: int = 2
) -> ValueRelation:
    """Classify the relationship between two attribute values.

    ``typo_threshold`` is the maximum edit distance (after
    normalization) still considered a typo rather than a conflicting
    value; a negative one raises ``ValueError``.
    """
    _check_typo_threshold(typo_threshold)
    if first is None and second is None:
        return ValueRelation.BOTH_NULL
    if first is None or second is None:
        return ValueRelation.ONE_NULL
    if first == second:
        return ValueRelation.EQUAL
    normalized_a, normalized_b = _normalized(first), _normalized(second)
    if normalized_a == normalized_b:
        return ValueRelation.FORMATTING
    if sorted(normalized_a.split()) == sorted(normalized_b.split()):
        return ValueRelation.WORD_ORDER
    if _token_abbreviation_match(normalized_a, normalized_b):
        return ValueRelation.ABBREVIATION
    distance = levenshtein_distance(
        normalized_a, normalized_b, bound=typo_threshold
    )
    if distance <= typo_threshold:
        return ValueRelation.TYPO
    return ValueRelation.DIFFERENT


def categorize_record_pair(
    first: Record,
    second: Record,
    attributes: Iterable[str],
    typo_threshold: int = 2,
) -> dict[str, ValueRelation]:
    """Per-attribute value relations for one record pair."""
    return {
        attribute: classify_value_pair(
            first.value(attribute), second.value(attribute), typo_threshold
        )
        for attribute in attributes
    }


# Relations that mean "the values differ in a way a solution must
# tolerate to find the duplicate" — the error classes of §7.
_FN_ERROR_RELATIONS = (
    ValueRelation.ONE_NULL,
    ValueRelation.FORMATTING,
    ValueRelation.WORD_ORDER,
    ValueRelation.ABBREVIATION,
    ValueRelation.TYPO,
    ValueRelation.DIFFERENT,
)

# Relations that mean "the values agree in a way that may have misled
# the solution into a false match".
_FP_AGREEMENT_RELATIONS = (
    ValueRelation.EQUAL,
    ValueRelation.FORMATTING,
    ValueRelation.WORD_ORDER,
    ValueRelation.ABBREVIATION,
    ValueRelation.TYPO,
)


@dataclass
class ErrorCategorization:
    """Aggregated error categories of one experiment (§7).

    Attributes
    ----------
    false_negative_relations:
        ``Counter`` over :class:`ValueRelation` values observed in
        missed duplicate pairs (only difference relations counted).
    false_positive_relations:
        ``Counter`` over agreement relations observed in false matches.
    per_attribute_fn:
        ``{attribute: Counter}`` — which attribute exhibits which
        difference relation among false negatives.
    false_negatives / false_positives:
        The categorized pairs themselves.
    """

    false_negative_relations: Counter = field(default_factory=Counter)
    false_positive_relations: Counter = field(default_factory=Counter)
    per_attribute_fn: dict[str, Counter] = field(default_factory=dict)
    false_negatives: dict[Pair, dict[str, ValueRelation]] = field(
        default_factory=dict
    )
    false_positives: dict[Pair, dict[str, ValueRelation]] = field(
        default_factory=dict
    )

    def dominant_weakness(self) -> ValueRelation | None:
        """The difference relation most often present in missed pairs.

        The §7 use case: a solution "especially weak in the handling of
        typos" shows :attr:`ValueRelation.TYPO` here.
        """
        if not self.false_negative_relations:
            return None
        relation, _count = self.false_negative_relations.most_common(1)[0]
        return relation

    def dominant_seduction(self) -> ValueRelation | None:
        """The agreement relation most often present in false matches."""
        if not self.false_positive_relations:
            return None
        relation, _count = self.false_positive_relations.most_common(1)[0]
        return relation

    def render_report(self) -> str:
        """Plain-text report for terminal display."""
        lines = ["Error categorization"]
        lines.append(f"  false negatives: {len(self.false_negatives)}")
        for relation, count in self.false_negative_relations.most_common():
            lines.append(f"    {relation.value}: {count}")
        lines.append(f"  false positives: {len(self.false_positives)}")
        for relation, count in self.false_positive_relations.most_common():
            lines.append(f"    {relation.value}: {count}")
        return "\n".join(lines)


def categorize_errors(
    dataset: Dataset,
    experiment: Experiment,
    gold: GoldStandard,
    attributes: Iterable[str] | None = None,
    typo_threshold: int = 2,
    limit: int | None = None,
) -> ErrorCategorization:
    """Categorize every misclassified pair of ``experiment`` (§7).

    ``limit`` caps the number of false negatives and false positives
    each that are categorized (both picked deterministically in sorted
    pair order) — useful on large, low-precision experiments.  A
    negative ``limit`` or ``typo_threshold`` raises ``ValueError``.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    _check_typo_threshold(typo_threshold)
    names = tuple(attributes) if attributes is not None else dataset.attributes
    experiment_pairs = experiment.pairs()
    gold_pairs = gold.pairs()
    false_negatives = sorted(gold_pairs - experiment_pairs)
    false_positives = sorted(experiment_pairs - gold_pairs)
    if limit is not None:
        false_negatives = false_negatives[:limit]
        false_positives = false_positives[:limit]

    result = ErrorCategorization()
    for pair in false_negatives:
        relations = categorize_record_pair(
            dataset[pair[0]], dataset[pair[1]], names, typo_threshold
        )
        result.false_negatives[pair] = relations
        for attribute, relation in relations.items():
            if relation in _FN_ERROR_RELATIONS:
                result.false_negative_relations[relation] += 1
                result.per_attribute_fn.setdefault(attribute, Counter())[
                    relation
                ] += 1
    for pair in false_positives:
        relations = categorize_record_pair(
            dataset[pair[0]], dataset[pair[1]], names, typo_threshold
        )
        result.false_positives[pair] = relations
        for relation in relations.values():
            if relation in _FP_AGREEMENT_RELATIONS:
                result.false_positive_relations[relation] += 1
    return result
