"""Blocking-quality evaluation: pairs completeness vs. reduction ratio.

Candidate generation trades recall against pruning power [37]:

* **pairs completeness** — the fraction of true duplicate pairs that
  survive into the candidate set (the recall ceiling of every later
  pipeline stage: a duplicate dropped here is unrecoverable);
* **reduction ratio** — the fraction of the quadratic comparison space
  ``[D]^2`` the blocker pruned away (the work saved);
* **pairs quality** — the duplicate density of the candidate set
  (precision of the blocking stage).

:func:`evaluate_blocking` computes all three from explicit pair sets;
:func:`evaluate_blocker` runs a candidate generator against a dataset
and its gold standard — the harness behind
``benchmarks/bench_lsh_blocking.py``'s config sweeps.  Gold pairs whose
records are absent from the dataset are ignored (a gold standard may
cover records the current dataset slice does not).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from collections.abc import Set as AbstractSet
from dataclasses import dataclass

from repro.core.experiment import GoldStandard
from repro.core.pairs import Pair, pair_key
from repro.core.records import Dataset

__all__ = ["BlockingQuality", "evaluate_blocking", "evaluate_blocker"]


@dataclass(frozen=True)
class BlockingQuality:
    """The quality facts of one candidate set against a gold standard."""

    candidate_count: int
    gold_pair_count: int
    total_pairs: int
    true_positives: int

    def __post_init__(self) -> None:
        for name in ("candidate_count", "gold_pair_count", "total_pairs",
                     "true_positives"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.true_positives > min(self.candidate_count, self.gold_pair_count):
            raise ValueError(
                "true_positives cannot exceed either pair set"
            )

    @property
    def pairs_completeness(self) -> float:
        """Gold pairs retained; 1.0 when there is nothing to retain."""
        if self.gold_pair_count == 0:
            return 1.0
        return self.true_positives / self.gold_pair_count

    @property
    def reduction_ratio(self) -> float:
        """Comparison-space fraction pruned; 0.0 on an empty space."""
        if self.total_pairs == 0:
            return 0.0
        return 1.0 - self.candidate_count / self.total_pairs

    @property
    def pairs_quality(self) -> float:
        """Duplicate density of the candidates; 1.0 when none emitted."""
        if self.candidate_count == 0:
            return 1.0
        return self.true_positives / self.candidate_count

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable summary (benchmark tables, job payloads)."""
        return {
            "candidates": self.candidate_count,
            "gold_pairs": self.gold_pair_count,
            "total_pairs": self.total_pairs,
            "true_positives": self.true_positives,
            "pairs_completeness": self.pairs_completeness,
            "reduction_ratio": self.reduction_ratio,
            "pairs_quality": self.pairs_quality,
        }


def evaluate_blocking(
    candidates: Iterable[Iterable[str]],
    gold_pairs: Iterable[Iterable[str]],
    total_pairs: int,
) -> BlockingQuality:
    """Blocking quality from explicit candidate and gold pair sets.

    ``total_pairs`` is ``C(|D|, 2)`` — required for the reduction
    ratio, which is measured against the full comparison space.
    """
    if total_pairs < 0:
        raise ValueError(f"total_pairs must be non-negative, got {total_pairs}")
    candidate_set = {pair_key(pair) for pair in candidates}
    gold_set = {pair_key(pair) for pair in gold_pairs}
    return BlockingQuality(
        candidate_count=len(candidate_set),
        gold_pair_count=len(gold_set),
        total_pairs=total_pairs,
        true_positives=len(candidate_set & gold_set),
    )


def evaluate_blocker(
    dataset: Dataset,
    gold: GoldStandard,
    blocker: Callable[[Dataset], AbstractSet[Pair]],
) -> BlockingQuality:
    """Run ``blocker`` on ``dataset`` and score it against ``gold``.

    Gold pairs touching records outside the dataset are excluded — no
    blocker over this dataset could emit them, so counting them would
    punish the blocker for the dataset slice.
    """
    known = set(dataset.record_ids)
    gold_pairs = {
        pair
        for pair in gold.pairs()
        if pair[0] in known and pair[1] in known
    }
    return evaluate_blocking(
        blocker(dataset), gold_pairs, dataset.total_pairs()
    )
