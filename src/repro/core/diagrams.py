"""Metric/metric diagrams over similarity thresholds (§4.5.1, Appendix D).

A metric/metric diagram (e.g. the precision/recall curve, Figure 3)
plots two pair-based quality metrics against each other while the
similarity threshold sweeps over the experiment's score range.  All
pair-based metrics derive in constant time from a confusion matrix, so
the problem reduces to producing a sequence of confusion matrices, one
per sampled threshold.

Three algorithms are provided:

* :func:`compute_diagram_optimized` — Snowman's algorithm (Algorithm 1):
  a single pass over the matches sorted by descending score, maintaining
  the experiment clustering with a tracked-union union-find and the
  intersection clustering with :class:`~repro.core.intersection.DynamicIntersection`.
  Worst case ``O(|D| + |Matches|·(s + log|Matches|))``.
* :func:`compute_diagram_naive_clustering` — per threshold, rebuild the
  experiment clustering from scratch and intersect with the ground
  truth: ``O(s · (|D| + |Matches|))``.  This is the "slightly more
  advanced (but still naïve)" baseline of Appendix D and the comparator
  of Table 1.
* :func:`compute_diagram_naive_pairwise` — per threshold, transitively
  close the match subset and compare pair sets.  Quadratic in cluster
  sizes; only usable on small inputs (kept as the strawman baseline).

As in the paper, thresholds are sampled so that a *constant number of
matches* lies between consecutive data points, which avoids degenerate
spacing when scores are unevenly distributed (Appendix D.1).  The first
data point always corresponds to threshold infinity (no matches).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.clustering import Clustering
from repro.core.confusion import ConfusionMatrix
from repro.core.experiment import Experiment, GoldStandard
from repro.core.intersection import DynamicIntersection
from repro.core.pairs import ScoredPair, make_pair
from repro.core.records import Dataset
from repro.core.unionfind import PairCountingUnionFind

__all__ = [
    "DiagramPoint",
    "compute_diagram_optimized",
    "compute_diagram_naive_clustering",
    "compute_diagram_naive_pairwise",
    "metric_metric_series",
]


@dataclass(frozen=True)
class DiagramPoint:
    """One sampled data point of a metric/metric diagram.

    Attributes
    ----------
    threshold:
        The similarity threshold this point corresponds to;
        ``math.inf`` for the empty prefix (no matches applied).
    matches_applied:
        How many matches have score >= threshold.
    matrix:
        The pair-level confusion matrix at this threshold.
    """

    threshold: float
    matches_applied: int
    matrix: ConfusionMatrix

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable point: ``threshold`` (``None`` at infinity),
        ``matches``, then the matrix counts (engine and serving payloads)."""
        return {
            "threshold": None if math.isinf(self.threshold) else self.threshold,
            "matches": self.matches_applied,
            **self.matrix.as_dict(),
        }


def _sorted_scored_matches(experiment: Experiment) -> list[ScoredPair]:
    """Experiment matches sorted by descending score (ties: by pair)."""
    scored = experiment.scored_pairs()
    if len(scored) != len(experiment):
        missing = len(experiment) - len(scored)
        raise ValueError(
            f"metric/metric diagrams need similarity scores on every match; "
            f"{missing} match(es) of {experiment.name!r} are unscored"
        )
    return sorted(scored, key=lambda sp: (-sp.score, sp.pair))


def _sample_boundaries(match_count: int, samples: int) -> list[int]:
    """Prefix lengths at which to emit a data point.

    Emits ``samples`` boundaries ``0 = b_0 < b_1 <= ... <= b_{s-1} =
    match_count`` with (as close as possible) equally many matches
    between consecutive boundaries.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if samples == 1 or match_count == 0:
        return [0] * samples if match_count == 0 else [0, match_count][:samples]
    return [
        round(index * match_count / (samples - 1)) for index in range(samples)
    ]


def _truth_index_array(dataset: Dataset, gold: GoldStandard) -> list[int]:
    """Ground-truth cluster index for each numeric record id.

    Records not mentioned by the gold clustering get fresh singleton
    indices.
    """
    clustering = gold.clustering
    explicit = len(clustering.clusters)
    truth_of: list[int] = []
    next_singleton = explicit
    for record in dataset:
        index = clustering.cluster_index(record.record_id)
        if index is None:
            index = next_singleton
            next_singleton += 1
        truth_of.append(index)
    return truth_of


def compute_diagram_optimized(
    dataset: Dataset,
    experiment: Experiment,
    gold: GoldStandard,
    samples: int = 100,
) -> list[DiagramPoint]:
    """Confusion matrices over thresholds — Snowman's Algorithm 1.

    Single pass over the matches in descending score order.  The
    experiment clustering grows monotonically (a lower threshold only
    adds matches), so a pair-counting union-find with ``tracked_union``
    maintains ``|E|`` and a :class:`DynamicIntersection` maintains the
    true-positive count.  Each confusion matrix then follows from three
    integers.
    """
    matches = _sorted_scored_matches(experiment)
    truth_of = _truth_index_array(dataset, gold)
    experiment_clusters = PairCountingUnionFind(len(dataset))
    intersection = DynamicIntersection(truth_of)
    truth_pairs = gold.pair_count()
    total_pairs = dataset.total_pairs()

    def point(threshold: float, applied: int) -> DiagramPoint:
        matrix = ConfusionMatrix.from_counts(
            tp=intersection.pair_count,
            experiment_pairs=experiment_clusters.pair_count,
            truth_pairs=truth_pairs,
            total_pairs=total_pairs,
        )
        return DiagramPoint(threshold=threshold, matches_applied=applied, matrix=matrix)

    if not matches:
        return [point(math.inf, 0)]
    boundaries = _sample_boundaries(len(matches), samples)
    points = [point(math.inf, 0)]
    numeric = dataset.numeric_id
    previous = 0
    for boundary in boundaries[1:]:
        if boundary > previous:
            batch = [
                (numeric(sp.pair[0]), numeric(sp.pair[1]))
                for sp in matches[previous:boundary]
            ]
            merges = experiment_clusters.tracked_union(batch)
            intersection.update(merges)
        threshold = matches[boundary - 1].score if boundary > 0 else math.inf
        points.append(point(threshold, boundary))
        previous = boundary
    return points


def compute_diagram_naive_clustering(
    dataset: Dataset,
    experiment: Experiment,
    gold: GoldStandard,
    samples: int = 100,
) -> list[DiagramPoint]:
    """Naïve baseline: re-cluster and re-intersect at every threshold.

    Calculates "the experiment clustering, intersection, and confusion
    matrix newly for every requested similarity threshold" (Appendix D)
    — linear in ``samples × (|D| + |Matches|)``.
    """
    matches = _sorted_scored_matches(experiment)
    truth_pairs = gold.pair_count()
    total_pairs = dataset.total_pairs()
    empty_point = DiagramPoint(
        threshold=math.inf,
        matches_applied=0,
        matrix=ConfusionMatrix.from_counts(0, 0, truth_pairs, total_pairs),
    )
    if not matches:
        return [empty_point]
    boundaries = _sample_boundaries(len(matches), samples)
    points: list[DiagramPoint] = []
    for index, boundary in enumerate(boundaries):
        if index == 0:
            points.append(empty_point)
            continue
        prefix = matches[:boundary]
        clustering = Clustering.from_pairs(sp.pair for sp in prefix)
        tp = clustering.intersect(gold.clustering).pair_count()
        matrix = ConfusionMatrix.from_counts(
            tp=tp,
            experiment_pairs=clustering.pair_count(),
            truth_pairs=truth_pairs,
            total_pairs=total_pairs,
        )
        threshold = prefix[-1].score if prefix else math.inf
        points.append(
            DiagramPoint(threshold=threshold, matches_applied=boundary, matrix=matrix)
        )
    return points


def compute_diagram_naive_pairwise(
    dataset: Dataset,
    experiment: Experiment,
    gold: GoldStandard,
    samples: int = 100,
) -> list[DiagramPoint]:
    """Strawman baseline: materialize closed pair sets per threshold.

    Quadratic in cluster sizes; matches the paper's first naïve approach
    ("go through the list of matches and track all sets of pairs in the
    confusion matrix", with transitive closure at each step).
    """
    matches = _sorted_scored_matches(experiment)
    gold_pairs = gold.pairs()
    total_pairs = dataset.total_pairs()
    if not matches:
        return [
            DiagramPoint(
                threshold=math.inf,
                matches_applied=0,
                matrix=ConfusionMatrix.from_counts(
                    0, 0, len(gold_pairs), total_pairs
                ),
            )
        ]
    boundaries = _sample_boundaries(len(matches), samples)
    points: list[DiagramPoint] = []
    for index, boundary in enumerate(boundaries):
        prefix = matches[:boundary]
        closed = Clustering.from_pairs(sp.pair for sp in prefix).pairs()
        tp = len(closed & gold_pairs)
        matrix = ConfusionMatrix.from_counts(
            tp=tp,
            experiment_pairs=len(closed),
            truth_pairs=len(gold_pairs),
            total_pairs=total_pairs,
        )
        threshold = prefix[-1].score if boundary > 0 else math.inf
        points.append(
            DiagramPoint(threshold=threshold, matches_applied=boundary, matrix=matrix)
        )
        del index
    return points


def metric_metric_series(
    points: Sequence[DiagramPoint],
    x_metric: Callable[[ConfusionMatrix], float],
    y_metric: Callable[[ConfusionMatrix], float],
) -> list[tuple[float, float]]:
    """Project diagram points onto two metrics, e.g. (recall, precision).

    Each data point of the returned series is based on a different
    similarity threshold (Section 4.5.1).
    """
    return [(x_metric(p.matrix), y_metric(p.matrix)) for p in points]
