"""Quality estimation without ground truth (§3.2.3).

Real-world use cases frequently lack labeled data; these estimators
judge a matching result from its inherent structure or by comparison to
other results on the same dataset:

* transitive-closure distance — inconsistency of the raw match set;
* identity-link-network redundancy (following the intuition of
  Idrissou et al.'s eQ metric [34]: redundant links within a component
  corroborate it, bridges make it suspect);
* cluster compactness and neighborhood sparsity (Chaudhuri et al. [7]);
* agreement between duplicate-clustering algorithms applied to the same
  scored matches;
* deviation from the majority vote of several matching solutions [59].
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.clustering import Clustering, closure_distance
from repro.core.experiment import Experiment
from repro.core.pairs import Pair, make_pair

__all__ = [
    "transitive_closure_distance",
    "component_redundancy",
    "bridge_count",
    "link_network_quality",
    "cluster_compactness",
    "neighborhood_sparsity",
    "compactness_sparsity_ratio",
    "clustering_agreement",
    "majority_vote_pairs",
    "consensus_deviation",
]


# -- closure consistency ---------------------------------------------------------


def transitive_closure_distance(experiment: Experiment) -> int:
    """Pairs that must be added for the match set to be closed.

    "The larger this number, the more inconsistent the proposed
    matches" (§3.2.3).  Computed on the *original* (non-closure) pairs.
    """
    return closure_distance(experiment.original_pairs())


# -- identity link network structure ----------------------------------------------


def _adjacency(pairs: Iterable[Pair]) -> dict[str, set[str]]:
    adjacency: dict[str, set[str]] = {}
    for first, second in pairs:
        adjacency.setdefault(first, set()).add(second)
        adjacency.setdefault(second, set()).add(first)
    return adjacency


def component_redundancy(pairs: Iterable[Iterable[str]]) -> float:
    """Average edge redundancy of the identity-link network's components.

    For a component with ``n`` nodes and ``m`` edges, redundancy is
    ``(m - (n-1)) / (C(n,2) - (n-1))`` — 0 for a spanning tree (every
    link is uncorroborated), 1 for a complete graph (maximal mutual
    corroboration).  Components of size 2 are complete by construction
    and score 1.  Higher redundancy correlates with higher matching
    quality [34].  The terms are summed in sorted-component order, so
    the float result does not depend on set iteration order.
    """
    canonical = {make_pair(*pair) for pair in pairs}
    if not canonical:
        return 1.0
    components = Clustering.from_pairs(canonical)
    edges = [0] * len(components)
    for first, _ in canonical:
        edges[components.cluster_index(first)] += 1
    total = 0.0
    for component, count in sorted(zip(components, edges)):
        n = len(component)
        possible = n * (n - 1) // 2
        tree = n - 1
        if possible == tree:
            total += 1.0
        else:
            total += (count - tree) / (possible - tree)
    return total / len(components)


def bridge_count(pairs: Iterable[Iterable[str]]) -> int:
    """Number of bridge edges in the identity-link network.

    A bridge is a link whose removal disconnects its component; such
    links are uncorroborated and therefore suspect [34].  Iterative
    Tarjan bridge finding (no recursion, safe for long chains).
    """
    canonical = {make_pair(*pair) for pair in pairs}
    adjacency = _adjacency(canonical)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    counter = 0
    bridges = 0
    for start in adjacency:
        if start in index:
            continue
        # iterative DFS: stack of (node, parent, iterator over neighbours)
        index[start] = low[start] = counter
        counter += 1
        stack = [(start, None, iter(adjacency[start]))]
        while stack:
            node, parent, neighbours = stack[-1]
            advanced = False
            for neighbour in neighbours:
                if neighbour == parent:
                    continue
                if neighbour in index:
                    low[node] = min(low[node], index[neighbour])
                else:
                    index[neighbour] = low[neighbour] = counter
                    counter += 1
                    stack.append((neighbour, node, iter(adjacency[neighbour])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[node])
                    if low[node] > index[parent]:
                        bridges += 1
    return bridges


def link_network_quality(experiment: Experiment) -> float:
    """A [0, 1] eQ-style quality estimate of an experiment's link network.

    Combines component redundancy with the fraction of non-bridge links:
    both high redundancy and few bridges indicate mutually corroborated,
    and empirically correct, matches [34].
    """
    pairs = experiment.original_pairs()
    if not pairs:
        return 1.0
    redundancy = component_redundancy(pairs)
    bridge_fraction = bridge_count(pairs) / len(pairs)
    return (redundancy + (1.0 - bridge_fraction)) / 2.0


# -- compactness and sparsity [7] ------------------------------------------------------


def cluster_compactness(experiment: Experiment) -> float:
    """Mean similarity score over the experiment's matched pairs.

    "Duplicate records are typically closer to each other than to other
    records", so compact clusters indicate a good result (§3.2.3).
    Requires scores on the matches (compactness is undefined otherwise).
    """
    scored = experiment.scored_pairs()
    if not scored:
        raise ValueError(
            f"compactness needs similarity scores; {experiment.name!r} has none"
        )
    return sum(sp.score for sp in scored) / len(scored)


def neighborhood_sparsity(
    experiment: Experiment, near_miss_scores: Sequence[float]
) -> float:
    """Mean similarity of the closest *non*-matches around the clusters.

    ``near_miss_scores`` are the similarity scores the solution assigned
    to close non-match pairs (e.g. candidate pairs below the threshold).
    Low values mean sparse neighborhoods — desirable per [7].
    """
    if not near_miss_scores:
        return 0.0
    return sum(near_miss_scores) / len(near_miss_scores)


def compactness_sparsity_ratio(
    experiment: Experiment, near_miss_scores: Sequence[float]
) -> float:
    """compactness / sparsity — larger is better; ``inf`` when isolated."""
    compact = cluster_compactness(experiment)
    sparse = neighborhood_sparsity(experiment, near_miss_scores)
    if sparse == 0.0:
        return float("inf")
    return compact / sparse


# -- clustering agreement ----------------------------------------------------------------


def clustering_agreement(clusterings: Sequence[Clustering]) -> float:
    """Mean pairwise agreement of several clusterings of the same matches.

    "The more similar the resulting clusterings are, the more consistent
    are the initially discovered matches" (§3.2.3).  Agreement of a pair
    of clusterings is the Jaccard similarity of their pair sets.
    """
    if len(clusterings) < 2:
        return 1.0
    pair_sets = [clustering.pairs() for clustering in clusterings]
    total = 0.0
    count = 0
    for i in range(len(pair_sets)):
        for j in range(i + 1, len(pair_sets)):
            union = pair_sets[i] | pair_sets[j]
            if not union:
                total += 1.0
            else:
                total += len(pair_sets[i] & pair_sets[j]) / len(union)
            count += 1
    return total / count


# -- consensus across solutions [59] -------------------------------------------------------


def majority_vote_pairs(experiments: Sequence[Experiment]) -> set[Pair]:
    """Pairs matched by a strict majority of the given experiments.

    An "experimental ground truth" in the sense of Vogel et al. [59]
    and §4.1 — useful when no gold standard exists.
    """
    if not experiments:
        return set()
    counts: dict[Pair, int] = {}
    for experiment in experiments:
        for pair in experiment.pairs():
            counts[pair] = counts.get(pair, 0) + 1
    needed = len(experiments) // 2 + 1
    return {pair for pair, count in counts.items() if count >= needed}


def consensus_deviation(
    experiment: Experiment, others: Sequence[Experiment]
) -> int:
    """Number of decisions in which ``experiment`` deviates from the majority.

    The consensus on an individual matching decision is a good indicator
    of its correctness [59]; the total number of deviations estimates
    the quality of the whole matching result (§3.2.3).  Counted over the
    union of all matched pairs (non-matches agreed by everyone are not
    enumerable without the dataset).
    """
    panel = [experiment, *others]
    majority = majority_vote_pairs(panel)
    mine = experiment.pairs()
    considered = set().union(*(e.pairs() for e in panel))
    deviations = 0
    for pair in considered:
        in_majority = pair in majority
        in_mine = pair in mine
        if in_majority != in_mine:
            deviations += 1
    return deviations
