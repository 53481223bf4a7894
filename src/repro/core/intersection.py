"""Dynamically maintained intersection clustering (Appendix D.3).

The optimized metric/metric-diagram algorithm needs, after every batch
of merges in the experiment clustering, the number of pairs in the
*intersection* of experiment and ground truth clusterings (that number
is exactly the true-positive count).  Recomputing the intersection per
batch is linear in ``|D|``; this structure updates it incrementally.

State, as described in the paper:

* a pair-counting union-find whose clusters are the intersection
  clusters (each uniquely identified by an (experiment cluster, ground
  truth cluster) combination), and
* a map ``experiment cluster id -> {ground truth cluster -> intersection
  cluster}`` used to find which intersection clusters must be merged
  when experiment clusters merge.

The subtlety this solves (Figure 9): a merge of experiment clusters that
spans different ground-truth clusters does not change the intersection
*now*, but must be remembered because a later merge can join records of
the same ground-truth cluster that are already transitively connected in
the experiment.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.unionfind import MergeEntry, PairCountingUnionFind

__all__ = ["DynamicIntersection"]


class DynamicIntersection:
    """Incrementally maintained experiment ∩ ground-truth clustering.

    Parameters
    ----------
    truth_of:
        For each numeric record id ``0..n-1``, the index of its ground
        truth cluster.  Records in singleton truth clusters must still
        have distinct indices.
    """

    def __init__(self, truth_of: Sequence[int]) -> None:
        self._truth_of = list(truth_of)
        n = len(self._truth_of)
        # clusters of this union-find are the intersection clusters;
        # each is represented by the *current root element* of its set
        self._clusters = PairCountingUnionFind(n)
        # experiment cluster id -> {truth cluster -> representative element}
        # Initial experiment clustering is all-singletons with cluster ids
        # 0..n-1, so intersection cluster of record e is {e} itself.
        self._map: dict[int, dict[int, int]] = {
            element: {self._truth_of[element]: element} for element in range(n)
        }

    def __len__(self) -> int:
        return len(self._truth_of)

    @property
    def pair_count(self) -> int:
        """Number of pairs in the intersection clustering (== TP count)."""
        return self._clusters.pair_count

    def update(self, merges: Iterable[MergeEntry]) -> None:
        """Apply a batch of experiment-clustering merges (Algorithm 2).

        ``merges`` is the output of
        :meth:`repro.core.unionfind.PairCountingUnionFind.tracked_union`
        on the *experiment* union-find.
        """
        for entry in merges:
            # aggregate all intersection clusters belonging to the
            # source experiment clusters, grouped by ground truth cluster
            by_truth: dict[int, list[int]] = {}
            for source in entry.sources:
                source_map = self._map.pop(source, None)
                if source_map is None:
                    raise KeyError(
                        f"unknown experiment cluster id {source}; merges must "
                        "be applied exactly once and in order"
                    )
                for truth_cluster, representative in source_map.items():
                    by_truth.setdefault(truth_cluster, []).append(representative)
            # merge intersection clusters sharing a ground-truth cluster
            target_map: dict[int, int] = {}
            for truth_cluster, representatives in by_truth.items():
                anchor = representatives[0]
                for other in representatives[1:]:
                    self._clusters.union(anchor, other)
                target_map[truth_cluster] = self._clusters.find(anchor)
            self._map[entry.target] = target_map

    def copy(self) -> "DynamicIntersection":
        """An independent deep copy (used for timeline checkpoints)."""
        clone = DynamicIntersection.__new__(DynamicIntersection)
        clone._truth_of = self._truth_of  # read-only after construction
        clone._clusters = self._clusters.copy()
        clone._map = {
            cluster_id: dict(truth_map)
            for cluster_id, truth_map in self._map.items()
        }
        return clone

    def clusters(self) -> dict[int, list[int]]:
        """Materialize the intersection partition (for tests/inspection)."""
        return self._clusters.clusters()

    def intersection_cluster_of(self, element: int) -> int:
        """Root id of the intersection cluster containing ``element``."""
        return self._clusters.find(element)
