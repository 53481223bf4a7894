"""Disjoint clusterings of a dataset.

A matching solution outputs a disjoint clustering ``{C1, C2, ...}`` of
the dataset ``D``; an equivalent representation is the set of all
intra-cluster pairs ``E ⊆ [D]^2``, which forms a transitively closed
identity-link network (Section 1.2).  This module provides conversions
between the two representations, transitive closure of arbitrary pair
sets, and clustering intersection.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations

from repro.core.pairs import Pair, make_pair

__all__ = ["Clustering", "transitive_closure", "closure_distance"]


class Clustering:
    """A disjoint clustering of record ids.

    Singleton clusters may be omitted: a clustering is interpreted
    relative to a dataset, and every record not mentioned in any cluster
    implicitly forms its own singleton cluster.  ``Clustering`` instances
    are immutable after construction.
    """

    def __init__(self, clusters: Iterable[Iterable[str]]) -> None:
        materialized: list[tuple[str, ...]] = []
        membership: dict[str, int] = {}
        for cluster in clusters:
            members = tuple(sorted(set(cluster)))
            if not members:
                continue
            index = len(materialized)
            for record_id in members:
                if record_id in membership:
                    raise ValueError(
                        f"record {record_id!r} appears in more than one cluster"
                    )
                membership[record_id] = index
            materialized.append(members)
        self._clusters = materialized
        self._membership = membership

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[str]]) -> "Clustering":
        """Clustering induced by the transitive closure of ``pairs``.

        This is the canonical way to turn a match set ``E`` into a
        clustering: connected components of the identity-link network.
        """
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            """Root of ``element`` in the closure's union-find forest."""
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for raw in pairs:
            first, second = raw
            for record_id in (first, second):
                parent.setdefault(record_id, record_id)
            root_a, root_b = find(first), find(second)
            if root_a != root_b:
                parent[root_b] = root_a
        components: dict[str, list[str]] = {}
        for record_id in parent:
            components.setdefault(find(record_id), []).append(record_id)
        return cls(components.values())

    @classmethod
    def from_assignment(cls, assignment: dict[str, str]) -> "Clustering":
        """Clustering from a ``record_id -> cluster label`` mapping.

        This is the paper's second gold-standard format: "the gold
        standard can also be modeled within the actual dataset by adding
        an extra attribute that associates each record with its
        corresponding cluster" (Section 3.1.1).
        """
        by_label: dict[str, list[str]] = {}
        for record_id, label in assignment.items():
            by_label.setdefault(label, []).append(record_id)
        return cls(by_label.values())

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._clusters)

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return iter(self._clusters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clustering):
            return NotImplemented
        return self.nontrivial_clusters() == other.nontrivial_clusters()

    def __hash__(self) -> int:
        return hash(frozenset(self.nontrivial_clusters()))

    def __repr__(self) -> str:
        return f"Clustering(clusters={len(self)}, records={len(self._membership)})"

    # -- queries -------------------------------------------------------------------

    @property
    def clusters(self) -> Sequence[tuple[str, ...]]:
        """All clusters as tuples of record ids."""
        return tuple(self._clusters)

    def nontrivial_clusters(self) -> frozenset[tuple[str, ...]]:
        """Clusters with at least two members (singletons are implicit)."""
        return frozenset(c for c in self._clusters if len(c) >= 2)

    def records(self) -> set[str]:
        """All record ids explicitly mentioned by the clustering."""
        return set(self._membership)

    def cluster_of(self, record_id: str) -> tuple[str, ...]:
        """The cluster containing ``record_id`` (singleton if unmentioned)."""
        index = self._membership.get(record_id)
        if index is None:
            return (record_id,)
        return self._clusters[index]

    def cluster_index(self, record_id: str) -> int | None:
        """Index of the cluster containing ``record_id``, or ``None``."""
        return self._membership.get(record_id)

    def same_cluster(self, first: str, second: str) -> bool:
        """Whether two records are clustered together (i.e. matched)."""
        index_a = self._membership.get(first)
        if index_a is None:
            return first == second
        return index_a == self._membership.get(second)

    def pairs(self) -> set[Pair]:
        """All intra-cluster pairs: the match set ``E`` (transitively closed)."""
        result: set[Pair] = set()
        for cluster in self._clusters:
            result.update(
                make_pair(a, b) for a, b in combinations(cluster, 2)
            )
        return result

    def pair_count(self) -> int:
        """Number of intra-cluster pairs without materializing them."""
        return sum(len(c) * (len(c) - 1) // 2 for c in self._clusters)

    def cluster_sizes(self) -> list[int]:
        """Sizes of all (explicit) clusters, descending."""
        return sorted((len(c) for c in self._clusters), reverse=True)

    # -- operations ------------------------------------------------------------------

    def intersect(self, other: "Clustering") -> "Clustering":
        """The intersection clustering (meet of the two partitions).

        Each output cluster is the set of records that share both their
        cluster in ``self`` and their cluster in ``other``.  The number
        of pairs in the intersection of experiment and ground truth is
        exactly the true-positive count (Appendix D.4).
        """
        groups: dict[tuple[int | str, int | str], list[str]] = {}
        records = self.records() | other.records()
        for record_id in records:
            key_self = self._membership.get(record_id, f"s:{record_id}")
            key_other = other._membership.get(record_id, f"o:{record_id}")
            groups.setdefault((key_self, key_other), []).append(record_id)
        return Clustering(groups.values())

    def restricted_to(self, record_ids: Iterable[str]) -> "Clustering":
        """Clustering restricted to a subset of records."""
        keep = set(record_ids)
        return Clustering(
            [record_id for record_id in cluster if record_id in keep]
            for cluster in self._clusters
        )


def transitive_closure(pairs: Iterable[Iterable[str]]) -> set[Pair]:
    """Transitive closure of a set of match pairs.

    Ensures that "if r1 and r2 are matches and r2 and r3 are matches,
    r1 and r3 are considered to be matches, too" (Section 1.2).
    """
    return Clustering.from_pairs(pairs).pairs()


def closure_distance(pairs: Iterable[Iterable[str]]) -> int:
    """Pairs missing for the match set to be transitively closed.

    "The minimum number of pairs that must be added to [...] the set of
    detected matches for it to be transitively closed" — one of Frost's
    no-ground-truth quality indicators (Section 3.2.3).  The larger this
    number, the more inconsistent the proposed matches.
    """
    canonical = {make_pair(*pair) for pair in pairs}
    closed = transitive_closure(canonical)
    return len(closed) - len(canonical)
