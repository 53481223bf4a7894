"""The in-memory match graph and its traversal queries.

Matching output is usually consumed as flat clusters; this module keeps
the *relationships* — every scored candidate pair becomes a weighted
edge between record nodes, with the per-attribute similarity breakdown
attached as evidence.  Components are maintained over the *accepted*
edges (score >= threshold), so the graph's clusters coincide with the
clustering the pipeline produced, while below-threshold candidate
edges remain queryable for exploration.

Adjacency is organized per node (the design point graph stores make to
keep k-hop traversal and component drill-downs linear in edges touched,
not in graph size), and component labels are the *minimum node id* of
each component.  That label choice is order-independent: merging
components in any edge order yields the same labels, which is what
makes incremental per-batch updates provably identical to a
from-scratch rebuild.  Components live in memory only; a graph loaded
from the store derives them from its accepted edges.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager

from repro.core.pairs import Pair, make_pair
from repro.telemetry import spans as _tracing
from repro.telemetry.metrics import get_metrics

__all__ = ["MatchGraph", "GraphQueryError"]

_TRAVERSALS = get_metrics().counter(
    "frost_graph_traversals_total",
    "Graph traversal queries answered (neighbors/path/component/explain)",
)
_TRAVERSAL_SECONDS = get_metrics().histogram(
    "frost_graph_traversal_seconds",
    "Wall time of one graph traversal query",
)


class GraphQueryError(ValueError):
    """Raised for malformed traversal parameters (negative k, ...)."""


class MatchGraph:
    """Record nodes, weighted similarity edges, and their components.

    Node ids are dense integers ``0..n-1`` in insertion order — the
    same numeric-id discipline the store uses for datasets and
    streaming sessions, so graph nodes line up with persisted rows.
    """

    def __init__(self, name: str, threshold: float) -> None:
        self.name = name
        self.threshold = float(threshold)
        self._native: list[str] = []
        self._node_of: dict[str, int] = {}
        # per-node adjacency: node -> [(neighbor, score, accepted)]
        self._adjacency: list[list[tuple[int, float, bool]]] = []
        # canonical (min, max) node pair -> (score, accepted)
        self._edges: dict[tuple[int, int], tuple[float, bool]] = {}
        self._accepted_edges = 0
        # canonical pair -> per-attribute similarity evidence (or None)
        self._breakdowns: dict[tuple[int, int], dict | None] = {}
        # components over accepted edges, labelled by min member id
        self._label: list[int] = []
        self._members: dict[int, list[int]] = {}

    # -- construction ---------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._native)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def accepted_edge_count(self) -> int:
        return self._accepted_edges

    def record_ids(self) -> list[str]:
        """Native record ids in node order."""
        return list(self._native)

    def node_of(self, native_id: str) -> int:
        try:
            return self._node_of[native_id]
        except KeyError:
            raise KeyError(
                f"graph {self.name!r} has no record {native_id!r}"
            ) from None

    def add_node(self, native_id: str) -> int:
        """Append a record node; returns its dense node id."""
        if native_id in self._node_of:
            raise ValueError(
                f"graph {self.name!r} already has record {native_id!r}"
            )
        node = len(self._native)
        self._native.append(native_id)
        self._node_of[native_id] = node
        self._adjacency.append([])
        self._label.append(node)
        self._members[node] = [node]
        return node

    def add_edge(
        self,
        first: int,
        second: int,
        score: float,
        breakdown: dict | None = None,
    ) -> None:
        """Add one scored edge between two existing nodes.

        An accepted edge that joins two components merges them.
        Self-edges are rejected; duplicate edges are a desync between
        producer and graph.
        """
        if first == second:
            raise ValueError(
                f"graph {self.name!r}: self-edge on node {first} rejected"
            )
        if not (0 <= first < len(self._native) and 0 <= second < len(self._native)):
            raise ValueError(
                f"graph {self.name!r}: edge ({first}, {second}) references "
                f"unknown nodes (have {len(self._native)})"
            )
        key = (first, second) if first < second else (second, first)
        if key in self._edges:
            raise ValueError(
                f"graph {self.name!r}: duplicate edge {key}"
            )
        accepted = score >= self.threshold
        self._edges[key] = (score, accepted)
        self._breakdowns[key] = breakdown
        self._adjacency[first].append((second, score, accepted))
        self._adjacency[second].append((first, score, accepted))
        if accepted:
            self._accepted_edges += 1
            self._union(first, second)

    def _union(self, first: int, second: int) -> None:
        """Merge the components of two nodes; min label wins."""
        winner, loser = self._label[first], self._label[second]
        if winner == loser:
            return
        if winner > loser:
            winner, loser = loser, winner
        moved = self._members.pop(loser)
        for node in moved:
            self._label[node] = winner
        self._members[winner].extend(moved)

    # -- traversal queries ----------------------------------------------------------

    def _eligible(self, score: float, accepted: bool, threshold: float | None) -> bool:
        # Default traversal walks the accepted (clustered) graph; an
        # explicit threshold re-filters ALL candidate edges instead,
        # letting exploration dip below the pipeline's cut-off.
        if threshold is None:
            return accepted
        return score >= threshold

    def _edge_row(self, first: int, second: int) -> dict:
        key = (first, second) if first < second else (second, first)
        score, accepted = self._edges[key]
        return {
            "first": self._native[key[0]],
            "second": self._native[key[1]],
            "score": score,
            "accepted": accepted,
        }

    @contextmanager
    def _query(self, kind: str, **annotations: object):
        """Run one traversal in a ``graph.query`` span; count and time it.

        The span's seconds feed ``frost_graph_traversal_seconds``.
        """
        query = _tracing.span(
            "graph.query", kind=kind, graph=self.name, **annotations
        )
        try:
            with query:
                yield
        finally:
            _TRAVERSALS.inc()
            _TRAVERSAL_SECONDS.observe(query.seconds)

    def neighbors(
        self,
        native_id: str,
        k: int = 1,
        threshold: float | None = None,
    ) -> dict:
        """K-hop BFS neighborhood of one record.

        ``k=0`` is the record alone.  Returns the reached records with
        hop distances plus every eligible edge among them.  The cost is
        local: the edges come from the reached records' adjacency
        lists, never from a scan of the whole graph.
        """
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise GraphQueryError(f"k must be a non-negative integer, got {k!r}")
        with self._query("neighbors", k=k):
            origin = self.node_of(native_id)
            hops = {origin: 0}
            frontier = [origin]
            for hop in range(1, k + 1):
                next_frontier = []
                for node in frontier:
                    for neighbor, score, accepted in self._adjacency[node]:
                        if neighbor in hops:
                            continue
                        if self._eligible(score, accepted, threshold):
                            hops[neighbor] = hop
                            next_frontier.append(neighbor)
                if not next_frontier:
                    break
                frontier = next_frontier
            visited = sorted(hops)
            edges = [
                self._edge_row(first, second)
                for first, second in sorted(
                    (node, neighbor)
                    for node in hops
                    for neighbor, score, accepted in self._adjacency[node]
                    if node < neighbor and neighbor in hops
                    and self._eligible(score, accepted, threshold)
                )
            ]
            return {
                "record": native_id,
                "k": k,
                "threshold": threshold,
                "neighbors": [
                    {"record": self._native[node], "hops": hops[node]}
                    for node in visited
                ],
                "edges": edges,
            }

    def path(
        self,
        source: str,
        target: str,
        threshold: float | None = None,
    ) -> dict:
        """Fewest-hops path between two records.

        Records in different components yield ``found: False`` with an
        empty path — absence of a path is a valid answer, not an error.
        """
        with self._query("path"):
            start, goal = self.node_of(source), self.node_of(target)
            if start == goal:
                return self._path_payload(source, target, [start], threshold)
            previous = {start: start}
            frontier = [start]
            while frontier and goal not in previous:
                next_frontier = []
                for node in frontier:
                    for neighbor, score, accepted in self._adjacency[node]:
                        if neighbor in previous:
                            continue
                        if self._eligible(score, accepted, threshold):
                            previous[neighbor] = node
                            next_frontier.append(neighbor)
                frontier = next_frontier
            if goal not in previous:
                return {
                    "from": source,
                    "to": target,
                    "threshold": threshold,
                    "found": False,
                    "path": [],
                    "edges": [],
                }
            nodes = [goal]
            while nodes[-1] != start:
                nodes.append(previous[nodes[-1]])
            nodes.reverse()
            return self._path_payload(source, target, nodes, threshold)

    def _path_payload(
        self, source: str, target: str, nodes: list[int], threshold: float | None
    ) -> dict:
        return {
            "from": source,
            "to": target,
            "threshold": threshold,
            "found": True,
            "path": [self._native[node] for node in nodes],
            "edges": [
                self._edge_row(nodes[i], nodes[i + 1])
                for i in range(len(nodes) - 1)
            ],
        }

    def component_of(self, native_id: str) -> dict:
        """Drill-down of the component containing one record.

        The cost is local: the payload reads only the members'
        adjacency lists.
        """
        with self._query("component"):
            node = self.node_of(native_id)
            return self._component_payload(self._label[node])

    def components(self, limit: int | None = None) -> list[dict]:
        """All components, largest first (ties by label)."""
        if limit is not None and (
            not isinstance(limit, int) or isinstance(limit, bool) or limit < 0
        ):
            raise GraphQueryError(
                f"limit must be a non-negative integer, got {limit!r}"
            )
        with self._query("components"):
            labels = sorted(
                self._members,
                key=lambda label: (-len(self._members[label]), label),
            )
            if limit is not None:
                labels = labels[:limit]
            return [self._component_payload(label) for label in labels]

    def _component_payload(self, label: int) -> dict:
        members = sorted(self._members[label])
        # an accepted edge never leaves its component; count each one
        # once, from its lower endpoint's adjacency list
        scores = [
            score
            for node in members
            for neighbor, score, accepted in self._adjacency[node]
            if accepted and node < neighbor
        ]
        size = len(members)
        possible = size * (size - 1) // 2
        return {
            "component": label,
            "size": size,
            "records": [self._native[node] for node in members],
            "edge_count": len(scores),
            "density": (len(scores) / possible) if possible else 0.0,
            "min_score": min(scores) if scores else None,
            "max_score": max(scores) if scores else None,
        }

    def evidence_path(self, source: str, target: str) -> dict:
        """Why are these two records in one cluster?

        The max-min-score path through the accepted graph: among all
        paths between the records, the one whose *weakest* edge is
        strongest — the most defensible chain of evidence.  Each edge
        carries its per-attribute similarity breakdown.
        """
        with self._query("explain"):
            start, goal = self.node_of(source), self.node_of(target)
            if start == goal:
                return {
                    "from": source,
                    "to": target,
                    "found": True,
                    "bottleneck": None,
                    "path": [source],
                    "edges": [],
                }
            if self._label[start] != self._label[goal]:
                return {
                    "from": source,
                    "to": target,
                    "found": False,
                    "bottleneck": None,
                    "path": [],
                    "edges": [],
                }
            # Widest-path Dijkstra: maximize the minimum edge score.
            # heapq is a min-heap, so push negated widths; ties break on
            # node id for determinism.
            width = {start: float("inf")}
            previous: dict[int, int] = {}
            heap = [(-float("inf"), start)]
            while heap:
                negative, node = heapq.heappop(heap)
                if node == goal:
                    break
                if -negative < width.get(node, -1.0):
                    continue
                for neighbor, score, accepted in sorted(self._adjacency[node]):
                    if not accepted:
                        continue
                    bottleneck = min(-negative, score)
                    # -1.0 sentinel: even 0.0-score accepted edges relax
                    if bottleneck > width.get(neighbor, -1.0):
                        width[neighbor] = bottleneck
                        previous[neighbor] = node
                        heapq.heappush(heap, (-bottleneck, neighbor))
            nodes = [goal]
            while nodes[-1] != start:
                nodes.append(previous[nodes[-1]])
            nodes.reverse()
            edges = []
            for i in range(len(nodes) - 1):
                row = self._edge_row(nodes[i], nodes[i + 1])
                key = tuple(sorted((nodes[i], nodes[i + 1])))
                row["evidence"] = self._breakdowns[key]
                edges.append(row)
            return {
                "from": source,
                "to": target,
                "found": True,
                "bottleneck": width[goal],
                "path": [self._native[node] for node in nodes],
                "edges": edges,
            }

    # -- cluster views --------------------------------------------------------------

    def cluster_pairs(self) -> set[Pair]:
        """All intra-component record pairs (the transitive closure).

        Equals ``experiment.pairs()`` of the run the graph was built
        from — what the exploration tools consume.
        """
        pairs: set[Pair] = set()
        for members in self._members.values():
            if len(members) < 2:
                continue
            natives = [self._native[node] for node in members]
            for i, first in enumerate(natives):
                for second in natives[i + 1:]:
                    pairs.add(make_pair(first, second))
        return pairs

    def component_nodes(self) -> dict[int, list[int]]:
        """``{component label: sorted member node ids}``."""
        return {
            label: sorted(members) for label, members in self._members.items()
        }

    def summary(self) -> dict:
        """Counts + component stats for the graph overview."""
        sizes = [len(members) for members in self._members.values()]
        return {
            "name": self.name,
            "threshold": self.threshold,
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "accepted_edge_count": self.accepted_edge_count,
            "component_count": len(sizes),
            "cluster_count": sum(1 for size in sizes if size > 1),
            "largest_component": max(sizes, default=0),
        }
