"""MatchGraph traversal semantics, edge cases, and the brute-force oracles.

The evidence-path query must return a connected path whose minimum
edge score is maximal — verified here against a brute-force oracle
that enumerates every simple path on small randomized graphs.  The
component drill-down and listing payloads are checked the same way,
against a BFS over the raw edge rows.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.model import GraphQueryError, MatchGraph


def graph_of(edges, nodes=None, threshold=0.5, name="g"):
    """A graph from ``(first, second, score)`` rows; nodes auto-added."""
    graph = MatchGraph(name, threshold)
    names = nodes if nodes is not None else sorted(
        {end for edge in edges for end in edge[:2]}
    )
    for native in names:
        graph.add_node(native)
    for first, second, score in edges:
        graph.add_edge(graph.node_of(first), graph.node_of(second), score)
    return graph


class TestConstruction:
    def test_dense_node_ids_in_insertion_order(self):
        graph = MatchGraph("g", 0.5)
        assert graph.add_node("z") == 0
        assert graph.add_node("a") == 1
        assert graph.record_ids() == ["z", "a"]

    def test_duplicate_node_rejected(self):
        graph = MatchGraph("g", 0.5)
        graph.add_node("a")
        with pytest.raises(ValueError, match="already has record"):
            graph.add_node("a")

    def test_self_pairs_filtered_out(self):
        graph = graph_of([], nodes=["a"])
        with pytest.raises(ValueError, match="self-edge"):
            graph.add_edge(0, 0, 0.9)

    def test_duplicate_edge_rejected_in_either_orientation(self):
        graph = graph_of([("a", "b", 0.9)])
        with pytest.raises(ValueError, match="duplicate edge"):
            graph.add_edge(
                graph.node_of("b"), graph.node_of("a"), 0.8
            )

    def test_components_follow_only_accepted_edges(self):
        graph = graph_of([("a", "b", 0.9), ("b", "c", 0.3)])
        members = [component["records"] for component in graph.components()]
        assert sorted(members) == [["a", "b"], ["c"]]

    def test_summary_counts(self):
        graph = graph_of(
            [("a", "b", 0.9), ("b", "c", 0.3)], nodes=["a", "b", "c", "d"]
        )
        summary = graph.summary()
        assert summary["node_count"] == 4
        assert summary["edge_count"] == 2
        assert summary["accepted_edge_count"] == 1
        assert summary["component_count"] == 3
        assert summary["cluster_count"] == 1
        assert summary["largest_component"] == 2

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_accepted_edge_count_equals_a_scan_of_the_edges(self, data):
        """Accepted and rejected edges mixed, with refused calls (self-
        edges, duplicates) that must leave the count alone."""
        n = data.draw(st.integers(min_value=2, max_value=10), label="nodes")
        graph = MatchGraph("g", 0.5)
        for node in range(n):
            graph.add_node(f"r{node}")
        nodes = st.integers(min_value=0, max_value=n - 1)
        calls = data.draw(
            st.lists(
                st.tuples(nodes, nodes, st.sampled_from([0.1, 0.3, 0.5, 0.9])),
                max_size=40,
            ),
            label="add_edge calls",
        )
        for first, second, score in calls:
            try:
                graph.add_edge(first, second, score)
            except ValueError:
                pass
            assert graph.accepted_edge_count == sum(
                accepted for _, accepted in graph._edges.values()
            )
        assert graph.summary()["accepted_edge_count"] == (
            graph.accepted_edge_count
        )


class TestNeighbors:
    def test_k0_is_the_record_alone(self):
        graph = graph_of([("a", "b", 0.9)])
        result = graph.neighbors("a", k=0)
        assert result["neighbors"] == [{"record": "a", "hops": 0}]
        assert result["edges"] == []

    def test_hop_distances_in_a_chain(self):
        graph = graph_of([("a", "b", 0.9), ("b", "c", 0.9), ("c", "d", 0.9)])
        result = graph.neighbors("a", k=2)
        assert {row["record"]: row["hops"] for row in result["neighbors"]} == {
            "a": 0, "b": 1, "c": 2,
        }

    def test_cycle_terminates_with_shortest_hops(self):
        graph = graph_of(
            [("a", "b", 0.9), ("b", "c", 0.9), ("c", "a", 0.9)]
        )
        result = graph.neighbors("a", k=5)
        hops = {row["record"]: row["hops"] for row in result["neighbors"]}
        assert hops == {"a": 0, "b": 1, "c": 1}
        assert len(result["edges"]) == 3

    def test_isolated_node_has_no_neighbors(self):
        graph = graph_of([("a", "b", 0.9)], nodes=["a", "b", "lone"])
        result = graph.neighbors("lone", k=3)
        assert result["neighbors"] == [{"record": "lone", "hops": 0}]

    def test_threshold_excluding_all_edges(self):
        graph = graph_of([("a", "b", 0.9), ("b", "c", 0.8)])
        result = graph.neighbors("a", k=2, threshold=0.95)
        assert result["neighbors"] == [{"record": "a", "hops": 0}]
        assert result["edges"] == []

    def test_explicit_threshold_traverses_rejected_edges(self):
        # b-c scores below the acceptance threshold; an explicit lower
        # traversal threshold still reaches c
        graph = graph_of([("a", "b", 0.9), ("b", "c", 0.3)])
        assert len(graph.neighbors("a", k=2)["neighbors"]) == 2
        widened = graph.neighbors("a", k=2, threshold=0.2)
        assert len(widened["neighbors"]) == 3

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_edges_equal_the_full_scan_oracle(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12), label="nodes")
        all_pairs = list(itertools.combinations(range(n), 2))
        chosen = data.draw(
            st.lists(st.sampled_from(all_pairs), unique=True,
                     max_size=len(all_pairs)) if all_pairs else st.just([]),
            label="edges",
        )
        graph = MatchGraph("g", 0.5)
        for node in range(n):
            graph.add_node(f"r{node}")
        for first, second in chosen:
            score = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
            if data.draw(st.booleans(), label="reversed"):
                first, second = second, first
            graph.add_edge(first, second, score)
        origin = data.draw(st.integers(min_value=0, max_value=n - 1))
        k = data.draw(st.integers(min_value=0, max_value=4), label="k")
        threshold = data.draw(st.sampled_from([None, 0.2, 0.6]))
        result = graph.neighbors(f"r{origin}", k=k, threshold=threshold)
        reached = {graph.node_of(row["record"]) for row in result["neighbors"]}
        assert result["edges"] == [
            graph._edge_row(first, second)
            for (first, second), (score, accepted) in sorted(graph._edges.items())
            if first in reached and second in reached
            and graph._eligible(score, accepted, threshold)
        ]

    def test_query_never_scans_the_edge_table(self):
        class Unscannable(dict):
            def _refuse(self):
                raise AssertionError("neighbors() scanned the whole edge table")

            items = keys = values = __iter__ = _refuse

        graph = graph_of([("a", "b", 0.9), ("b", "c", 0.9), ("x", "y", 0.9)])
        graph._edges = Unscannable(graph._edges)
        result = graph.neighbors("a", k=2)
        assert [(edge["first"], edge["second"]) for edge in result["edges"]] == [
            ("a", "b"), ("b", "c"),
        ]

    def test_negative_k_rejected(self):
        graph = graph_of([("a", "b", 0.9)])
        with pytest.raises(GraphQueryError):
            graph.neighbors("a", k=-1)

    def test_unknown_record_raises_keyerror(self):
        graph = graph_of([("a", "b", 0.9)])
        with pytest.raises(KeyError):
            graph.neighbors("ghost")


class TestPath:
    def test_fewest_hops_path(self):
        graph = graph_of(
            [
                ("a", "b", 0.9),
                ("b", "c", 0.9),
                ("c", "d", 0.9),
                ("a", "d", 0.9),
            ]
        )
        result = graph.path("b", "d")
        assert result["found"]
        assert len(result["path"]) == 3  # b-a-d or b-c-d

    def test_different_components_is_empty_result_not_exception(self):
        graph = graph_of([("a", "b", 0.9), ("c", "d", 0.9)])
        result = graph.path("a", "c")
        assert result == {
            "from": "a",
            "to": "c",
            "threshold": None,
            "found": False,
            "path": [],
            "edges": [],
        }

    def test_path_to_self(self):
        graph = graph_of([("a", "b", 0.9)])
        result = graph.path("a", "a")
        assert result["found"] and result["path"] == ["a"]

    def test_threshold_can_sever_the_only_route(self):
        graph = graph_of([("a", "b", 0.6), ("b", "c", 0.9)])
        assert graph.path("a", "c")["found"]
        assert not graph.path("a", "c", threshold=0.8)["found"]


class TestComponents:
    def test_component_of_isolated_record(self):
        graph = graph_of([("a", "b", 0.9)], nodes=["a", "b", "lone"])
        result = graph.component_of("lone")
        assert result["size"] == 1
        assert result["density"] == 0.0
        assert result["min_score"] is None

    def test_component_stats(self):
        graph = graph_of(
            [("a", "b", 0.9), ("b", "c", 0.7), ("a", "c", 0.8)]
        )
        result = graph.component_of("a")
        assert result["size"] == 3
        assert result["edge_count"] == 3
        assert result["density"] == 1.0
        assert result["min_score"] == 0.7
        assert result["max_score"] == 0.9

    def test_components_sorted_by_size_then_label(self):
        graph = graph_of(
            [("a", "b", 0.9), ("c", "d", 0.9), ("d", "e", 0.9)],
            nodes=["a", "b", "c", "d", "e", "f"],
        )
        listed = graph.components()
        assert [c["size"] for c in listed] == [3, 2, 1]
        assert graph.components(limit=1)[0]["records"] == ["c", "d", "e"]

    def test_bad_limit_rejected(self):
        graph = graph_of([("a", "b", 0.9)])
        with pytest.raises(GraphQueryError):
            graph.components(limit=-2)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_payloads_match_brute_force_oracle(self, data):
        """``component_of`` for every record, ``components()`` and
        ``components(limit)`` equal a BFS over the raw edge rows, with
        rejected edges inside and across components."""
        n = data.draw(st.integers(min_value=1, max_value=9), label="nodes")
        all_pairs = list(itertools.combinations(range(n), 2))
        chosen = data.draw(
            st.lists(st.sampled_from(all_pairs), unique=True)
            if all_pairs else st.just([]),
            label="edges",
        )
        rows = [
            (first, second, data.draw(
                st.sampled_from([0.1, 0.3, 0.49, 0.5, 0.7, 0.9, 1.0]),
                label="score",
            ))
            for first, second in chosen
        ]
        graph = graph_of(
            [(f"r{a}", f"r{b}", score) for a, b, score in rows],
            nodes=[f"r{i}" for i in range(n)],
        )
        expected = oracle_components(n, rows, threshold=0.5)
        for node in range(n):
            label = next(
                label for label in expected if node in expected[label]["nodes"]
            )
            assert graph.component_of(f"r{node}") == expected[label]["payload"]
        listing = [
            expected[label]["payload"]
            for label in sorted(
                expected, key=lambda label: (-len(expected[label]["nodes"]), label)
            )
        ]
        assert graph.components() == listing
        limit = data.draw(st.integers(min_value=0, max_value=n + 1), label="limit")
        assert graph.components(limit=limit) == listing[:limit]


def oracle_components(n: int, rows, threshold: float) -> dict:
    """``{label: {"nodes", "payload"}}`` by BFS over accepted edge rows."""
    adjacency = {node: set() for node in range(n)}
    for first, second, score in rows:
        if score >= threshold:
            adjacency[first].add(second)
            adjacency[second].add(first)
    seen: set[int] = set()
    components = {}
    for start in range(n):
        if start in seen:
            continue
        reached, queue = {start}, [start]
        while queue:
            for neighbor in adjacency[queue.pop(0)] - reached:
                reached.add(neighbor)
                queue.append(neighbor)
        seen |= reached
        scores = [
            score for first, second, score in rows
            if score >= threshold and first in reached and second in reached
        ]
        size = len(reached)
        possible = size * (size - 1) // 2
        components[start] = {
            "nodes": reached,
            "payload": {
                "component": start,
                "size": size,
                "records": [f"r{node}" for node in sorted(reached)],
                "edge_count": len(scores),
                "density": len(scores) / possible if possible else 0.0,
                "min_score": min(scores, default=None),
                "max_score": max(scores, default=None),
            },
        }
    return components


def oracle_bottleneck(graph: MatchGraph, source: str, target: str):
    """Max over all simple paths of the minimum edge score (brute force)."""
    start, goal = graph.node_of(source), graph.node_of(target)
    adjacency = {}
    for node in range(graph.node_count):
        adjacency[node] = [
            (neighbor, score)
            for neighbor, score, accepted in graph._adjacency[node]
            if accepted
        ]
    best = None
    stack = [(start, {start}, float("inf"))]
    while stack:
        node, seen, width = stack.pop()
        if node == goal:
            if best is None or width > best:
                best = width
            continue
        for neighbor, score in adjacency[node]:
            if neighbor not in seen:
                stack.append((neighbor, seen | {neighbor}, min(width, score)))
    return best


class TestEvidencePath:
    def test_prefers_strong_detour_over_weak_shortcut(self):
        graph = graph_of(
            [
                ("a", "d", 0.55),
                ("a", "b", 0.95),
                ("b", "c", 0.9),
                ("c", "d", 0.85),
            ],
            threshold=0.5,
        )
        result = graph.evidence_path("a", "d")
        assert result["path"] == ["a", "b", "c", "d"]
        assert result["bottleneck"] == 0.85

    def test_evidence_carries_attribute_breakdowns(self):
        graph = MatchGraph("g", 0.5)
        for native in ("a", "b"):
            graph.add_node(native)
        graph.add_edge(0, 1, 0.9, breakdown={"name": 0.8, "zip": None})
        result = graph.evidence_path("a", "b")
        assert result["edges"][0]["evidence"] == {"name": 0.8, "zip": None}

    def test_cross_component_explains_nothing(self):
        graph = graph_of([("a", "b", 0.9), ("c", "d", 0.9)])
        result = graph.evidence_path("a", "c")
        assert not result["found"]
        assert result["path"] == []

    def test_rejected_edges_are_not_evidence(self):
        # a-c exists but below threshold: the component split wins
        graph = graph_of([("a", "b", 0.9), ("b", "c", 0.3)])
        assert not graph.evidence_path("a", "c")["found"]

    def test_matches_oracle_on_a_known_tricky_graph(self):
        graph = graph_of(
            [
                ("a", "b", 0.6),
                ("b", "e", 0.6),
                ("a", "c", 0.9),
                ("c", "d", 0.8),
                ("d", "e", 0.7),
            ],
            threshold=0.5,
        )
        result = graph.evidence_path("a", "e")
        assert result["bottleneck"] == oracle_bottleneck(graph, "a", "e") == 0.7

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_bottleneck_matches_brute_force_oracle(self, data):
        """Acceptance invariant: the evidence path's minimum edge score
        equals the best achievable over ALL simple paths."""
        n = data.draw(st.integers(min_value=2, max_value=6), label="nodes")
        names = [f"r{i}" for i in range(n)]
        all_pairs = list(itertools.combinations(range(n), 2))
        chosen = data.draw(
            st.lists(
                st.sampled_from(all_pairs),
                unique=True,
                min_size=1,
                max_size=len(all_pairs),
            ),
            label="edges",
        )
        scores = data.draw(
            st.lists(
                st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
                min_size=len(chosen),
                max_size=len(chosen),
            ),
            label="scores",
        )
        graph = MatchGraph("g", 0.5)
        for native in names:
            graph.add_node(native)
        for (first, second), score in zip(chosen, scores):
            graph.add_edge(first, second, score)
        source = data.draw(st.sampled_from(names), label="source")
        target = data.draw(st.sampled_from(names), label="target")
        expected = oracle_bottleneck(graph, source, target)
        result = graph.evidence_path(source, target)
        if expected is None:
            assert not result["found"]
        else:
            assert result["found"]
            if source == target:
                assert result["path"] == [source]
            else:
                assert result["bottleneck"] == expected
                # the returned path must be connected and achieve the
                # bottleneck it claims
                assert result["path"][0] == source
                assert result["path"][-1] == target
                assert (
                    min(edge["score"] for edge in result["edges"]) == expected
                )


class TestClusterViews:
    def test_cluster_pairs_is_the_transitive_closure(self):
        graph = graph_of(
            [("a", "b", 0.9), ("b", "c", 0.9), ("d", "e", 0.9)],
            nodes=["a", "b", "c", "d", "e", "f"],
        )
        assert graph.cluster_pairs() == {
            ("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"),
        }

    def test_labels_are_min_member_ids(self):
        graph = graph_of([("b", "c", 0.9), ("a", "c", 0.9)], nodes=["a", "b", "c"])
        assert graph.component_of("b")["component"] == 0
        assert graph.component_nodes() == {0: [0, 1, 2]}


class TestTraversalMetrics:
    """Every traversal query counts once and observes its wall time."""

    QUERIES = {
        "neighbors": lambda graph: graph.neighbors("a", k=2),
        "path": lambda graph: graph.path("a", "c"),
        "component_of": lambda graph: graph.component_of("b"),
        "components": lambda graph: graph.components(),
        "evidence_path": lambda graph: graph.evidence_path("a", "c"),
    }

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_each_query_counts_once_and_observes_once(self, query):
        from repro.telemetry.metrics import get_metrics

        graph = graph_of([("a", "b", 0.9), ("b", "c", 0.8)], nodes=["a", "b", "c"])
        before = get_metrics().values()
        self.QUERIES[query](graph)
        after = get_metrics().values()
        for name in (
            "frost_graph_traversals_total",
            "frost_graph_traversal_seconds_count",
        ):
            assert after[name] - before[name] == 1, name
        assert (
            after["frost_graph_traversal_seconds_sum"]
            >= before["frost_graph_traversal_seconds_sum"]
        )
