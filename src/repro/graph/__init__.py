"""The persisted match-graph subsystem.

Record nodes and weighted similarity edges with per-attribute
evidence, persisted in indexed SQLite adjacency tables; cluster
memberships are derived in memory from the accepted edges.  Queryable
through k-hop traversal, path, component drill-down, and max-min-score
evidence paths.  See README "Match graph".
"""

from repro.graph.build import (
    GraphUpdater,
    build_graph_from_experiment,
    build_graph_from_run,
    load_graph,
)
from repro.graph.model import GraphQueryError, MatchGraph

__all__ = [
    "MatchGraph",
    "GraphQueryError",
    "GraphUpdater",
    "build_graph_from_run",
    "build_graph_from_experiment",
    "load_graph",
]
