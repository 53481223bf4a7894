"""Match-graph build, traversal, and evidence-path latency.

Claims under test:

1. incrementally updating the graph for an appended 10% batch is much
   cheaper than rebuilding the whole graph from the pipeline run
   (>=3x, asserted in full mode only) — the point of per-batch graph
   maintenance;
2. the incremental graph equals the from-scratch rebuild (stored node
   and edge rows, and component memberships read from the live graph
   and from one loaded from the store), asserted in every mode;
3. k-hop neighborhoods and evidence-path queries answer in
   milliseconds on a datagen corpus.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_graph.py -s

Set ``REPRO_BENCH_SMOKE=1`` (CI) for a small, fast configuration; at
400 base records the fixed costs of an ingest weigh more and the
speedup measures only about 2.4x, so smoke mode records it without
asserting it.
"""

from __future__ import annotations

import gc
import os
import time

from benchmarks.conftest import print_table
from benchmarks.trajectory import emit_trajectory
from repro.core.records import Dataset
from repro.datagen import make_person_benchmark
from repro.graph import build_graph_from_run, load_graph
from repro.storage.database import FrostStore
from repro.streaming import build_pipeline_and_index, build_session

CONFIG = {
    "key": {"kind": "first_token", "attribute": "last_name"},
    "similarities": {
        "first_name": "jaro_winkler",
        "last_name": "jaro_winkler",
        "street": "monge_elkan",
        "city": "jaro_winkler",
        "zip": "exact",
    },
    "threshold": 0.82,
    "graph": True,
}
MIN_INCREMENTAL_SPEEDUP = 3.0


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _graph_rows(store: FrostStore, name: str, live) -> tuple:
    """Stored node and edge rows plus component memberships, which the
    live graph ``live`` and a reload from the store must agree on."""
    document = store.load_graph(name)
    memberships = load_graph(store, name).component_nodes()
    assert live.component_nodes() == memberships, (
        f"graph {name!r}: live memberships differ from the stored graph's"
    )
    return (document["nodes"], document["edges"], memberships)


def test_graph_build_traversal_and_evidence_latency():
    base_count = 400 if _smoke() else 1500
    total = base_count + base_count // 10
    benchmark = make_person_benchmark(total, seed=42)
    records = list(benchmark.dataset)
    base, appended = records[:base_count], records[base_count:]

    # incremental: a graph-enabled stream has already absorbed the
    # base; time only the appended batch (scoring + graph delta)
    store = FrostStore(":memory:")
    session = build_session(CONFIG, store=store, name="inc")
    session.ingest(base)
    gc.collect()
    started = time.perf_counter()
    session.ingest(appended)
    incremental_seconds = time.perf_counter() - started

    # rebuild: one full pipeline run over the union, then a
    # from-scratch graph build from that run — what a batch deployment
    # pays to refresh the graph after the same appended batch
    pipeline, _ = build_pipeline_and_index(CONFIG)
    gc.collect()
    started = time.perf_counter()
    run = pipeline.run(Dataset(records, name="union"))
    graph = build_graph_from_run(store, "rebuilt", run)
    rebuild_seconds = time.perf_counter() - started

    # acceptance invariant: identical rows and memberships, batch-split
    # or not
    assert _graph_rows(store, "inc", session._graph.graph) == _graph_rows(
        store, "rebuilt", graph
    ), "incremental graph must equal the rebuild"
    speedup = rebuild_seconds / max(incremental_seconds, 1e-9)

    # traversal latency over every record / intra-cluster pair
    neighbor_latencies: list[float] = []
    for record in run.dataset:
        started = time.perf_counter()
        graph.neighbors(record.record_id, k=2)
        neighbor_latencies.append(time.perf_counter() - started)

    evidence_latencies: list[float] = []
    pairs = sorted(graph.cluster_pairs())
    if not _smoke():
        pairs = pairs[:2000]
    for first, second in pairs:
        started = time.perf_counter()
        result = graph.evidence_path(first, second)
        evidence_latencies.append(time.perf_counter() - started)
        assert result["found"]

    summary = graph.summary()
    neighbor_p95 = sorted(neighbor_latencies)[
        int(0.95 * (len(neighbor_latencies) - 1))
    ]
    evidence_p95 = sorted(evidence_latencies)[
        int(0.95 * (len(evidence_latencies) - 1))
    ]
    print_table(
        "Match graph: incremental update vs. rebuild + query latency",
        ["Measure", "Value"],
        [
            ["nodes / edges", f"{summary['node_count']} / {summary['edge_count']}"],
            ["incremental 10% batch", f"{incremental_seconds:.3f}s"],
            ["full rebuild", f"{rebuild_seconds:.3f}s"],
            ["speedup", f"{speedup:.1f}x"],
            ["2-hop neighbors p95", f"{neighbor_p95 * 1000:.2f}ms"],
            ["evidence path p95", f"{evidence_p95 * 1000:.2f}ms"],
        ],
    )
    emit_trajectory(
        "graph",
        throughput={
            "neighbors_per_second": len(neighbor_latencies)
            / max(sum(neighbor_latencies), 1e-9),
            "evidence_paths_per_second": len(evidence_latencies)
            / max(sum(evidence_latencies), 1e-9),
        },
        seconds={
            "incremental_batch": incremental_seconds,
            "full_rebuild": rebuild_seconds,
        },
        latencies=evidence_latencies,
        counters={
            "nodes": summary["node_count"],
            "edges": summary["edge_count"],
            "clusters": summary["cluster_count"],
            "speedup": round(speedup, 1),
        },
        context={"smoke": _smoke(), "base_records": base_count},
    )

    if _smoke():
        return  # CI smoke: identity is the claim; timing is noise there
    assert speedup >= MIN_INCREMENTAL_SPEEDUP, (
        f"incremental graph update only {speedup:.1f}x faster than a "
        f"rebuild (incremental {incremental_seconds:.3f}s, "
        f"rebuild {rebuild_seconds:.3f}s)"
    )
