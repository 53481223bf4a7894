#!/usr/bin/env python3
"""Columnar comparison kernels: batch-score candidate pairs.

The matching pipeline's comparison stage scores candidate pairs on the
columnar path (:mod:`repro.columnar`): records re-laid-out as interned
per-attribute id columns, whole candidate blocks scored by vectorized
kernels that compute each *distinct* value pair once.  The scalar row
loop (:func:`~repro.matching.attribute_matching.compare_pairs`) — one
Python call per (pair, attribute) — stays as the reference the kernels
must equal bit for bit.

This example shows the store's layout, scores the same block both ways,
proves the scores are bitwise equal, and reads the kernel telemetry
counters to show how much scoring work deduplication saved.

Run with::

    python examples/columnar_kernels.py
"""

from __future__ import annotations

import struct
import time

from repro.datagen import make_person_benchmark
from repro.matching.attribute_matching import compare_pairs
from repro.streaming import build_pipeline_and_index
from repro.telemetry.metrics import get_metrics

CONFIG = {
    "key": {"kind": "first_token", "attribute": "last_name"},
    "similarities": {
        "first_name": "jaro_winkler",
        "last_name": "monge_elkan",
        "street": "token_jaccard",
        "city": "ngram_jaccard",
        "zip": "numeric",
    },
    "threshold": 0.82,
}


def main() -> None:
    benchmark = make_person_benchmark(600, seed=11)

    columnar_pipeline, _ = build_pipeline_and_index(CONFIG)

    # --- 1. The columnar layout ---------------------------------------------
    prepared = columnar_pipeline.prepare(benchmark.dataset)
    store = prepared.columnar_store()
    print("=== Columnar store ===")
    print(f"  rows:            {len(store)}")
    print(f"  attributes:      {', '.join(store.attributes)}")
    print(f"  distinct values: {store.distinct_values}")
    column = store.column("last_name")
    print(f"  last_name column head: {column[:8].tolist()}  (interned ids)")

    # --- 2. Score the same block both ways ----------------------------------
    candidates = columnar_pipeline.generate_candidates(prepared)
    metrics = get_metrics()
    pairs_before = metrics.counter("frost_kernel_pairs_total").value
    distinct_before = metrics.counter("frost_kernel_distinct_pairs_total").value

    started = time.perf_counter()
    fast = columnar_pipeline.compare_candidates(prepared, candidates)
    columnar_seconds = time.perf_counter() - started

    started = time.perf_counter()
    slow = compare_pairs(prepared, sorted(candidates), columnar_pipeline.comparator)
    scalar_seconds = time.perf_counter() - started

    # --- 3. Byte-identity ----------------------------------------------------
    def bits(value):
        return None if value is None else struct.pack("<d", value)

    mismatches = sum(
        1
        for fast_vector, slow_vector in zip(fast, slow)
        for attribute in slow_vector.values
        if bits(fast_vector.values[attribute])
        != bits(slow_vector.values[attribute])
    )
    print("\n=== Scores ===")
    print(f"  candidate pairs: {len(candidates)}")
    print(f"  scalar loop:     {scalar_seconds * 1000:7.1f} ms")
    print(f"  columnar:        {columnar_seconds * 1000:7.1f} ms")
    print(f"  bitwise mismatches: {mismatches} (must be 0)")

    # --- 4. What deduplication saved ----------------------------------------
    pairs_scored = metrics.counter("frost_kernel_pairs_total").value - pairs_before
    distinct = (
        metrics.counter("frost_kernel_distinct_pairs_total").value
        - distinct_before
    )
    comparisons = pairs_scored * len(CONFIG["similarities"])
    print("\n=== Kernel telemetry ===")
    print(f"  pairs through kernels:        {pairs_scored}")
    print(f"  raw (pair, attribute) scores: {comparisons}")
    print(f"  distinct value-pair scores:   {distinct}")
    if comparisons:
        print(f"  deduplication factor:         {comparisons / max(distinct, 1):.1f}x")


if __name__ == "__main__":
    main()
