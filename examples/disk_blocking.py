#!/usr/bin/env python3
"""Disk-backed blocking: spill a corpus slice by slice, stream the pairs.

Every in-memory blocker keeps its block membership lists *and* the full
candidate set in Python memory, so RAM bounds the corpus you can block.
:mod:`repro.blocking_disk` spills ``(block_key, record_id)`` rows into
indexed SQLite tables and generates pairs with a SQL self-join, streamed
back in bounded chunks.  Memory stays bounded only when the caller
works piecewise, as here:

1. the corpus arrives in slices; each slice is spilled and dropped;
2. the join output is consumed chunk by chunk, never as one set;
3. the ``frost_blocking_*`` counters record the rows, chunks and runs.

Run with::

    python examples/disk_blocking.py
"""

from __future__ import annotations

from repro.blocking_disk import (
    DiskBlockingStore,
    spill_records,
    standard_plan,
    stream_candidates,
)
from repro.datagen.domains import person_entity
from repro.datagen.generator import (
    CorruptionModel,
    DirtyDatasetGenerator,
    cluster_sizes_zipf,
)
from repro.matching.blocking import first_token_key
from repro.telemetry.metrics import get_metrics


def corpus_slice(index: int, count: int):
    """One reproducible slice of person records; ids unique across slices."""
    generator = DirtyDatasetGenerator(
        entity_factory=person_entity,
        cluster_sizes=cluster_sizes_zipf(maximum=4),
        corruption=CorruptionModel(attribute_rate=0.35, null_rate=0.05),
        name=f"persons-{index}",
        id_prefix=f"s{index}-",
        seed=100 + index,
    )
    return generator.generate(count).dataset


def main() -> None:
    plan = standard_plan(first_token_key("zip"), {"attribute": "zip"})
    with DiskBlockingStore(chunk_size=10_000) as store:
        run_id = store.begin_run(plan.scheme, dict(plan.config))
        # --- 1. Spill the corpus slice by slice ------------------------------
        for index in range(3):
            spill_records(store, run_id, plan, corpus_slice(index, 1_000))
        # --- 2. Stream the pushed-down join in bounded chunks ----------------
        candidate_count = 0
        chunk_count = 0
        for chunk in stream_candidates(store, run_id, plan):
            candidate_count += len(chunk)
            chunk_count += 1
        print("=== Piecewise spill + streamed join ===")
        print(f"  membership rows:  {store.key_count(run_id)}")
        print(f"  distinct blocks:  {store.block_count(run_id)}")
        print(f"  candidate pairs:  {candidate_count} "
              f"in {chunk_count} chunk(s)")

    # --- 3. Telemetry --------------------------------------------------------
    metrics = get_metrics()
    print("\n=== Telemetry ===")
    for name in (
        "frost_blocking_disk_runs_total",
        "frost_blocking_rows_spilled_total",
        "frost_blocking_chunks_total",
    ):
        print(f"  {name}: {metrics.counter(name).value}")


if __name__ == "__main__":
    main()
