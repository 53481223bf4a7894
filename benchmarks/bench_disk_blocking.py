"""Disk-backed SQL-pushdown blocking for larger-than-memory corpora.

The in-memory blockers hold ``dict[str, list[str]]`` block membership
plus the full candidate set in Python memory — RAM bounds the corpus.
:mod:`repro.blocking_disk` spills ``(block_key, record_id)`` rows into
indexed SQLite tables and runs the pair join inside the storage engine,
streamed back in bounded chunks.  The claims under test:

1. **identity** — the library's candidate set is *set-identical* to
   the in-memory blocker's, across blocker families, asserted in every
   mode (this is the CI gate: the disk library must never return other
   candidates than the in-memory blockers it stands in for);
2. **bounded memory** — a generated 1M-record person corpus blocks
   end-to-end (spill + join + chunked count) with peak RSS **< 1 GB**,
   because the corpus is generated and spilled in batches, the join's
   temp structures live in SQLite's capped page cache, and candidates
   are counted chunk-by-chunk without ever materializing the set;
3. **throughput** — spill and join rates are reported per mode as
   trajectory points (records/s and pairs/s).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_disk_blocking.py -s

Modes: ``REPRO_BENCH_SMOKE=1`` (CI, ~3k records), default (~60k),
``REPRO_BENCH_FULL=1`` (1M records; asserts the < 1 GB RSS bound).
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import print_table
from benchmarks.trajectory import emit_trajectory, peak_rss_mb
from repro.blocking_disk import (
    DiskBlockingStore,
    lsh_plan,
    sorted_neighborhood_plan,
    spill_records,
    standard_plan,
    stream_candidates,
    token_plan,
)
from repro.datagen import make_person_benchmark
from repro.datagen.domains import person_entity
from repro.datagen.generator import (
    CorruptionModel,
    DirtyDatasetGenerator,
    cluster_sizes_zipf,
)
from repro.matching.blocking import (
    first_token_key,
    sorted_neighborhood,
    standard_blocking,
    token_blocking,
)
from repro.matching.lsh import LshConfig, lsh_blocking

MAX_PEAK_RSS_MB = 1024
BATCH_RECORDS = 50_000


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _full() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def _corpus_records() -> int:
    if _full():
        return 1_000_000
    if _smoke():
        return 3_000
    return 60_000


def _batch(index: int, count: int):
    """One reproducible corpus slice with globally unique record ids."""
    generator = DirtyDatasetGenerator(
        entity_factory=person_entity,
        cluster_sizes=cluster_sizes_zipf(maximum=4),
        corruption=CorruptionModel(attribute_rate=0.35, null_rate=0.05),
        name=f"persons-{index}",
        id_prefix=f"b{index}-",
        seed=1_000 + index,
    )
    return generator.generate(count).dataset


def _streamed(plan, records) -> set:
    """The plan's candidates: one spill, then every streamed chunk."""
    with DiskBlockingStore() as store:
        run_id = store.begin_run(plan.scheme, dict(plan.config))
        spill_records(store, run_id, plan, records)
        return {
            pair
            for chunk in stream_candidates(store, run_id, plan)
            for pair in chunk
        }


def test_disk_candidates_identical_to_memory():
    """Claim 1 — asserted in every mode, across all blocker families."""
    record_count = 1_500 if _smoke() else 5_000
    dataset = make_person_benchmark(record_count, seed=41).dataset
    zip_key = first_token_key("zip")
    surname_key = first_token_key("last_name")
    lsh_config = LshConfig(num_perm=32, bands=8, max_block_size=50)

    comparisons = [
        ("standard(zip)",
         lambda: standard_blocking(dataset, zip_key),
         lambda: _streamed(standard_plan(zip_key), dataset)),
        ("token(cap=60)",
         lambda: token_blocking(dataset, max_block_size=60),
         lambda: _streamed(token_plan(max_block_size=60), dataset)),
        ("sorted_neighborhood(w=7)",
         lambda: sorted_neighborhood(dataset, surname_key, window=7),
         lambda: _streamed(sorted_neighborhood_plan(surname_key, 7), dataset)),
        ("lsh(32/8)",
         lambda: lsh_blocking(dataset, lsh_config),
         lambda: _streamed(lsh_plan(lsh_config), dataset)),
    ]

    rows = []
    for name, memory_path, disk_path in comparisons:
        started = time.perf_counter()
        memory_pairs = memory_path()
        memory_seconds = time.perf_counter() - started
        started = time.perf_counter()
        disk_pairs = disk_path()
        disk_seconds = time.perf_counter() - started
        assert disk_pairs == memory_pairs, (
            f"{name}: disk produced {len(disk_pairs)} pairs, "
            f"memory {len(memory_pairs)}"
        )
        rows.append([
            name, len(memory_pairs),
            f"{memory_seconds:.3f}", f"{disk_seconds:.3f}",
        ])

    print_table(
        f"Disk vs memory candidate identity ({record_count} records)",
        ["Blocker", "Candidates", "Memory s", "Disk s"],
        rows,
    )


def test_corpus_blocks_in_bounded_memory():
    """Claims 2 + 3 — batched generation, spill, pushed-down join.

    The corpus never exists as one Python object: each slice is
    generated, spilled, and dropped; the join output is counted chunk
    by chunk.  In full mode (1M records) the < 1 GB peak-RSS bound is
    asserted; identity versus the in-memory path on the first slice is
    asserted in every mode.
    """
    record_count = _corpus_records()
    batch_size = min(BATCH_RECORDS, record_count)
    plan = standard_plan(first_token_key("zip"), {"attribute": "zip"})

    with DiskBlockingStore() as store:
        run_id = store.begin_run(plan.scheme, dict(plan.config))

        spill_started = time.perf_counter()
        spilled_rows = 0
        generated = 0
        first_slice = None
        index = 0
        while generated < record_count:
            count = min(batch_size, record_count - generated)
            dataset = _batch(index, count)
            spilled_rows += spill_records(store, run_id, plan, dataset)
            generated += len(dataset)
            if first_slice is None:
                first_slice = dataset  # kept for the identity assert
            index += 1
        spill_seconds = time.perf_counter() - spill_started

        join_started = time.perf_counter()
        candidate_count = 0
        chunk_count = 0
        for chunk in stream_candidates(store, run_id, plan):
            candidate_count += len(chunk)
            chunk_count += 1
        join_seconds = time.perf_counter() - join_started

        # Identity on the overlapping size: the first slice, re-run
        # through both paths, must agree exactly (every mode).  Asserted
        # after the emit, so a failing run still rewrites its point.
        overlap_key = first_token_key("zip")
        first_slice_identical = _streamed(
            standard_plan(overlap_key), first_slice
        ) == standard_blocking(first_slice, overlap_key)

    rss_mb = peak_rss_mb()
    spill_rate = generated / spill_seconds if spill_seconds else 0.0
    join_rate = candidate_count / join_seconds if join_seconds else 0.0

    print_table(
        f"Disk blocking at scale ({generated} records, "
        f"{index} batches)",
        ["Stage", "Seconds", "Rate", "Output"],
        [
            ["generate+spill", f"{spill_seconds:.2f}",
             f"{spill_rate:,.0f} rec/s", f"{spilled_rows} rows"],
            ["join+count", f"{join_seconds:.2f}",
             f"{join_rate:,.0f} pair/s",
             f"{candidate_count} pairs / {chunk_count} chunks"],
            ["peak RSS", f"{rss_mb:.1f} MiB", "", ""],
        ],
    )
    emit_trajectory(
        "disk_blocking",
        throughput={"spill_records_per_s": spill_rate,
                    "join_pairs_per_s": join_rate},
        seconds={"spill": spill_seconds, "join": join_seconds},
        counters={
            "records": generated,
            "rows_spilled": spilled_rows,
            "candidates": candidate_count,
            "chunks": chunk_count,
        },
        context={
            "smoke": _smoke(),
            "full": _full(),
            "records": record_count,
        },
    )

    assert first_slice_identical
    assert candidate_count > 0
    assert chunk_count >= 1
    if _full():
        # Claim 2 — the whole point of the subsystem: a corpus 100x the
        # comfortable in-memory size blocks within the RSS budget.
        assert rss_mb < MAX_PEAK_RSS_MB, (
            f"peak RSS {rss_mb:.1f} MiB breaches the "
            f"{MAX_PEAK_RSS_MB} MiB larger-than-memory budget"
        )
