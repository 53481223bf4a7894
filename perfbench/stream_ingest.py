"""``stream_ingest``: records arriving in small batches into a durable stream.

One session feeds the corpus in 100-record batches into a
``StreamingMatcher`` backed by a file ``FrostStore`` (no match graph),
as a closed loop: the next batch is sent only after the previous
snapshot returned.  The same ``matching``/``columnar`` stages as in
``batch_match`` run here on many small deltas instead of one big
call, next to the ``streaming`` delta index and the ``storage``
writes; the engine and batch clustering are not used.  Each *pass*
ingests the whole corpus into a fresh store with the program's memo
caches emptied.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import harness, probes
from perfbench.harness import Latency, Outcome
from perfbench.speed import SpeedSampler

STREAM = "ingest"
LEAVES = (
    "matching.prepare", "streaming.delta_index", "matching.similarity",
    "matching.decision", "storage.append",
)
# A run makes ceil(seconds / PASS_SECONDS) passes whatever their speed,
# so every run does the same work and has as many samples.
PASS_SECONDS = 10.0


@dataclass(frozen=True)
class Config:
    records: int = 10000
    batch: int = 100
    setups: int = 7


def _setup(seed: int, config: Config, path: Path):
    """Generate the corpus and open a fresh durable session on ``path``."""
    from repro.datagen import make_person_benchmark
    from repro.storage.database import FrostStore
    from repro.streaming import build_session

    benchmark = make_person_benchmark(config.records, seed=seed)
    if path.exists():
        path.unlink()
    store = FrostStore(path)
    session = build_session(harness.MATCHER_CONFIG, store=store, name=STREAM)
    return benchmark, store, session


def _reference(benchmark) -> frozenset:
    """The clustering a batch run over the same records produces."""
    from repro.streaming import build_pipeline_and_index

    pipeline, _ = build_pipeline_and_index(harness.MATCHER_CONFIG)
    prepared = pipeline.prepare(benchmark.dataset)
    candidates = pipeline.generate_candidates(prepared)
    scored = pipeline.score_vectors(
        pipeline.compare_candidates(prepared, candidates)
    )
    return harness.clusters_from_pairs(
        sp.pair for sp in scored if sp.score >= pipeline.threshold
    )


def _one_pass(seed: int, config: Config, path: Path, timer, outcome: Outcome) -> dict:
    """Ingest the corpus batch by batch; returns timings and the clustering."""
    from repro.core.confusion import ConfusionMatrix
    from repro.metrics.pairwise import f1_score

    harness.reset_memo_caches()
    gc.collect()
    benchmark, store, session = _setup(seed, config, path)
    records = list(benchmark.dataset)
    spans: list[tuple[float, float]] = []
    candidates = 0
    mark = timer.mark() if timer else None
    try:
        started = time.perf_counter()
        for version, first in enumerate(range(0, len(records), config.batch), 1):
            batch = records[first:first + config.batch]
            outcome.attempted += 1
            sent = time.perf_counter()
            try:
                snapshot = session.ingest(batch)
            except Exception as error:  # noqa: BLE001 - counted, then reported
                outcome.fail(f"batch {version}: {type(error).__name__}: {error}")
                return {}
            spans.append((sent, time.perf_counter()))
            candidates += snapshot.delta_candidates
            if (snapshot.version, snapshot.record_count) != (version, first + len(batch)):
                outcome.fail(f"batch {version}: snapshot {snapshot.as_dict()}")
        wall = time.perf_counter() - started
        clustering = session.clusters()
        size = sum(p.stat().st_size for p in path.parent.glob(path.name + "*"))
    finally:
        store.close()

    matrix = ConfusionMatrix.from_clusterings(
        clustering, benchmark.gold.clustering, benchmark.dataset.total_pairs()
    )
    result = {
        "wall": wall,
        "spans": spans,
        "f1": f1_score(matrix),
        "candidates": candidates,
        "bytes_per_record": size / len(records),
        "clusters": harness.canonical_clusters(clustering.nontrivial_clusters()),
    }
    if timer:
        result["layer"] = _layer_metrics(timer, mark, result, benchmark, clustering)
    return result


def _layer_metrics(timer, mark, result: dict, benchmark, clustering) -> dict:
    """Per-layer seconds, counts and stage quality of one traced pass."""
    layer = {name: timer.total(name, mark) for name in LEAVES}
    covered = sum(layer.values())
    deltas = timer.kept("streaming.delta_index")
    scored = [sp for batch in timer.kept("matching.decision") for sp in batch]
    calls = len(timer.between("matching.similarity", mark))
    closure = sum(math.comb(len(c), 2) for c in clustering.nontrivial_clusters())
    metrics = {
        "matching.prepare_s": layer["matching.prepare"],
        "matching.candidates_s": layer["streaming.delta_index"],
        "matching.similarity_s": layer["matching.similarity"],
        "matching.decision_s": layer["matching.decision"],
        "streaming.delta_index_s": layer["streaming.delta_index"],
        "storage.append_s": layer["storage.append"],
        "streaming.untimed_s": result["wall"] - covered,
        "trace.coverage": covered / result["wall"],
        "matching.candidate_pairs": result["candidates"],
        "matching.pairs_per_call": result["candidates"] / calls if calls else 0.0,
        "storage.bytes_per_record": result["bytes_per_record"],
    }
    metrics.update(probes.stage_quality(
        (pair for delta in deltas for pair in delta.pairs), scored,
        harness.MATCHER_CONFIG["threshold"], benchmark.gold,
        benchmark.dataset.total_pairs(), closure,
    ))
    timer.drop_kept()
    return metrics


def run(seed: int, seconds: float, trace: bool, config: Config = Config(),
        mutate=None) -> Outcome:
    """Measure ``stream_ingest``; ``mutate`` corrupts outputs (tests only)."""
    from repro.datagen import make_person_benchmark

    outcome = Outcome()
    workdir = harness.WORK / f"stream_ingest-{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    path = workdir / "stream.db"
    sampler = None
    try:
        sampler = SpeedSampler(workdir)
        setups = []
        for _ in range(config.setups):
            started = time.perf_counter()
            _, store, _ = _setup(seed, config, path)
            store.close()
            setups.append((started, time.perf_counter()))
        flush_policy = harness.store_flush_policy(path)

        passes, traced, traced_walls, untraced_walls = [], [], [], []
        while len(passes) < max(1, math.ceil(seconds / PASS_SECONDS)):
            timer = None
            if trace and len(passes) % 2 == 0:
                timer = probes.install(
                    keep=("streaming.delta_index", "matching.decision")
                )
            try:
                before = probes.kernel_counts()
                result = _one_pass(seed, config, path, timer, outcome)
                after = probes.kernel_counts()
            finally:
                if timer:
                    timer.close()
            passes.append(result)
            if not result:
                break
            if timer:
                result["layer"]["columnar.distinct_ratio"] = probes.distinct_ratio(
                    before, after
                )
                traced.append(result.pop("layer"))
                traced_walls.append(result["wall"])
            else:
                untraced_walls.append(result["wall"])
        rss = harness.peak_rss_mb()
        # After the passes, so the batch run's memory is not the stream's.
        expected = _reference(make_person_benchmark(config.records, seed=seed))
        for result in passes:
            if result:
                outcome.attempted += 1
                clusters = result.pop("clusters")
                if mutate is not None:
                    clusters = mutate(clusters)
                if clusters != expected:
                    outcome.fail("stream clustering differs from a batch run")
    finally:
        if sampler is not None:
            sampler.close()
        harness.remove_workdir(workdir)

    done = [p for p in passes if p]
    latencies = [sampler.scaled(*span) * 1000.0 for p in done for span in p["spans"]]
    batch = Latency.of(latencies or [0.0], pct=90.0)
    rate = harness.median_or(config.records / p["wall"] for p in done)
    outcome.metrics.update({
        "setup_s": harness.median_or(sampler.scaled(*s) for s in setups),
        "op_p50_ms": batch.p50,
        "op_tail_ms": batch.tail,
        "op_mean_ms": statistics.fmean(latencies or [0.0]),
        "peak_rss_mb": rss,
        "match_f1": harness.median_or(p["f1"] for p in done),
    })
    outcome.report.update({
        "ingest_records_per_s": (rate, "1/s"),
        "batch_p50_ms": (batch.p50, "ms"),
        f"batch_{batch.tail_label}_ms": (batch.tail, "ms"),
        "batches": (batch.count, "count"),
        "passes": (len(done), "count"),
        "machine_speed": (sampler.median_speed(), "ratio"),
    })
    if trace:
        outcome.metrics.update(harness.median_by_name(traced))
        outcome.metrics["trace.overhead_s"] = harness.trace_overhead(
            traced_walls, untraced_walls
        )
    outcome.context.update({
        "records": config.records,
        "batch_records": config.batch,
        "store": "file FrostStore in the checkout's .perfbench directory",
        "flush_policy": flush_policy,
        "loop": "closed, one session, next batch after the snapshot returns",
        "rate_per_s": None,
    })
    return outcome

