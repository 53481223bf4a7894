"""``batch_match``: one matching job plus its evaluation, start to finish.

A Frost user registers a dataset and its gold standard, runs a
matcher through the experiment engine, and looks at the result's
metrics and metric/metric diagram.  Each *pass* does exactly that on
a fresh platform and engine (so the engine's result cache is cold) and
with the program's memo caches emptied, so every pass does the same
work.  Most time goes to ``matching``/``columnar``, to the engine's
registration round trip, and to ``metrics``; ``streaming``,
``storage`` and the server are not used.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import time
from dataclasses import dataclass

from perfbench import harness, probes
from perfbench.harness import Latency, Outcome
from perfbench.speed import SpeedSampler

MATCHED = "matched"
DIRECT = "matched-direct"
LEAVES_MATCH = (
    "matching.prepare", "matching.candidates", "matching.similarity",
    "matching.decision", "matching.clustering", "engine.serialize",
    "engine.deserialize", "core.register",
)
LEAVES_EVALUATE = ("metrics.table", "core.diagram")
# A run makes ceil(seconds / PASS_SECONDS) passes whatever their speed,
# so every run does the same work and has as many samples.
PASS_SECONDS = 4.0


@dataclass(frozen=True)
class Config:
    records: int = 5000
    setups: int = 15
    diagram_samples: int = 100


def _corpus(seed: int, config: Config):
    from repro.core.platform import FrostPlatform
    from repro.datagen import make_person_benchmark

    benchmark = make_person_benchmark(config.records, seed=seed)
    platform = FrostPlatform()
    platform.add_dataset(benchmark.dataset)
    platform.add_gold(benchmark.dataset.name, benchmark.gold)
    return benchmark, platform


def _pipeline():
    from repro.streaming import build_pipeline_and_index

    pipeline, _ = build_pipeline_and_index(harness.MATCHER_CONFIG)
    return pipeline


def _direct_matches(experiment):
    """The matches the decision model scored, without closure pairs.

    Only scored matches have a place on a metric/metric diagram.
    """
    from repro.core.experiment import Experiment

    return Experiment(
        [match for match in experiment if not match.from_clustering],
        name=DIRECT,
        solution=experiment.solution,
    )


def _diagram_payload(points) -> list[dict]:
    """Diagram points in the form the engine's diagram job returns."""
    return [
        {
            "threshold": None if math.isinf(p.threshold) else p.threshold,
            "matches": p.matches_applied,
            **p.matrix.as_dict(),
        }
        for p in points
    ]


def _one_pass(seed: int, pipeline, config: Config, timer) -> dict:
    """Match, register, evaluate; returns timings, marks and outputs."""
    from repro.engine.jobs import JobSpec
    from repro.engine.runner import ExperimentEngine

    harness.reset_memo_caches()
    gc.collect()
    benchmark, platform = _corpus(seed, config)
    dataset, gold = benchmark.dataset.name, benchmark.gold.name
    # One worker: the metrics and diagram jobs run one after the other,
    # so neither job's time includes waiting for the other, and the timed
    # layer calls of a pass never overlap.
    engine = ExperimentEngine(platform, max_workers=1)
    marks = [timer.mark()] if timer else []

    started = time.perf_counter()
    engine.submit(JobSpec(
        "pipeline",
        {"pipeline": pipeline, "dataset": dataset, "register_as": MATCHED},
        job_id="match",
    ))
    jobs = dict(engine.run())
    matched = time.perf_counter()
    if timer:
        marks.append(timer.mark())

    experiment = None
    if MATCHED in platform.experiment_names(dataset):
        experiment = platform.experiment(dataset, MATCHED)
        platform.add_experiment(dataset, _direct_matches(experiment))
    if timer:
        marks.append(timer.mark())
    evaluate_from = time.perf_counter()
    if experiment is not None:
        engine.submit(JobSpec(
            "metrics",
            {"dataset": dataset, "gold": gold, "experiments": [MATCHED]},
            job_id="metrics",
        ))
        engine.submit(JobSpec(
            "diagram",
            {"dataset": dataset, "gold": gold, "experiment": DIRECT,
             "samples": config.diagram_samples},
            job_id="diagram",
        ))
        jobs.update(engine.run())
    done = time.perf_counter()
    if timer:
        marks.append(timer.mark())
    return {
        "span": (started, done),
        "match_s": matched - started,
        "evaluate_s": done - evaluate_from,
        "jobs": jobs,
        "experiment": experiment,
        "benchmark": benchmark,
        "marks": marks,
    }


def _reference(seed: int, pipeline, config: Config) -> dict:
    """Expected outputs from a direct, serial, engine-free run."""
    benchmark, platform = _corpus(seed, config)
    dataset, gold = benchmark.dataset.name, benchmark.gold.name
    experiment = pipeline.run(benchmark.dataset).experiment
    experiment.name = MATCHED
    platform.add_experiment(dataset, experiment)
    platform.add_experiment(dataset, _direct_matches(experiment))
    return {
        "digest": harness.experiment_digest(experiment),
        "metrics": harness.canonical_json(
            platform.metrics_table(dataset, gold, [MATCHED])
        ),
        "diagram": harness.canonical_json(_diagram_payload(
            platform.diagram(dataset, DIRECT, gold,
                             samples=config.diagram_samples)
        )),
    }


def _check_pass(result: dict, reference: dict, outcome: Outcome, mutate) -> None:
    """Count the pass's three jobs and fail the ones whose output is wrong."""
    jobs = result["jobs"]
    outcome.attempted += 3
    for job_id in ("match", "metrics", "diagram"):
        job = jobs.get(job_id)
        if job is None or job.state.value != "succeeded":
            state = "missing" if job is None else f"{job.state.value}: {job.error}"
            outcome.fail(f"job {job_id} {state}")
            continue
        if job_id == "match":
            experiment = result["experiment"]
            if mutate is not None:
                experiment = mutate(experiment)
            if harness.experiment_digest(experiment) != reference["digest"]:
                outcome.fail("engine experiment differs from a direct serial run")
        elif job_id == "metrics":
            if harness.canonical_json(job.value["metrics"]) != reference["metrics"]:
                outcome.fail("metrics job differs from the direct evaluation")
        elif harness.canonical_json(job.value["points"]) != reference["diagram"]:
            outcome.fail("diagram job differs from the direct evaluation")


def _layer_metrics(result: dict, timer) -> dict[str, float]:
    """Per-layer seconds, counts and stage quality of one traced pass."""
    start, matched, derived, done = result["marks"]
    layer = {}
    for name in LEAVES_MATCH:
        layer[name] = timer.total(name, start, matched)
    for name in LEAVES_EVALUATE:
        layer[name] = timer.total(name, derived, done)
    run_s = timer.total("matching.run", start, matched)
    wall = result["match_s"] + result["evaluate_s"]
    covered = sum(layer.values())
    candidates = timer.kept("matching.candidates")
    scored = timer.kept("matching.decision")
    benchmark = result["benchmark"]
    metrics = {
        "matching.prepare_s": layer["matching.prepare"],
        "matching.candidates_s": layer["matching.candidates"],
        "matching.similarity_s": layer["matching.similarity"],
        "matching.decision_s": layer["matching.decision"],
        "matching.clustering_s": layer["matching.clustering"],
        "engine.serialize_s": layer["engine.serialize"],
        "engine.deserialize_s": layer["engine.deserialize"],
        "core.register_s": layer["core.register"],
        "engine.overhead_s": result["match_s"] - run_s,
        "engine.untimed_s": wall - covered,
        "metrics.table_s": layer["metrics.table"],
        "core.diagram_s": layer["core.diagram"],
        "trace.coverage": covered / wall,
    }
    if candidates and scored and result["experiment"] is not None:
        metrics["matching.candidate_pairs"] = len(candidates[-1])
        metrics["matching.pairs_per_call"] = len(candidates[-1])
        metrics.update(probes.stage_quality(
            candidates[-1], scored[-1], harness.MATCHER_CONFIG["threshold"],
            benchmark.gold, benchmark.dataset.total_pairs(),
            len(result["experiment"]),
        ))
    return metrics


def _measure(seed: int, seconds: float, trace: bool, config: Config, mutate,
             outcome: Outcome):
    """Set up, then run and check the passes; returns raw spans and samples."""
    setups = []
    for _ in range(config.setups):
        started = time.perf_counter()
        _corpus(seed, config)
        pipeline = _pipeline()
        setups.append((started, time.perf_counter()))

    # The expected outputs are computed first, so each pass is checked
    # and dropped at once: outputs kept across passes would grow the
    # heap and slow the collector down in later passes.
    reference = _reference(seed, pipeline, config)
    passes, f1, traced, traced_walls, untraced_walls = [], [], [], [], []
    while len(passes) < max(1, math.ceil(seconds / PASS_SECONDS)):
        # In the traced run, every other pass runs untraced, so the
        # tracing overhead is a difference of like passes.
        timer = None
        if trace and len(passes) % 2 == 0:
            timer = probes.install(keep=("matching.candidates", "matching.decision"))
        try:
            harness.reset_peak_rss()
            before = probes.kernel_counts()
            result = _one_pass(seed, pipeline, config, timer)
            after = probes.kernel_counts()
            result["rss"] = harness.process_peak_rss_mb(os.getpid())
            if timer:
                layer = _layer_metrics(result, timer)
                layer["columnar.distinct_ratio"] = probes.distinct_ratio(before, after)
                traced.append(layer)
                traced_walls.append(result["match_s"] + result["evaluate_s"])
            else:
                untraced_walls.append(result["match_s"] + result["evaluate_s"])
        finally:
            if timer:
                timer.close()
        _check_pass(result, reference, outcome, mutate)
        metrics_job = result["jobs"].get("metrics")
        if metrics_job is not None and metrics_job.value:
            f1.append(metrics_job.value["metrics"][MATCHED]["f1"])
        passes.append({key: result[key] for key in ("span", "match_s", "evaluate_s", "rss")})
        del result
    return setups, passes, f1, traced, traced_walls, untraced_walls


def run(seed: int, seconds: float, trace: bool, config: Config = Config(),
        mutate=None) -> Outcome:
    """Measure ``batch_match``; ``mutate`` corrupts outputs (tests only)."""
    outcome = Outcome()
    workdir = harness.WORK / f"batch_match-{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        with SpeedSampler(workdir) as sampler:
            setups, passes, f1, traced, traced_walls, untraced_walls = _measure(
                seed, seconds, trace, config, mutate, outcome
            )
    finally:
        harness.remove_workdir(workdir)

    pass_ms = [sampler.scaled(*p["span"]) * 1000.0 for p in passes]
    op = Latency.of(pass_ms)
    match_s = harness.median_or(p["match_s"] for p in passes)
    evaluate_s = harness.median_or(p["evaluate_s"] for p in passes)
    outcome.metrics.update({
        "setup_s": harness.median_or(sampler.scaled(*s) for s in setups),
        "op_p50_ms": op.p50,
        "op_tail_ms": op.tail,
        "op_mean_ms": statistics.fmean(pass_ms),
        # The median pass's peak: how much memory one pass takes
        # varies with allocator state between passes.
        "peak_rss_mb": harness.median_or(p["rss"] for p in passes),
        "match_f1": harness.median_or(f1),
    })
    outcome.report.update({
        "match_s": (match_s, "s"),
        "evaluate_s": (evaluate_s, "s"),
        "match_records_per_s": (config.records / match_s if match_s else 0.0, "1/s"),
        "pass_p50_raw_ms": (harness.median_or(
            (p["match_s"] + p["evaluate_s"]) * 1000.0 for p in passes
        ), "ms"),
        f"pass_{op.tail_label}_ms": (op.tail, "ms"),
        "passes": (len(passes), "count"),
        "machine_speed": (sampler.median_speed(), "ratio"),
    })
    if trace:
        outcome.metrics.update(harness.median_by_name(traced))
        outcome.metrics["trace.overhead_s"] = harness.trace_overhead(
            traced_walls, untraced_walls
        )
    outcome.context.update({
        "records": config.records,
        "diagram_samples": config.diagram_samples,
        "engine_workers": 1,
        "store": "none (in-memory platform)",
        "loop": "closed, one pass at a time",
        "rate_per_s": None,
    })
    return outcome

