"""The end-to-end data matching pipeline (§1.2).

"A data matching pipeline typically consists of the following steps:
(1) data preparation, (2) candidate generation, (3) similarity-based
attribute value matching, (4) decision model / classification,
(5) duplicate clustering, (6) duplicate merging / record fusion."

:class:`MatchingPipeline` wires the substrate modules together and —
central to Frost — exposes *per-stage outputs* so that quality can be
measured between the steps ("Measuring the performance between these
steps [...] helps to find bottlenecks of matching performance").
"""

from __future__ import annotations

import copy
import logging
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.columnar.batch import (
    PairBatch,
    ScoredBatch,
    accepted_pairs,
    closure_matches,
)
from repro.core.experiment import Experiment, Match
from repro.core.pairs import Pair, ScoredPair
from repro.core.records import Dataset, Record
from repro.matching.attribute_matching import AttributeComparator, SimilarityVector
from repro.matching.clustering_algorithms import (
    CLUSTERING_ALGORITHMS,
    connected_components,
)
from repro.matching.fusion import fuse_dataset
from repro.matching.parallel import ParallelConfig, compare_pairs_sharded
from repro.telemetry import metrics as _telemetry_metrics
from repro.telemetry import spans as _tracing

_LOGGER = logging.getLogger(__name__)

_RECORDS_PREPARED = _telemetry_metrics.get_metrics().counter(
    "frost_pipeline_records_prepared_total",
    "Records passed through the data-preparation stage",
)
_CANDIDATES_GENERATED = _telemetry_metrics.get_metrics().counter(
    "frost_blocking_candidates_total",
    "Candidate pairs produced by blocking / candidate generation",
)
_MATCHES_ACCEPTED = _telemetry_metrics.get_metrics().counter(
    "frost_clustering_matches_total",
    "Matches emitted by the clustering stage (direct + transitive)",
)
_DISK_FALLBACKS = _telemetry_metrics.get_metrics().counter(
    "frost_blocking_disk_fallback_total",
    "blocking_storage='disk' requests served by the in-memory path "
    "(no SQL pushdown plan for the configured generator)",
)

_BLOCKING_STORAGES = ("memory", "disk")


def _coerce_blocking_storage(blocking_storage: str) -> str:
    storage = str(blocking_storage)
    if storage not in _BLOCKING_STORAGES:
        raise ValueError(
            f"blocking_storage must be one of {_BLOCKING_STORAGES}, "
            f"got {blocking_storage!r}"
        )
    return storage

__all__ = ["PipelineRun", "MatchingPipeline", "normalize_whitespace", "lowercase_values"]

Preparer = Callable[[Record], Record]
CandidateGenerator = Callable[[Dataset], set[Pair]]
DecisionModel = Callable[[SimilarityVector], float]


def normalize_whitespace(record: Record) -> Record:
    """Data-preparation step: collapse runs of whitespace, strip ends."""
    cleaned = {
        attribute: (" ".join(value.split()) if value is not None else None)
        for attribute, value in record.values.items()
    }
    return Record(record_id=record.record_id, values=cleaned)


def lowercase_values(record: Record) -> Record:
    """Data-preparation step: lowercase all values (case standardization)."""
    lowered = {
        attribute: (value.lower() if value is not None else None)
        for attribute, value in record.values.items()
    }
    return Record(record_id=record.record_id, values=lowered)


def _coerce_parallelism(
    parallelism: ParallelConfig | Mapping[str, object] | int | None,
) -> ParallelConfig:
    """Normalize the ``parallelism`` knob's accepted forms."""
    if parallelism is None:
        return ParallelConfig()
    if isinstance(parallelism, ParallelConfig):
        return parallelism
    if isinstance(parallelism, int):
        return ParallelConfig(workers=parallelism)
    return ParallelConfig.from_dict(dict(parallelism))


@dataclass
class PipelineRun:
    """All intermediate and final outputs of one pipeline execution.

    Pair-based metrics can be computed on ``candidates`` (candidate
    generation quality), ``scored_pairs`` at any threshold (decision
    model quality), and the final ``experiment`` (overall quality) —
    exactly the inter-stage measurements Frost advocates (§1.2).

    ``vectors`` and ``scored_pairs`` are sequences in sorted pair
    order.  When the comparison ran on batch kernels they are lazy
    views — a :class:`~repro.columnar.PairBatch` of score lanes and,
    for the ``mean_similarity`` decision model, a
    :class:`~repro.columnar.ScoredBatch` of scores — that build
    :class:`SimilarityVector` / :class:`ScoredPair` objects only when
    indexed or iterated, and equal the lists the row-by-row path
    returns.  Otherwise they are plain lists.
    """

    dataset: Dataset
    prepared: Dataset
    candidates: set[Pair]
    vectors: Sequence[SimilarityVector]
    scored_pairs: Sequence[ScoredPair]
    experiment: Experiment
    fused: Dataset | None = None
    stage_seconds: dict[str, float] = field(default_factory=dict)


class MatchingPipeline:
    """A configurable six-step matching solution.

    Parameters
    ----------
    candidate_generator:
        Step 2 — maps the prepared dataset to candidate pairs.
    comparator:
        Step 3 — per-attribute similarity configuration.
    decision_model:
        Step 4 — maps a similarity vector to a score in ``[0, 1]``.
    threshold:
        "A pair is matched if its score is higher than a specific
        threshold" (§1.2); we use ``score >= threshold``.
    preparers:
        Step 1 — record-level cleaning functions applied in order.
    clustering:
        Step 5 — name from ``CLUSTERING_ALGORITHMS`` or a callable.
    fuse:
        Step 6 — whether to also produce the fused (deduplicated)
        dataset.
    name / solution:
        Labels attached to the resulting experiment.
    parallelism:
        Sharded execution of the comparison stage: a
        :class:`~repro.matching.parallel.ParallelConfig`, a plain
        ``workers`` integer, or a ``{"workers": ..., "shards": ...}``
        mapping (the JSON-config form).  The default keeps the serial
        path.  Parallel output is byte-identical to serial, so this
        knob is deliberately absent from :meth:`config_fingerprint` —
        the engine's result cache must not distinguish runs that
        cannot differ.
    columnar:
        Route the comparison stage through the batch kernels of
        :mod:`repro.columnar` when every configured measure has one
        (default on).  Kernel scores are byte-identical to the scalar
        measures, so — exactly like ``parallelism`` — this is an
        execution knob, absent from :meth:`config_fingerprint`.
    blocking_storage:
        ``"memory"`` (default) runs the candidate generator as-is;
        ``"disk"`` pushes blocking into SQLite via
        :mod:`repro.blocking_disk` — keys and signatures spill to
        indexed tables and the pair join runs as a SQL self-join
        streamed in bounded chunks, so blocking memory stays O(chunk)
        instead of O(corpus).  Candidate sets are identical either
        way (generators without a pushdown plan fall back in-memory
        with a warning), so this too is an execution knob, absent
        from :meth:`config_fingerprint`.
    """

    def __init__(
        self,
        candidate_generator: CandidateGenerator,
        comparator: AttributeComparator,
        decision_model: DecisionModel,
        threshold: float = 0.5,
        preparers: Sequence[Preparer] = (normalize_whitespace,),
        clustering: str | Callable[[Sequence[ScoredPair]], object] = "connected_components",
        fuse: bool = False,
        fusion_strategies: Mapping[str, object] | None = None,
        name: str = "pipeline-run",
        solution: str = "pipeline",
        parallelism: ParallelConfig | Mapping[str, object] | int | None = None,
        columnar: bool = True,
        blocking_storage: str = "memory",
    ) -> None:
        self.candidate_generator = candidate_generator
        self.comparator = comparator
        self.decision_model = decision_model
        self.threshold = threshold
        self.preparers = list(preparers)
        if isinstance(clustering, str):
            try:
                clustering = CLUSTERING_ALGORITHMS[clustering]
            except KeyError:
                known = ", ".join(sorted(CLUSTERING_ALGORITHMS))
                raise KeyError(
                    f"unknown clustering algorithm {clustering!r}; known: {known}"
                ) from None
        self.clustering = clustering
        self.fuse = fuse
        self.fusion_strategies = fusion_strategies
        self.name = name
        self.solution = solution
        self.parallelism = _coerce_parallelism(parallelism)
        self.columnar = bool(columnar)
        self.blocking_storage = _coerce_blocking_storage(blocking_storage)

    # -- stages (each one is a node of the job graph) ---------------------------

    def prepare(self, dataset: Dataset) -> Dataset:
        """Step 1 — apply the record-level preparers in order.

        When the columnar path is on and every configured measure has a
        batch kernel, the prepared dataset's columnar layout (interned
        columns plus the kernels' derived arrays) is built here too —
        column stores pay layout cost at load time, so the comparison
        stage is pure scoring.
        """
        with _tracing.span("pipeline.prepare", records=len(dataset)):
            prepared_records = []
            for record in dataset:
                for preparer in self.preparers:
                    record = preparer(record)
                prepared_records.append(record)
            _RECORDS_PREPARED.inc(len(prepared_records))
            prepared = Dataset(
                prepared_records, name=f"{dataset.name}-prepared",
                attributes=dataset.attributes,
            )
            if self.columnar:
                from repro.columnar import plan_for

                plan = plan_for(self.comparator)
                if plan is not None:
                    plan.warm(prepared.columnar_store())
            return prepared

    def generate_candidates(self, prepared: Dataset) -> set[Pair]:
        """Step 2 — candidate pairs of the prepared dataset.

        With ``blocking_storage="disk"`` the generator's SQL-pushdown
        plan (see :func:`repro.blocking_disk.plan_for_generator`) runs
        inside a scratch SQLite database instead; generators without a
        plan fall back to the in-memory call — same candidates, so the
        fallback is an observability event (warning + counter), not an
        error.
        """
        with _tracing.span("pipeline.candidates", records=len(prepared)) as span:
            candidates: set[Pair] | None = None
            if self.blocking_storage == "disk":
                from repro.blocking_disk import disk_candidates

                candidates = disk_candidates(self.candidate_generator, prepared)
                if candidates is None:
                    _DISK_FALLBACKS.inc()
                    _LOGGER.warning(
                        "blocking_storage='disk' has no SQL pushdown plan "
                        "for %r; falling back to the in-memory path "
                        "(output is identical)",
                        self.candidate_generator,
                    )
            if candidates is None:
                candidates = self.candidate_generator(prepared)
            span.annotate(pairs=len(candidates))
            _CANDIDATES_GENERATED.inc(len(candidates))
            return candidates

    def compare_candidates(
        self, prepared: Dataset, candidates: set[Pair]
    ) -> Sequence[SimilarityVector]:
        """Step 3 — similarity vectors of the candidate pairs.

        Candidates are visited in sorted order, so vector/score lists —
        and everything derived from them (stored experiments, cache
        digests) — are byte-identical across runs and hash seeds.
        ``prepared`` only needs item access by record id, which lets
        the streaming subsystem reuse this stage over its live record
        registry without materializing a :class:`Dataset`.

        Kernel-scored candidates come back as a
        :class:`~repro.columnar.PairBatch` (score lanes read as a lazy
        sequence of vectors); the scalar loop returns a list.

        With :attr:`parallelism` configured, large candidate sets are
        partitioned into deterministic shards and scored on a process
        pool (:mod:`repro.matching.parallel`); the merged output is
        byte-identical to the serial loop.  Pairs whose records were
        deleted between blocking and scoring are skipped with a
        warning instead of raising ``KeyError``.
        """
        with _tracing.span("pipeline.similarity") as span:
            vectors, missing = compare_pairs_sharded(
                prepared,
                candidates,
                self.comparator,
                config=self.parallelism,
                columnar=self.columnar,
                # reuse the layout prepare() built; never built here —
                # streaming registries and ad-hoc mappings pass None and
                # the comparison stage interns just the touched records
                store=getattr(prepared, "_columnar_store", None),
            )
            span.annotate(vectors=len(vectors), missing=len(missing))
        if missing:
            _LOGGER.warning(
                "skipped candidate pairs of %d record(s) deleted between "
                "blocking and scoring: %s",
                len(missing),
                ", ".join(missing[:10]) + ("…" if len(missing) > 10 else ""),
            )
        return vectors

    def score_vectors(
        self, vectors: Sequence[SimilarityVector]
    ) -> Sequence[ScoredPair]:
        """Step 4 — decision-model scores of the similarity vectors.

        The built-in ``mean_similarity`` model (recognized by identity)
        scores a :class:`~repro.columnar.PairBatch` as lane arithmetic
        and returns a :class:`~repro.columnar.ScoredBatch` view; every
        other model, and every other input, is scored row by row into a
        list.  Both give the same scores, bit for bit.
        """
        from repro.streaming.session import mean_similarity

        with _tracing.span("pipeline.decision", vectors=len(vectors)):
            if self.decision_model is mean_similarity and isinstance(
                vectors, PairBatch
            ):
                return ScoredBatch(vectors, vectors.mean_scores())
            return [
                ScoredPair(score=self.decision_model(vector), pair=vector.pair)
                for vector in vectors
            ]

    def _cluster(self, scored_pairs: Sequence[ScoredPair]):
        """Step 5 — threshold, cluster, and assemble the experiment.

        A :class:`~repro.columnar.ScoredBatch` is thresholded in one
        vectorized comparison; under ``connected_components`` its
        accepted rows are clustered on their integer row ids and each
        match is built once, in sorted pair order.  Other clustering
        algorithms receive the accepted :class:`ScoredPair` objects.
        """
        with _tracing.span(
            "pipeline.clustering", scored=len(scored_pairs)
        ) as span:
            if (
                isinstance(scored_pairs, ScoredBatch)
                and self.clustering is connected_components
            ):
                accepted_mask = scored_pairs.scores >= self.threshold
                clustering, matches = closure_matches(scored_pairs, accepted_mask)
                accepted_count = int(accepted_mask.sum())
            else:
                accepted = accepted_pairs(scored_pairs, self.threshold)
                clustering = self.clustering(accepted)
                accepted_set = {sp.pair for sp in accepted}
                score_of = {sp.pair: sp.score for sp in accepted}
                matches = []
                for pair in sorted(clustering.pairs()):
                    matches.append(
                        Match(
                            pair=pair,
                            score=score_of.get(pair),
                            from_clustering=pair not in accepted_set,
                        )
                    )
                accepted_count = len(accepted)
            span.annotate(accepted=accepted_count, matches=len(matches))
            _MATCHES_ACCEPTED.inc(len(matches))
            experiment = Experiment(
                matches,
                name=self.name,
                solution=self.solution,
                metadata={"threshold": self.threshold},
            )
            return clustering, experiment

    def cluster_matches(self, scored_pairs: Sequence[ScoredPair]) -> Experiment:
        """Step 5 as a job-graph stage: scored pairs to experiment."""
        _, experiment = self._cluster(scored_pairs)
        return experiment

    def run(self, dataset: Dataset) -> PipelineRun:
        """Execute all pipeline steps on ``dataset``."""
        with _tracing.span(
            "pipeline.run", pipeline=self.name, records=len(dataset)
        ):
            return self._run_traced(dataset)

    def _run_traced(self, dataset: Dataset) -> PipelineRun:
        stage_seconds: dict[str, float] = {}

        started = time.perf_counter()
        prepared = self.prepare(dataset)
        stage_seconds["preparation"] = time.perf_counter() - started

        started = time.perf_counter()
        candidates = self.generate_candidates(prepared)
        stage_seconds["candidates"] = time.perf_counter() - started

        started = time.perf_counter()
        vectors = self.compare_candidates(prepared, candidates)
        stage_seconds["similarity"] = time.perf_counter() - started

        started = time.perf_counter()
        scored_pairs = self.score_vectors(vectors)
        stage_seconds["decision"] = time.perf_counter() - started

        started = time.perf_counter()
        clustering, experiment = self._cluster(scored_pairs)
        stage_seconds["clustering"] = time.perf_counter() - started

        fused = None
        if self.fuse:
            started = time.perf_counter()
            with _tracing.span("pipeline.fusion"):
                fused = fuse_dataset(
                    dataset, clustering, strategies=self.fusion_strategies
                )
            stage_seconds["fusion"] = time.perf_counter() - started

        experiment.metadata["runtime_seconds"] = sum(stage_seconds.values())
        return PipelineRun(
            dataset=dataset,
            prepared=prepared,
            candidates=candidates,
            vectors=vectors,
            scored_pairs=scored_pairs,
            experiment=experiment,
            fused=fused,
            stage_seconds=stage_seconds,
        )

    # -- engine integration -----------------------------------------------------

    def with_parallelism(
        self,
        workers: int | None = None,
        shards: int | None = None,
        min_pairs: int | None = None,
    ) -> "MatchingPipeline":
        """A shallow copy with the given sharded-execution settings.

        Shares every stage object (comparator, decision model, …) with
        the original — only the execution strategy differs, never the
        output.  Used by the engine and CLI to apply per-invocation
        ``--workers``/``--shards`` overrides without mutating a shared
        pipeline.

        A ``shards`` override against a serial base still means "go
        parallel": the worker count defaults to all cores (``0``) so
        the requested sharding is not a silent no-op — the same rule
        :meth:`ParallelConfig.from_dict` applies to JSON configs.
        """
        base = self.parallelism
        if workers is None and shards is not None and base.resolved_workers() == 1:
            workers = 0
        clone = copy.copy(self)
        clone.parallelism = ParallelConfig(
            workers=base.workers if workers is None else workers,
            shards=base.shards if shards is None else shards,
            min_pairs=base.min_pairs if min_pairs is None else min_pairs,
        )
        return clone

    def with_columnar(self, columnar: bool) -> "MatchingPipeline":
        """A shallow copy with kernelized comparison switched on/off.

        Like :meth:`with_parallelism` this only changes *how* the
        comparison stage executes, never its output — the batch
        kernels are byte-identical to the scalar measures (and the
        stage falls back to the scalar loop whenever a configured
        measure has no kernel).
        """
        clone = copy.copy(self)
        clone.columnar = bool(columnar)
        return clone

    def with_blocking_storage(self, blocking_storage: str) -> "MatchingPipeline":
        """A shallow copy with blocking routed to memory or disk.

        Like :meth:`with_parallelism` and :meth:`with_columnar` this
        only changes *how* candidate generation executes, never its
        output — the SQL-pushdown plans produce candidate sets
        identical to the in-memory blockers (and generators without a
        plan fall back to the in-memory call).
        """
        clone = copy.copy(self)
        clone.blocking_storage = _coerce_blocking_storage(blocking_storage)
        return clone

    def with_blocker(self, candidate_generator: CandidateGenerator) -> "MatchingPipeline":
        """A shallow copy running a different candidate generator.

        Unlike :meth:`with_parallelism` this **changes the output**, so
        it also changes :meth:`config_fingerprint` (the generator is
        part of the token): the engine's result cache distinguishes a
        token-blocked run from an LSH-blocked run of the same pipeline,
        and two LSH configs from each other — provided the generator
        exposes a ``config_fingerprint`` (as
        :class:`~repro.matching.lsh.LshBlocking` does) or is a named
        module-level function.
        """
        clone = copy.copy(self)
        clone.candidate_generator = candidate_generator
        return clone

    def config_fingerprint(self) -> dict[str, object]:
        """Content token of this pipeline's configuration.

        Used by :mod:`repro.engine` to content-address pipeline job
        results.  Callables are tokenized by qualified name, so custom
        steps should be module-level functions (not lambdas closing
        over differing constants).  :attr:`parallelism`,
        :attr:`columnar`, and :attr:`blocking_storage` are deliberately
        excluded: sharded, kernelized, and disk-backed execution are
        byte-identical to the serial in-memory path, and a fingerprint
        that varied with them would split the cache across entries that
        hold the same result.
        """
        from repro.engine.jobs import content_fingerprint

        comparator_config = getattr(self.comparator, "_config", None)
        if isinstance(comparator_config, Mapping):
            comparator_token: object = {
                attribute: content_fingerprint(function)
                for attribute, function in comparator_config.items()
            }
        else:  # duck-typed comparators without AttributeComparator's layout
            comparator_token = content_fingerprint(self.comparator)
        return {
            "candidate_generator": content_fingerprint(self.candidate_generator),
            "comparator": comparator_token,
            "decision_model": content_fingerprint(self.decision_model),
            "threshold": self.threshold,
            "preparers": [content_fingerprint(p) for p in self.preparers],
            "clustering": content_fingerprint(self.clustering),
            "fuse": self.fuse,
            "name": self.name,
            "solution": self.solution,
        }

    def as_job_graph(
        self,
        dataset_name: str,
        prefix: str | None = None,
        register: bool = True,
    ) -> list["JobSpec"]:
        """This pipeline run as a five-stage dependency-ordered job graph.

        Each stage becomes one :class:`~repro.engine.jobs.JobSpec`
        whose inputs are the outputs of its dependencies, so an
        :class:`~repro.engine.runner.ExperimentEngine` can interleave
        stages of several pipelines on its worker pool and per-stage
        timings/failures stay observable per job.  The final
        ``clustering`` stage yields the experiment (and registers it on
        the platform when ``register`` is set).
        """
        from repro.engine.jobs import JobSpec

        prefix = prefix or self.name

        def stage(name: str, *depends_on: str, **extra: object) -> JobSpec:
            return JobSpec(
                kind="pipeline_stage",
                params={
                    "pipeline": self,
                    "stage": name,
                    "dataset": dataset_name,
                    **extra,
                },
                job_id=f"{prefix}:{name}",
                depends_on=tuple(f"{prefix}:{dep}" for dep in depends_on),
                cacheable=False,
            )

        return [
            stage("prepare"),
            stage("candidates", "prepare"),
            stage("similarity", "prepare", "candidates"),
            stage("decision", "similarity"),
            stage("clustering", "decision", register=register),
        ]

    def scored_experiment(self, dataset: Dataset, keep_all: bool = True) -> Experiment:
        """An experiment carrying *all* scored candidate pairs.

        With ``keep_all`` the result retains pairs below the threshold
        too — the input metric/metric diagrams need to sweep thresholds
        meaningfully (§4.5.1 notes diagrams "heavily depend on how many
        pairs have a similarity score assigned").
        """
        run = self.run(dataset)
        pairs = (
            run.scored_pairs if keep_all
            else accepted_pairs(run.scored_pairs, self.threshold)
        )
        return Experiment(
            (Match(pair=sp.pair, score=sp.score) for sp in pairs),
            name=f"{self.name}-scored",
            solution=self.solution,
            metadata=dict(run.experiment.metadata),
        )
