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
from collections.abc import Callable, Iterable, Mapping, Sequence
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field

from repro.columnar import RowPairs, plan_for
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
from repro.matching.comparison import score_candidates
from repro.matching.fusion import fuse_dataset
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

__all__ = ["PipelineRun", "MatchingPipeline", "normalize_whitespace", "lowercase_values"]

# ``PipelineRun.stage_seconds`` key of each stage span under ``pipeline.run``.
_STAGE_KEYS = {
    "pipeline.prepare": "preparation",
    "pipeline.candidates": "candidates",
    "pipeline.similarity": "similarity",
    "pipeline.decision": "decision",
    "pipeline.clustering": "clustering",
    "pipeline.fusion": "fusion",
}

Preparer = Callable[[Record], Record]
CandidateGenerator = Callable[[Dataset], AbstractSet[Pair]]
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


@dataclass
class PipelineRun:
    """All intermediate and final outputs of one pipeline execution.

    Pair-based metrics can be computed on ``candidates`` (candidate
    generation quality), ``scored_pairs`` at any threshold (decision
    model quality), and the final ``experiment`` (overall quality) —
    exactly the inter-stage measurements Frost advocates (§1.2).

    ``candidates`` is what the candidate generator returned: for the
    built-in blockers a :class:`~repro.columnar.RowPairSet`, pair lanes
    over the prepared dataset's store that read as a set of canonical
    pairs (sorted iteration, exact ``in``, set algebra into plain
    sets); for a custom generator, its own set.

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
    candidates: AbstractSet[Pair]
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

    # -- stages ------------------------------------------------------------------

    def prepare(self, dataset: Dataset) -> Dataset:
        """Step 1 — apply the record-level preparers in order.

        Only prepares records: the columnar layout is built by
        :meth:`generate_candidates`, so a caller that never blocks the
        prepared dataset (a streaming batch, which joins its session's
        layout) builds none.
        """
        with _tracing.span("pipeline.prepare", records=len(dataset)):
            prepared_records = []
            for record in dataset:
                for preparer in self.preparers:
                    record = preparer(record)
                prepared_records.append(record)
            _RECORDS_PREPARED.inc(len(prepared_records))
            return Dataset(
                prepared_records, name=f"{dataset.name}-prepared",
                attributes=dataset.attributes,
            )

    def generate_candidates(self, prepared: Dataset) -> AbstractSet[Pair]:
        """Step 2 — candidate pairs of the prepared dataset.

        When the comparator has a kernel plan, the prepared dataset's
        columnar layout, ``prepared.columnar_store()`` (interned columns
        plus the kernels' derived arrays), is built and warmed first,
        so the generator and the comparison stage read a ready layout.
        The built-in blockers return a
        :class:`~repro.columnar.RowPairSet` over its rows, which the
        comparison stage scores on those rows; a custom generator may
        return any set of canonical pairs.
        """
        with _tracing.span("pipeline.candidates", records=len(prepared)) as span:
            plan = plan_for(self.comparator)
            if plan is not None:
                plan.warm(prepared.columnar_store())
            candidates = self.candidate_generator(prepared)
            span.annotate(pairs=len(candidates))
            _CANDIDATES_GENERATED.inc(len(candidates))
            return candidates

    def compare_candidates(
        self, prepared: Dataset, candidates: Iterable[Pair]
    ) -> Sequence[SimilarityVector]:
        """Step 3 — similarity vectors of the candidate pairs.

        Candidates are visited in sorted order, so vector/score lists —
        and everything derived from them (stored experiments, cache
        digests) — are byte-identical across runs and hash seeds.
        ``prepared`` only needs item access by record id, which lets
        the streaming subsystem reuse this stage over its live record
        registry without materializing a :class:`Dataset`.
        :class:`~repro.columnar.RowPairs` are scored on the store they
        index; other candidates on the layout of ``prepared`` if
        :meth:`generate_candidates` built one.

        Kernel-scored candidates come back as a
        :class:`~repro.columnar.PairBatch` (score lanes read as a lazy
        sequence of vectors); a comparator without a kernel plan is
        scored by the serial row loop into a list.

        Scoring runs in this process (:mod:`repro.matching.comparison`).
        Pairs whose records were deleted between blocking and scoring
        are skipped with a warning instead of raising ``KeyError``.
        """
        with _tracing.span("pipeline.similarity") as span:
            vectors, missing = score_candidates(
                prepared,
                candidates,
                self.comparator,
                # ad-hoc mappings and unblocked datasets pass None, and
                # the comparison stage interns just the touched records
                store=(
                    candidates.store if isinstance(candidates, RowPairs)
                    else getattr(prepared, "_columnar_store", None)
                ),
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
        match is built once, in sorted pair order.  The experiment then
        carries that clustering, and computes its content digest from
        the clustering's lanes when first asked.  Other clustering
        algorithms receive the accepted :class:`ScoredPair` objects.
        """
        with _tracing.span(
            "pipeline.clustering", scored=len(scored_pairs)
        ) as span:
            carried = digest_rows = None
            if (
                isinstance(scored_pairs, ScoredBatch)
                and self.clustering is connected_components
            ):
                accepted_mask = scored_pairs.scores >= self.threshold
                clustering, matches, lanes = closure_matches(
                    scored_pairs, accepted_mask
                )
                accepted_count = int(accepted_mask.sum())
                carried, digest_rows = clustering, lanes.digest_rows
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
            experiment = Experiment._assembled(
                matches,
                name=self.name,
                solution=self.solution,
                metadata={"threshold": self.threshold},
                clustering=carried,
                digest_rows=digest_rows,
            )
            return clustering, experiment

    def run(self, dataset: Dataset) -> PipelineRun:
        """Execute all pipeline steps on ``dataset``.

        ``stage_seconds`` and the experiment's ``runtime_seconds``
        metadata are the stage spans' seconds, read off the children of
        this run's ``pipeline.run`` span (their sum, for the runtime).
        """
        with _tracing.span(
            "pipeline.run", pipeline=self.name, records=len(dataset)
        ) as run_span:
            prepared = self.prepare(dataset)
            candidates = self.generate_candidates(prepared)
            vectors = self.compare_candidates(prepared, candidates)
            scored_pairs = self.score_vectors(vectors)
            clustering, experiment = self._cluster(scored_pairs)
            fused = None
            if self.fuse:
                with _tracing.span("pipeline.fusion"):
                    fused = fuse_dataset(
                        dataset, clustering, strategies=self.fusion_strategies
                    )
        stage_seconds = {
            _STAGE_KEYS[stage.name]: stage.seconds
            for stage in run_span.children
            if stage.name in _STAGE_KEYS
        }
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

    def with_blocker(self, candidate_generator: CandidateGenerator) -> "MatchingPipeline":
        """A shallow copy running a different candidate generator.

        This **changes the output**, so it also changes
        :meth:`config_fingerprint` (the generator is part of the
        token): the engine's result cache distinguishes a token-blocked
        run from an LSH-blocked run of the same pipeline, and two LSH
        configs from each other — provided the generator exposes a
        ``config_fingerprint`` (as :class:`~repro.matching.lsh.LshBlocking`
        does) or is a named module-level function.
        """
        clone = copy.copy(self)
        clone.candidate_generator = candidate_generator
        return clone

    def config_fingerprint(self) -> dict[str, object]:
        """Content token of this pipeline's configuration.

        Used by :mod:`repro.engine` to content-address pipeline job
        results.  Callables are tokenized by qualified name, so custom
        steps should be module-level functions (not lambdas closing
        over differing constants).
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
