"""Parallel job scheduler with dependency ordering and caching.

:class:`ExperimentEngine` executes :class:`~repro.engine.jobs.JobSpec`
objects on a ``concurrent.futures`` thread pool:

* **dependency ordering** — a job runs only after all jobs in its
  ``depends_on`` have succeeded; dependency values are handed to the
  handler in declaration order;
* **failure isolation** — an exception fails only its own job;
  transitive dependents are marked ``skipped``, unrelated jobs keep
  running;
* **progress tracking / cancellation** — :meth:`status`,
  :meth:`progress`, and :meth:`cancel` observe and prune the queue
  while it drains;
* **content-addressed caching** — cacheable jobs consult a
  :class:`~repro.engine.cache.ResultCache` keyed by dataset + config +
  gold content before computing, so identical re-runs (the exploration
  hot path) cost a hash lookup instead of a recomputation;
* **timing** — each job runs in an ``engine.job`` span, nested under the
  span that submitted it, and :attr:`JobResult.seconds` is that span's
  seconds.  The handler's computation runs in a child span named after
  the kind (``engine.metrics``, ``engine.pipeline``, ...), next to
  ``engine.cache_key``, ``engine.encode`` and ``engine.after`` (the
  handler's hook, run on computed and cache-served jobs alike).

Built-in job kinds:

``metrics``
    N-metrics table.  Params: ``dataset``, ``gold``, optional
    ``experiments`` (names), ``metrics`` (names), ``threshold``
    (evaluate ``score >= threshold`` subsets).
``diagram``
    Metric/metric diagram points.  Params: ``dataset``, ``experiment``,
    ``gold``, optional ``samples``.
``pipeline``
    Run a :class:`~repro.matching.pipeline.MatchingPipeline` on a
    registered dataset and register the resulting experiment — the
    live one it computed, or one rebuilt from the cached payload when
    the result is served from cache.  Params:
    ``pipeline``, ``dataset``, optional ``register`` / ``register_as``,
    optional ``blocker`` (a JSON key config such as ``{"kind": "lsh",
    "bands": 16}`` swapping the candidate generator per job — part of
    the cache token, because different blockers produce different
    results).  Other params are ignored and stay out of the cache
    token, so a job still sending a retired execution param
    (``workers``, ``shards``, ``blocking_storage``) shares the plain
    job's cache entry.
``stream_ingest``
    Fold one record batch into a live
    :class:`~repro.streaming.StreamingMatcher`.  Params: ``session``,
    ``records`` (a sequence of :class:`Record` objects or JSON rows
    with an ``"id"`` key).  Returns the new snapshot summary.  Never
    cached — an ingest mutates session state, so serving it from cache
    would silently drop the batch; chain batches with ``depends_on``
    when their ingest order matters.
"""

from __future__ import annotations

import concurrent.futures
import logging
import threading
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.confusion import ConfusionMatrix
from repro.core.experiment import Experiment, Match, collector_paused
from repro.core.platform import FrostPlatform
from repro.engine.cache import MISS, ResultCache
from repro.engine.jobs import (
    JobResult,
    JobSpec,
    JobState,
    job_cache_key,
    next_job_id,
)
from repro.storage.database import FrostStore
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import get_tracer

if TYPE_CHECKING:
    from repro.matching.pipeline import PipelineRun

__all__ = ["ExperimentEngine", "EngineError", "serialize_experiment"]

# Process-wide mirrors of the per-engine counters, feeding GET /metrics.
_LOG = logging.getLogger("repro.engine")

_JOBS_COMPUTED = get_metrics().counter(
    "frost_engine_jobs_computed_total", "Engine jobs executed by a handler"
)
_JOBS_CACHED = get_metrics().counter(
    "frost_engine_jobs_cached_total", "Engine jobs served from the result cache"
)
_JOBS_FAILED = get_metrics().counter(
    "frost_engine_jobs_failed_total", "Engine jobs that raised"
)
_JOB_SECONDS = get_metrics().histogram(
    "frost_engine_job_seconds", "Wall time of executed engine jobs"
)

_TERMINAL = frozenset(
    {JobState.SUCCEEDED, JobState.FAILED, JobState.SKIPPED, JobState.CANCELLED}
)
_BROKEN = frozenset({JobState.FAILED, JobState.SKIPPED, JobState.CANCELLED})


class EngineError(RuntimeError):
    """Raised for engine-level misuse (unknown kinds, ids, cycles)."""


@dataclass(frozen=True)
class JobHandler:
    """How the engine executes one job kind.

    ``compute(params, inputs)`` produces the job value; ``token``
    (optional) maps params to a content token for cache-key hashing —
    handlers without one are never cached; ``encode`` (optional) turns
    a computed value into the JSON payload that is cached and reported
    as the job's value; ``after`` (optional) runs on both computed and
    cache-served jobs, e.g. to register a pipeline result on the
    platform — it receives the computed value itself, or the cached
    payload when ``cached`` is true.
    """

    compute: Callable[[Mapping[str, object], Sequence[object]], object]
    token: Callable[[Mapping[str, object]], object] | None = None
    after: Callable[[Mapping[str, object], object, bool], None] | None = None
    encode: Callable[[object], object] | None = None


class _Entry:
    __slots__ = ("spec", "result", "done", "scheduled", "ctx")

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.result = JobResult(job_id=spec.job_id, spec=spec)
        self.done = threading.Event()
        # Claimed by the scheduler (future created).  The job stays
        # PENDING until a worker actually starts it, so queued jobs
        # remain cancellable.
        self.scheduled = False
        # Span context captured at submit time: the worker thread
        # activates it so the job's span nests under the submitter's.
        self.ctx = get_tracer().context()

    def settle(self) -> None:
        """Mark the job terminal; a finished job holds no span."""
        self.ctx = None
        self.done.set()


def serialize_experiment(experiment: Experiment) -> dict[str, object]:
    """JSON document capturing an experiment (cacheable pipeline output)."""
    with collector_paused():
        matches = [
            [match.pair[0], match.pair[1], match.score, match.from_clustering]
            for match in experiment
        ]
    return {
        "name": experiment.name,
        "solution": experiment.solution,
        "metadata": dict(experiment.metadata),
        "matches": matches,
    }


def _pipeline_payload(run: PipelineRun) -> dict[str, object]:
    """The cached ``pipeline`` job value: experiment plus stage timings."""
    payload = serialize_experiment(run.experiment)
    payload["stage_seconds"] = dict(run.stage_seconds)
    return payload


def deserialize_experiment(payload: Mapping[str, object]) -> Experiment:
    """Rebuild an :class:`Experiment` from :func:`serialize_experiment`."""
    with collector_paused():
        return Experiment(
            (
                Match(
                    pair=(first, second), score=score, from_clustering=bool(flag)
                )
                for first, second, score, flag in payload["matches"]
            ),
            name=payload["name"],
            solution=payload.get("solution"),
            metadata=payload.get("metadata") or {},
        )


class ExperimentEngine:
    """Schedule, cache, and track experiment jobs over a platform.

    Parameters
    ----------
    platform:
        The :class:`FrostPlatform` holding datasets, golds, and
        experiments that job params refer to by name.
    store:
        Optional :class:`FrostStore`; when given, cached results
        persist in its ``result_cache`` table across processes.
    max_workers:
        Thread-pool width for independent jobs.
    max_history:
        Bound on retained job records: once exceeded, the oldest
        terminal jobs (and their payloads) are dropped at submit time,
        so a long-running server does not grow without bound.  Jobs
        that non-terminal jobs depend on are never dropped.
    """

    def __init__(
        self,
        platform: FrostPlatform,
        store: FrostStore | None = None,
        max_workers: int = 4,
        max_history: int = 4096,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        if max_history < 1:
            raise ValueError("max_history must be positive")
        self.platform = platform
        self.max_workers = max_workers
        self.max_history = max_history
        self.cache = ResultCache(store=store)
        self._entries: dict[str, _Entry] = {}
        self._lock = threading.RLock()
        self._drain_thread: threading.Thread | None = None
        self.computed_jobs = 0
        self.cached_jobs = 0
        self._handlers: dict[str, JobHandler] = {
            "metrics": JobHandler(
                compute=self._compute_metrics, token=self._metrics_token
            ),
            "diagram": JobHandler(
                compute=self._compute_diagram, token=self._diagram_token
            ),
            "pipeline": JobHandler(
                compute=self._compute_pipeline,
                token=self._pipeline_token,
                after=self._register_pipeline_result,
                encode=_pipeline_payload,
            ),
            # no token: stateful, must never be served from cache
            "stream_ingest": JobHandler(compute=self._compute_stream_ingest),
        }

    # -- registration -------------------------------------------------------------

    def register_handler(
        self, kind: str, handler: JobHandler, replace: bool = False
    ) -> None:
        """Register a custom job kind (the engine's extensibility point)."""
        if kind in self._handlers and not replace:
            raise EngineError(f"job kind {kind!r} is already registered")
        self._handlers[kind] = handler

    def submit(self, spec: JobSpec) -> str:
        """Queue one job; returns its (possibly auto-assigned) id.

        Dependencies must already be submitted, which also guarantees
        the job graph stays acyclic.
        """
        if spec.kind not in self._handlers:
            known = ", ".join(sorted(self._handlers))
            raise EngineError(f"unknown job kind {spec.kind!r}; known: {known}")
        with self._lock:
            job_id = spec.job_id or next_job_id(spec.kind)
            if job_id in self._entries:
                raise EngineError(f"duplicate job id {job_id!r}")
            for dependency in spec.depends_on:
                if dependency not in self._entries:
                    raise EngineError(
                        f"job {job_id!r} depends on unknown job {dependency!r}"
                    )
            if spec.job_id != job_id or not spec.job_id:
                spec = JobSpec(
                    kind=spec.kind,
                    params=spec.params,
                    job_id=job_id,
                    depends_on=spec.depends_on,
                    cacheable=spec.cacheable,
                )
            entry = _Entry(spec)
            self._entries[job_id] = entry
            self._prune_history()
        return job_id

    def _prune_history(self) -> None:
        """Drop the oldest terminal job records beyond ``max_history``.

        Called with the lock held.  Records that a non-terminal job
        depends on stay, so dependency values remain resolvable.
        """
        excess = len(self._entries) - self.max_history
        if excess <= 0:
            return
        pinned: set[str] = set()
        for entry in self._entries.values():
            if entry.result.state not in _TERMINAL:
                pinned.update(entry.spec.depends_on)
        for job_id in [
            job_id
            for job_id, entry in self._entries.items()
            if entry.result.state in _TERMINAL and job_id not in pinned
        ][:excess]:
            del self._entries[job_id]

    def submit_all(self, specs: Sequence[JobSpec]) -> list[str]:
        """Queue a batch atomically: either every spec enqueues or none.

        Validation (known kinds, unique ids, resolvable dependencies —
        batch-internal ids count) happens before the first submit, so a
        bad spec cannot leave earlier specs of the batch behind to
        poison a retry with duplicate-id errors.
        """
        specs = list(specs)
        with self._lock:
            batch_ids: set[str] = set()
            for spec in specs:
                if spec.kind not in self._handlers:
                    known = ", ".join(sorted(self._handlers))
                    raise EngineError(
                        f"unknown job kind {spec.kind!r}; known: {known}"
                    )
                if spec.job_id:
                    if spec.job_id in self._entries or spec.job_id in batch_ids:
                        raise EngineError(f"duplicate job id {spec.job_id!r}")
                for dependency in spec.depends_on:
                    if (
                        dependency not in self._entries
                        and dependency not in batch_ids
                    ):
                        raise EngineError(
                            f"job {spec.job_id or spec.kind!r} depends on "
                            f"unknown job {dependency!r}"
                        )
                if spec.job_id:
                    batch_ids.add(spec.job_id)
            return [self.submit(spec) for spec in specs]

    def sweep(
        self, base: JobSpec, parameter: str, values: Iterable[object]
    ) -> list[str]:
        """Submit a batch parameter sweep; returns the fanned-out ids."""
        from repro.engine.jobs import expand_sweep

        return self.submit_all(expand_sweep(base, parameter, values))

    # -- execution ----------------------------------------------------------------

    def run(
        self, specs: Iterable[JobSpec] | None = None, wait: bool = True
    ) -> dict[str, JobResult]:
        """Submit ``specs`` (if any), drain the queue, return results.

        With ``wait=False`` the queue drains on a background thread and
        the returned results may still be pending — poll :meth:`status`
        or :meth:`join`.
        """
        ids = [self.submit(spec) for spec in specs] if specs is not None else None
        self.start()
        if wait:
            self.join(ids)
        with self._lock:
            selected = ids if ids is not None else list(self._entries)
            return {job_id: self._entries[job_id].result for job_id in selected}

    def start(self) -> None:
        """Ensure a background drain thread is processing the queue."""
        with self._lock:
            if self._drain_thread is not None and self._drain_thread.is_alive():
                return
            self._drain_thread = threading.Thread(
                target=self._drain, name="frost-engine", daemon=True
            )
            self._drain_thread.start()

    def join(
        self, job_ids: Sequence[str] | None = None, timeout: float | None = None
    ) -> bool:
        """Block until the given (default: all) jobs are terminal."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            entries = [
                self._entries[job_id]
                for job_id in (job_ids if job_ids is not None else self._entries)
            ]
        for entry in entries:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not entry.done.wait(remaining):
                return False
        return True

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that has not started executing yet.

        Pending jobs — including jobs already queued behind busy
        workers — are cancelled; jobs a worker is executing are not
        interrupted.  Dependents are skipped when the scheduler
        reaches them.
        """
        with self._lock:
            entry = self._entries.get(job_id)
            if entry is None:
                raise EngineError(f"unknown job {job_id!r}")
            if entry.result.state is not JobState.PENDING:
                return False
            entry.result.state = JobState.CANCELLED
            entry.settle()
            return True

    # -- introspection ------------------------------------------------------------

    def result(self, job_id: str) -> JobResult:
        """The (possibly non-terminal) result of one job."""
        with self._lock:
            try:
                return self._entries[job_id].result
            except KeyError:
                raise EngineError(f"unknown job {job_id!r}") from None

    def status(self) -> list[dict[str, object]]:
        """Submission-ordered JSON-serializable job summaries."""
        with self._lock:
            return [entry.result.as_dict() for entry in self._entries.values()]

    def progress(self) -> dict[str, object]:
        """Aggregate queue progress plus cache statistics."""
        with self._lock:
            states = [entry.result.state for entry in self._entries.values()]
        summary: dict[str, object] = {
            "total": len(states),
            "done": sum(state in _TERMINAL for state in states),
        }
        for state in JobState:
            summary[state.value] = sum(s is state for s in states)
        summary["cache"] = self.cache.stats()
        return summary

    # -- scheduler ----------------------------------------------------------------

    def _claim_ready(self) -> list[_Entry]:
        """Claim and return runnable jobs; skip those with broken deps."""
        ready: list[_Entry] = []
        with self._lock:
            for entry in self._entries.values():
                if entry.result.state is not JobState.PENDING or entry.scheduled:
                    continue
                dep_states = [
                    self._entries[dep].result.state for dep in entry.spec.depends_on
                ]
                if any(state in _BROKEN for state in dep_states):
                    entry.result.state = JobState.SKIPPED
                    entry.result.error = "dependency failed or was cancelled"
                    entry.settle()
                elif all(state is JobState.SUCCEEDED for state in dep_states):
                    entry.scheduled = True
                    ready.append(entry)
        return ready

    def _has_pending(self) -> bool:
        with self._lock:
            return any(
                entry.result.state is JobState.PENDING
                for entry in self._entries.values()
            )

    def _drain(self) -> None:
        try:
            self._drain_loop()
        finally:
            with self._lock:
                self._drain_thread = None
            if self._has_pending():
                self.start()  # jobs submitted while the pool was closing

    def _drain_loop(self) -> None:
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_workers
        ) as pool:
            futures: dict[concurrent.futures.Future, _Entry] = {}
            while True:
                for entry in self._claim_ready():
                    try:
                        futures[pool.submit(self._execute, entry)] = entry
                    except RuntimeError:
                        # The pool is tearing down under us (interpreter
                        # shutdown): un-claim so a later drain can run it.
                        with self._lock:
                            entry.scheduled = False
                        return
                if not futures:
                    if self._has_pending():
                        continue  # a skip pass may have unblocked claims
                    break
                # The timeout bounds the latency of jobs submitted while
                # the pool is busy: without it, a fresh independent job
                # would wait for a running future to finish even with
                # idle workers.
                done, _ = concurrent.futures.wait(
                    futures,
                    timeout=0.05,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in done:
                    entry = futures.pop(future)
                    self._finish(entry, future)

    def _finish(self, entry: _Entry, future: concurrent.futures.Future) -> None:
        result = entry.result
        error = future.exception()
        with self._lock:
            if result.state is JobState.CANCELLED:
                pass  # cancelled while queued; _execute did nothing
            elif error is not None:
                result.state = JobState.FAILED
                result.error = f"{type(error).__name__}: {error}"
                self.computed_jobs += 1
                _JOBS_FAILED.inc()
                _JOB_SECONDS.observe(result.seconds)
            else:
                result.state = JobState.SUCCEEDED
                if result.cached:
                    self.cached_jobs += 1
                    _JOBS_CACHED.inc()
                else:
                    self.computed_jobs += 1
                    _JOBS_COMPUTED.inc()
                _JOB_SECONDS.observe(result.seconds)
        entry.settle()

    def _execute(self, entry: _Entry) -> None:
        spec = entry.spec
        handler = self._handlers[spec.kind]
        with self._lock:
            if entry.result.state is not JobState.PENDING:
                return  # cancelled while queued behind busy workers
            entry.result.state = JobState.RUNNING
            inputs = [
                self._entries[dep].result.value for dep in spec.depends_on
            ]
        tracer = get_tracer()
        try:
            # Activate the context captured at submit time so the job's
            # span nests under the submitting thread's span tree even
            # though it runs on a pool worker.
            with tracer.activate(entry.ctx), tracer.span(
                "engine.job", job=spec.job_id, kind=spec.kind
            ) as job_span:
                value = MISS
                if spec.cacheable and handler.token is not None:
                    with tracer.span("engine.cache_key"):
                        entry.result.cache_key = job_cache_key(
                            spec.kind, handler.token(spec.params)
                        )
                    value = self.cache.get(entry.result.cache_key)
                if value is not MISS:
                    entry.result.cached = True
                    computed = value
                else:
                    with tracer.span(f"engine.{spec.kind}"):
                        computed = handler.compute(spec.params, inputs)
                    value = computed
                    if handler.encode is not None:
                        with tracer.span("engine.encode"):
                            value = handler.encode(computed)
                    if entry.result.cache_key is not None:
                        self.cache.put(entry.result.cache_key, spec.kind, value)
                job_span.annotate(cached=entry.result.cached)
                if handler.after is not None:
                    with tracer.span("engine.after"):
                        handler.after(spec.params, computed, entry.result.cached)
                entry.result.value = value
        finally:
            # the span closed with the job, failed or not
            entry.result.seconds = job_span.seconds
        # logged after the span closes: log handlers are not job time
        _LOG.debug(
            "job %s (%s) %s",
            spec.job_id,
            spec.kind,
            "served from cache" if entry.result.cached else "computed",
        )

    # -- built-in handlers --------------------------------------------------------

    def _resolve_experiments(
        self, dataset_name: str, names: Sequence[str] | None
    ) -> list[str]:
        if names is not None:
            return list(names)
        return self.platform.experiment_names(dataset_name)

    # The job tokens pair each name the payload prints with the content
    # it names: equal contents under another name must not hit.

    def _metrics_token(self, params: Mapping[str, object]) -> object:
        dataset_name = params["dataset"]
        gold_name = params["gold"]
        names = self._resolve_experiments(dataset_name, params.get("experiments"))
        return {
            "dataset": [dataset_name, self.platform.dataset(dataset_name)],
            "gold": [gold_name, self.platform.gold(dataset_name, gold_name)],
            "experiments": [
                [name, self.platform.experiment(dataset_name, name)]
                for name in names
            ],
            "metrics": params.get("metrics"),
            "threshold": params.get("threshold"),
        }

    def _compute_metrics(
        self, params: Mapping[str, object], inputs: Sequence[object]
    ) -> dict[str, object]:
        from repro.metrics.registry import default_registry

        dataset_name = params["dataset"]
        gold_name = params["gold"]
        names = self._resolve_experiments(dataset_name, params.get("experiments"))
        metric_names = params.get("metrics")
        threshold = params.get("threshold")
        if threshold is None:
            table = self.platform.metrics_table(
                dataset_name, gold_name, names, metric_names
            )
        else:
            dataset = self.platform.dataset(dataset_name)
            gold = self.platform.gold(dataset_name, gold_name)
            registry = default_registry()
            table = {}
            for name in names:
                subset = self.platform.experiment(
                    dataset_name, name
                ).threshold_subset(float(threshold))
                matrix = ConfusionMatrix.from_clusterings(
                    subset.clustering(), gold.clustering, dataset.total_pairs()
                )
                table[name] = registry.evaluate(matrix, metric_names)
        return {
            "dataset": dataset_name,
            "gold": gold_name,
            "threshold": threshold,
            "metrics": table,
        }

    def _diagram_token(self, params: Mapping[str, object]) -> object:
        dataset_name = params["dataset"]
        experiment_name = params["experiment"]
        gold_name = params["gold"]
        return {
            "dataset": [dataset_name, self.platform.dataset(dataset_name)],
            "experiment": [
                experiment_name,
                self.platform.experiment(dataset_name, experiment_name),
            ],
            "gold": [gold_name, self.platform.gold(dataset_name, gold_name)],
            "samples": int(params.get("samples", 100)),
        }

    def _compute_diagram(
        self, params: Mapping[str, object], inputs: Sequence[object]
    ) -> dict[str, object]:
        samples = int(params.get("samples", 100))
        points = self.platform.diagram(
            params["dataset"], params["experiment"], params["gold"], samples=samples
        )
        return {
            "dataset": params["dataset"],
            "experiment": params["experiment"],
            "gold": params["gold"],
            "points": [point.as_dict() for point in points],
        }

    def _pipeline_token(self, params: Mapping[str, object]) -> object:
        # The blocker override is part of the fingerprinted pipeline
        # (with_blocker changes the candidate_generator token), so the
        # cache distinguishes runs with different blocker configs.
        return {
            "dataset": self.platform.dataset(params["dataset"]),
            "pipeline": self._selected_pipeline(params).config_fingerprint(),
            "register_as": params.get("register_as"),
        }

    @staticmethod
    def _selected_pipeline(params: Mapping[str, object]):
        """The job's pipeline with any ``blocker`` config applied.

        ``blocker`` is a JSON key config (``{"kind": "lsh", "bands":
        16, ...}``, see :mod:`repro.streaming.config`) — the wire-safe
        way to vary candidate generation per job without shipping
        Python objects.
        """
        pipeline = params["pipeline"]
        blocker = params.get("blocker")
        if blocker is None:
            return pipeline
        from repro.streaming.config import candidate_generator_from_key

        return pipeline.with_blocker(candidate_generator_from_key(blocker))

    def _compute_pipeline(
        self, params: Mapping[str, object], inputs: Sequence[object]
    ) -> PipelineRun:
        pipeline = self._selected_pipeline(params)
        return pipeline.run(self.platform.dataset(params["dataset"]))

    def _register_pipeline_result(
        self, params: Mapping[str, object], value: object, cached: bool
    ) -> None:
        """Register the job's experiment on the platform.

        A computed job registers the live experiment of its run; only a
        cache-served payload is deserialized.
        """
        if not params.get("register", True):
            return
        dataset_name = params["dataset"]
        if cached:
            experiment = deserialize_experiment(value)
        else:
            experiment = value.experiment
        register_as = params.get("register_as")
        if register_as:
            experiment.name = register_as
        if experiment.name in self.platform.experiment_names(dataset_name):
            return  # idempotent re-runs: first registration wins
        self.platform.add_experiment(dataset_name, experiment)

    def _compute_stream_ingest(
        self, params: Mapping[str, object], inputs: Sequence[object]
    ) -> dict[str, object]:
        from repro.streaming.session import coerce_records

        session = params["session"]
        records = coerce_records(params["records"])
        snapshot = session.ingest(records)
        return {"stream": session.name, **snapshot.as_dict()}
