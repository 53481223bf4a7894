"""REST-style JSON API over the platform (Appendix A.4).

Snowman's front-end and third parties talk to its back-end through an
OpenAPI-specified REST API; "all functionality included within the
front-end [is] also made available through the API".  We mirror the
route structure as a transport-agnostic dispatcher
(:class:`FrostApi.handle`) plus a stdlib HTTP server wrapper in
:mod:`repro.server.http` — no web framework required, matching the
paper's no-external-dependencies constraint.

Routes (all return JSON-serializable dictionaries):

=============================================  =====================================
``GET /datasets``                              dataset names
``GET /datasets/{d}``                          dataset summary
``GET /datasets/{d}/records``                  records (paginated)
``GET /datasets/{d}/experiments``              experiment names
``GET /datasets/{d}/experiments/{e}``          experiment summary
``GET /datasets/{d}/golds``                    gold-standard names
``GET /datasets/{d}/metrics?gold=&exps=``      N-metrics table
``GET /datasets/{d}/diagram?exp=&gold=&n=``    metric/metric diagram points
``GET /datasets/{d}/intersection?include=&exclude=``  set-comparison selection
``GET /datasets/{d}/profile``                  profiling metrics (§3.1.3)
``GET /datasets/{d}/categorize?exp=&gold=``    error categorization (§7)
``GET /datasets/{d}/timeline?exp=&gold=&high=&low=``  new TP/FP in a threshold range
``GET /stats``                                 serving-layer cache/coalescing counters
``GET /metrics``                               Prometheus text (HTTP layer only)
``GET /graph``                                 stored match-graph names
``GET /graph/{g}``                             graph summary (nodes/edges/components)
``GET /graph/{g}/neighbors?record=&k=&threshold=``  k-hop BFS neighborhood
``GET /graph/{g}/path?from=&to=&threshold=``   fewest-hops path (found: false if none)
``GET /graph/{g}/components?limit=``           components, largest first
``GET /graph/{g}/component?record=``           one record's component drill-down
``GET /graph/{g}/explain?from=&to=``           max-min-score evidence path
``POST /jobs``                                 submit engine jobs (optionally a sweep)
``GET /jobs``                                  all job statuses + cache stats
``GET /jobs/{id}``                             one job's status and result
``POST /streams``                              create a streaming matching session
``POST /streams/{s}/batches``                  ingest a record batch (delta matching)
``GET /streams``                               stream names
``GET /streams/{s}``                           session status + snapshot lineage
=============================================  =====================================

The ``/jobs`` routes are served by the execution engine
(:mod:`repro.engine`): submitted jobs run on a worker pool and identical
re-submissions are answered from the content-addressed result cache.
The ``/streams`` routes front the incremental streaming subsystem
(:mod:`repro.streaming`): each batch POST runs as a ``stream_ingest``
engine job and returns the new versioned clustering snapshot; the
stream's JSON config is described in :mod:`repro.streaming.config`.
Its ``"key"`` may select approximate MinHash-LSH blocking
(``{"kind": "lsh", "num_perm": 128, "bands": 32}``, see
:mod:`repro.matching.lsh`);
malformed blocker configs — unknown keys, non-integer values, bands
that do not divide the permutation count, windowed schemes with no
delta decomposition — are rejected as 400s at creation time, never as
failed ingests later.  A request that finds the store unavailable —
closed, write-locked by another connection past its busy timeout, or
full — gets a 503 with a ``Retry-After`` header instead of a 400 or
500: the request was fine, and may succeed later.

Expensive GET evaluations (metrics, diagram, profile, categorize,
timeline, intersection) are served through the concurrent serving
layer (:mod:`repro.serving`): payloads are cached read-through under
a key naming every input they read (names and content fingerprints),
so a registry write changes the key of each payload it affects, and
concurrent identical requests coalesce into one computation.
``GET /stats`` exposes the cache and coalescing counters.

The ``/graph`` routes front the match-graph subsystem
(:mod:`repro.graph`): graphs persisted in the store's adjacency tables
— by pipeline builds or incrementally by streaming sessions with
``"graph": true`` — are served through the same read-through cache,
keyed on the graph's meta row, which every graph write (e.g. a stream
batch) moves.
"""

from __future__ import annotations

import re
import sqlite3
import threading
from collections.abc import Mapping

from repro.core.platform import FrostPlatform
from repro.serving.service import ServingLayer
from repro.storage.database import StorageError
from repro.telemetry import current_request_id, get_metrics, render_prometheus

__all__ = ["ApiError", "FrostApi"]

# Job kinds accepted over the wire; pipeline jobs carry Python objects
# and are only available through the Python/CLI surface.
_API_JOB_KINDS = frozenset({"metrics", "diagram"})


# Seconds a client is asked to wait (``Retry-After``) before retrying
# a request that found the store unavailable.
RETRY_AFTER_SECONDS = 1


class ApiError(Exception):
    """An API-level error with an HTTP-ish status code.

    ``retry_after`` (seconds), when set, is sent as the response's
    ``Retry-After`` header.
    """

    def __init__(
        self, status: int, message: str, retry_after: int | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


def _store_unavailable(error: str) -> ApiError | None:
    """The 503 answering a ``"Type: message"`` error, if it is one.

    An unavailable store was closed, had its write lock held by another
    connection past the busy timeout, or is full.
    """
    if not re.match(
        r"StorageError: store .* is closed$"
        r"|OperationalError: database is locked"
        r"|OperationalError: database or disk is full",
        error,
    ):
        return None
    return ApiError(503, error, retry_after=RETRY_AFTER_SECONDS)


class FrostApi:
    """Transport-agnostic request dispatcher over a platform instance.

    Parameters
    ----------
    platform:
        The registry the evaluations read from.
    engine:
        Optional pre-configured
        :class:`~repro.engine.runner.ExperimentEngine` serving the
        ``/jobs`` routes; created lazily (in-memory cache only) when
        omitted.
    store:
        Optional :class:`~repro.storage.database.FrostStore`.  When
        given, streams created via ``POST /streams`` are durable (their
        state persists and can be resumed in later processes);
        otherwise sessions live only in this API instance.
    serving:
        Optional pre-configured
        :class:`~repro.serving.service.ServingLayer`; created over
        ``platform`` (with its default capacity) when omitted.  All
        expensive GET evaluations route through it.
    """

    def __init__(
        self,
        platform: FrostPlatform,
        engine=None,
        store=None,
        serving: ServingLayer | None = None,
    ) -> None:
        self.platform = platform
        self._engine = engine
        self._engine_lock = threading.Lock()
        self._store = store
        self._streams: dict[str, object] = {}
        self._streams_lock = threading.Lock()
        self.serving = (
            serving if serving is not None else ServingLayer(platform)
        )
        if store is not None:
            self.serving.attach_store(store)

    @property
    def engine(self):
        """The job engine behind ``/jobs`` (created on first use).

        Guarded by a lock: the threaded HTTP server may race two first
        requests, and jobs submitted to one engine must stay visible to
        every later request.
        """
        with self._engine_lock:
            if self._engine is None:
                from repro.engine.runner import ExperimentEngine

                self._engine = ExperimentEngine(self.platform)
            return self._engine

    def handle(
        self,
        path: str,
        query: Mapping[str, str] | None = None,
        method: str = "GET",
        body: object = None,
    ) -> object:
        """Dispatch a request path to the matching evaluation.

        ``method`` and ``body`` (a parsed JSON document) matter only
        for the ``POST /jobs`` route; everything else is GET.  Raises
        :class:`ApiError` with status 404 for unknown routes or names,
        400 for bad parameters and 503 when the store is unavailable.
        """
        query = dict(query or {})
        parts = [part for part in path.split("/") if part]
        try:
            return self._dispatch(parts, query, method.upper(), body)
        except KeyError as missing:
            raise ApiError(404, str(missing)) from None
        except ValueError as bad:
            raise ApiError(400, str(bad)) from None
        except (StorageError, sqlite3.OperationalError) as error:
            unavailable = _store_unavailable(f"{type(error).__name__}: {error}")
            if unavailable is None:
                raise
            raise unavailable from None

    def _dispatch(
        self, parts: list[str], query: dict[str, str], method: str, body: object
    ) -> object:
        if parts and parts[0] == "jobs":
            return self._jobs(parts[1:], query, method, body)
        if parts and parts[0] == "streams":
            return self._streams_route(parts[1:], query, method, body)
        if method != "GET":
            raise ApiError(405, f"{method} not allowed on /{'/'.join(parts)}")
        if parts == ["stats"]:
            return self._stats()
        if parts == ["healthz"]:
            return self.health()
        if parts == ["readyz"]:
            ready, payload = self.readiness()
            if not ready:
                failing = sorted(
                    name
                    for name, check in payload["checks"].items()
                    if not check.get("ok")
                )
                raise ApiError(503, f"not ready: {', '.join(failing)}")
            return payload
        if parts and parts[0] == "graph":
            return self._graph_routes(parts[1:], query)
        if parts == ["datasets"]:
            return {"datasets": self.platform.dataset_names()}
        if len(parts) >= 2 and parts[0] == "datasets":
            dataset_name = parts[1]
            rest = parts[2:]
            if not rest:
                return self._dataset_summary(dataset_name)
            if rest == ["records"]:
                return self._records(dataset_name, query)
            if rest == ["experiments"]:
                return {"experiments": self.platform.experiment_names(dataset_name)}
            if len(rest) == 2 and rest[0] == "experiments":
                return self._experiment_summary(dataset_name, rest[1])
            if rest == ["golds"]:
                return {"golds": self.platform.gold_names(dataset_name)}
            if rest == ["metrics"]:
                return self._metrics(dataset_name, query)
            if rest == ["diagram"]:
                return self._diagram(dataset_name, query)
            if rest == ["intersection"]:
                return self._intersection(dataset_name, query)
            if rest == ["profile"]:
                return self._profile(dataset_name)
            if rest == ["categorize"]:
                return self._categorize(dataset_name, query)
            if rest == ["timeline"]:
                return self._timeline(dataset_name, query)
        raise ApiError(404, f"unknown route /{'/'.join(parts)}")

    # -- handlers -----------------------------------------------------------------

    def _dataset_summary(self, dataset_name: str) -> dict:
        dataset = self.platform.dataset(dataset_name)
        return {
            "name": dataset.name,
            "records": len(dataset),
            "attributes": list(dataset.attributes),
            "experiments": self.platform.experiment_names(dataset_name),
            "golds": self.platform.gold_names(dataset_name),
        }

    def _records(self, dataset_name: str, query: dict[str, str]) -> dict:
        dataset = self.platform.dataset(dataset_name)
        offset = int(query.get("offset", "0"))
        limit = int(query.get("limit", "100"))
        if offset < 0 or limit < 0:
            raise ValueError("offset and limit must be non-negative")
        rows = []
        for numeric_id in range(offset, min(offset + limit, len(dataset))):
            record = dataset.by_numeric(numeric_id)
            rows.append({"id": record.record_id, **dict(record.values)})
        return {"total": len(dataset), "offset": offset, "records": rows}

    def _experiment_summary(self, dataset_name: str, experiment_name: str) -> dict:
        experiment = self.platform.experiment(dataset_name, experiment_name)
        return {
            "name": experiment.name,
            "solution": experiment.solution,
            "matches": len(experiment),
            "has_scores": experiment.has_scores(),
            "metadata": dict(experiment.metadata),
        }

    def _metrics(self, dataset_name: str, query: dict[str, str]) -> dict:
        gold_name = query.get("gold")
        if not gold_name:
            raise ValueError("metrics needs a 'gold' query parameter")
        experiments = (
            query["exps"].split(",") if query.get("exps") else None
        )
        metrics = query["metrics"].split(",") if query.get("metrics") else None
        return self.serving.metrics_payload(
            dataset_name, gold_name, experiments, metrics
        )

    def _diagram(self, dataset_name: str, query: dict[str, str]) -> dict:
        experiment_name = query.get("exp")
        gold_name = query.get("gold")
        if not experiment_name or not gold_name:
            raise ValueError("diagram needs 'exp' and 'gold' query parameters")
        samples = int(query.get("n", "100"))
        return self.serving.diagram_payload(
            dataset_name, experiment_name, gold_name, samples
        )

    def _profile(self, dataset_name: str) -> dict:
        return self.serving.profile_payload(dataset_name)

    def _categorize(self, dataset_name: str, query: dict[str, str]) -> dict:
        experiment_name = query.get("exp")
        gold_name = query.get("gold")
        if not experiment_name or not gold_name:
            raise ValueError("categorize needs 'exp' and 'gold' query parameters")
        limit = int(query["limit"]) if query.get("limit") else None
        return self.serving.categorize_payload(
            dataset_name, experiment_name, gold_name, limit
        )

    def _timeline(self, dataset_name: str, query: dict[str, str]) -> dict:
        experiment_name = query.get("exp")
        gold_name = query.get("gold")
        if not experiment_name or not gold_name:
            raise ValueError("timeline needs 'exp' and 'gold' query parameters")
        if "high" not in query or "low" not in query:
            raise ValueError("timeline needs 'high' and 'low' query parameters")
        high = float(query["high"])
        low = float(query["low"])
        return self.serving.timeline_payload(
            dataset_name, experiment_name, gold_name, high, low
        )

    def _intersection(self, dataset_name: str, query: dict[str, str]) -> dict:
        include = [name for name in query.get("include", "").split(",") if name]
        exclude = [name for name in query.get("exclude", "").split(",") if name]
        if not include:
            raise ValueError("intersection needs an 'include' query parameter")
        return self.serving.intersection_payload(dataset_name, include, exclude)

    # -- match graphs -------------------------------------------------------------

    def _graph_routes(self, rest: list[str], query: dict[str, str]) -> dict:
        if not rest:
            return {"graphs": self.serving.graph_names()}
        name = rest[0]
        tail = rest[1:]
        if not tail:
            return self.serving.graph_summary_payload(name)
        if tail == ["neighbors"]:
            record = query.get("record")
            if not record:
                raise ValueError("neighbors needs a 'record' query parameter")
            k = int(query.get("k", "1"))
            threshold = (
                float(query["threshold"]) if query.get("threshold") else None
            )
            return self.serving.graph_neighbors_payload(
                name, record, k, threshold
            )
        if tail == ["path"]:
            source, target = query.get("from"), query.get("to")
            if not source or not target:
                raise ValueError("path needs 'from' and 'to' query parameters")
            threshold = (
                float(query["threshold"]) if query.get("threshold") else None
            )
            return self.serving.graph_path_payload(
                name, source, target, threshold
            )
        if tail == ["components"]:
            limit = int(query["limit"]) if query.get("limit") else None
            return self.serving.graph_components_payload(name, limit)
        if tail == ["component"]:
            record = query.get("record")
            if not record:
                raise ValueError("component needs a 'record' query parameter")
            return self.serving.graph_component_payload(name, record)
        if tail == ["explain"]:
            source, target = query.get("from"), query.get("to")
            if not source or not target:
                raise ValueError(
                    "explain needs 'from' and 'to' query parameters"
                )
            return self.serving.graph_explain_payload(name, source, target)
        raise ApiError(404, f"unknown route /graph/{'/'.join(rest)}")

    def _stats(self) -> dict:
        """Serving/engine observability for load harnesses and operators."""
        with self._engine_lock:
            engine = self._engine
        return {
            "serving": self.serving.stats(),
            "engine": None if engine is None else engine.progress(),
            "datasets": len(self.platform.dataset_names()),
            "durable": self._store is not None,
            "metrics": get_metrics().values(),
            "request_id": current_request_id(),
        }

    # -- liveness / readiness ----------------------------------------------------

    def health(self) -> dict:
        """Liveness: the process is up and dispatching (``GET /healthz``)."""
        return {"status": "ok"}

    def readiness(self) -> tuple[bool, dict]:
        """Readiness: dependencies answer (``GET /readyz``).

        Returns ``(ready, payload)``; the HTTP layer maps ``ready`` to
        200 vs 503.  Checks the attached store (a trivial pragma read
        proves the SQLite file is reachable and not torn down) and the
        platform registry (dataset enumeration proves the serving
        layer's substrate answers), and reports the serving cache's
        warm-entry count.
        """
        checks: dict[str, dict] = {}
        if self._store is not None:
            try:
                checks["store"] = {
                    "ok": True,
                    "schema_version": self._store.schema_version,
                }
            except Exception as error:  # noqa: BLE001 - readiness boundary
                checks["store"] = {
                    "ok": False,
                    "error": f"{type(error).__name__}: {error}",
                }
        else:
            checks["store"] = {"ok": True, "durable": False}
        try:
            checks["platform"] = {
                "ok": True,
                "datasets": len(self.platform.dataset_names()),
            }
        except Exception as error:  # noqa: BLE001 - readiness boundary
            checks["platform"] = {
                "ok": False,
                "error": f"{type(error).__name__}: {error}",
            }
        stats = self.serving.stats()
        checks["serving_cache"] = {
            "ok": True,
            "entries": stats.get("cache", {}).get("entries", 0),
        }
        ready = all(check["ok"] for check in checks.values())
        return ready, {
            "status": "ready" if ready else "unavailable",
            "checks": checks,
        }

    def metrics_text(self) -> str:
        """The process-wide registry in Prometheus text exposition.

        Served by the HTTP layer as ``GET /metrics`` with a text/plain
        content type — the one route that does not return JSON.
        """
        return render_prometheus(get_metrics())

    # -- engine jobs --------------------------------------------------------------

    def _jobs(
        self, rest: list[str], query: dict[str, str], method: str, body: object
    ) -> object:
        from repro.engine.runner import EngineError

        try:
            if method == "POST" and not rest:
                return self._submit_jobs(query, body)
            if method == "GET" and not rest:
                return {
                    "jobs": self.engine.status(),
                    "progress": self.engine.progress(),
                }
            if method == "GET" and len(rest) == 1:
                return self._job_detail(rest[0])
        except EngineError as error:
            raise ApiError(404, str(error)) from None
        raise ApiError(405 if not rest else 404, "unsupported /jobs route")

    def _submit_jobs(self, query: dict[str, str], body: object) -> dict:
        from repro.engine.jobs import JobSpec, expand_sweep

        if not isinstance(body, Mapping):
            raise ValueError("POST /jobs needs a JSON object body")
        kind = body.get("kind")
        if kind not in _API_JOB_KINDS:
            allowed = ", ".join(sorted(_API_JOB_KINDS))
            raise ValueError(f"job kind must be one of: {allowed}")
        params = body.get("params") or {}
        if not isinstance(params, Mapping):
            raise ValueError("'params' must be a JSON object")
        base = JobSpec(
            kind=kind, params=params, job_id=str(body.get("id", "") or "")
        )
        sweep = body.get("sweep")
        if sweep is not None:
            if not isinstance(sweep, Mapping) or not sweep.get("parameter"):
                raise ValueError("'sweep' needs 'parameter' and 'values'")
            values = sweep.get("values")
            if not isinstance(values, list) or not values:
                raise ValueError("'sweep.values' must be a non-empty list")
            specs = expand_sweep(base, str(sweep["parameter"]), values)
        else:
            specs = [base]
        from repro.engine.runner import EngineError

        try:
            # atomic: a bad spec mid-batch must not enqueue earlier ones
            job_ids = self.engine.submit_all(specs)
        except EngineError as error:
            # duplicate ids / bad dependencies are client errors, not 404s
            raise ValueError(str(error)) from None
        self.engine.start()
        if query.get("wait") in ("1", "true", "yes"):
            self.engine.join(job_ids)
        return {
            "submitted": job_ids,
            "jobs": [self.engine.result(job_id).as_dict() for job_id in job_ids],
        }

    def _job_detail(self, job_id: str) -> dict:
        result = self.engine.result(job_id)
        detail = result.as_dict()
        if result.state.value == "succeeded":
            detail["result"] = result.value
        return detail

    # -- streaming sessions -------------------------------------------------------

    def _stream(self, name: str):
        with self._streams_lock:
            session = self._streams.get(name)
        if (
            session is None
            and self._store is not None
            and name in self._store.stream_names()
        ):
            # A durable stream created by an earlier process: resume it
            # *outside* the lock (a resume replays the full stream and
            # must not stall requests to other, already-loaded streams),
            # then publish double-checked — the first resume wins.
            from repro.streaming import open_session

            resumed = open_session(self._store, name)
            with self._streams_lock:
                session = self._streams.setdefault(name, resumed)
        if session is None:
            raise ApiError(404, f"no stream named {name!r}")
        return session

    def _streams_route(
        self, rest: list[str], query: dict[str, str], method: str, body: object
    ) -> object:
        if method == "POST" and not rest:
            return self._create_stream(body)
        if method == "POST" and len(rest) == 2 and rest[1] == "batches":
            return self._ingest_batch(rest[0], query, body)
        if method == "GET" and not rest:
            with self._streams_lock:
                names = set(self._streams)
            if self._store is not None:
                names.update(self._store.stream_names())
            return {"streams": sorted(names)}
        if method == "GET" and len(rest) == 1:
            return self._stream(rest[0]).status()
        raise ApiError(405 if not rest else 404, "unsupported /streams route")

    def _create_stream(self, body: object) -> dict:
        from repro.streaming import StreamError, build_session

        if not isinstance(body, Mapping):
            raise ValueError("POST /streams needs a JSON object body")
        name = str(body.get("name") or "")
        if not name or "/" in name:
            raise ValueError("'name' is required and must not contain '/'")
        config = body.get("config")
        with self._streams_lock:
            if name in self._streams:
                raise ValueError(f"stream {name!r} already exists")
            try:
                session = build_session(config, store=self._store, name=name)
            except StreamError as exists:
                raise ValueError(str(exists)) from None
            self._streams[name] = session
        return session.status()

    def _ingest_batch(
        self, name: str, query: dict[str, str], body: object
    ) -> dict:
        from repro.engine.jobs import JobSpec
        from repro.engine.runner import EngineError

        from repro.streaming import coerce_records

        session = self._stream(name)
        if not isinstance(body, Mapping) or not isinstance(
            body.get("records"), list
        ):
            raise ValueError(
                "POST /streams/{id}/batches needs a JSON body with a "
                "'records' list"
            )
        # validate the rows before they enter the worker pool, so a
        # malformed request is a 400 here instead of a failed job
        records = coerce_records(body["records"])
        spec = JobSpec(
            "stream_ingest",
            {"session": session, "records": records},
            job_id=str(body.get("job_id", "") or ""),
            cacheable=False,
        )
        try:
            job_id = self.engine.submit(spec)
        except EngineError as error:
            raise ValueError(str(error)) from None
        self.engine.start()
        self.engine.join([job_id])
        result = self.engine.result(job_id)
        if result.state.value != "succeeded":
            error = result.error or "stream ingest failed"
            unavailable = _store_unavailable(error)
            if unavailable is not None:
                raise unavailable
            # client-input failures (duplicate ids, malformed batches)
            # are 400s; anything else is a genuine server-side error
            client_errors = (
                "StreamError:", "ValueError:", "DatasetError:",
                "StorageError:",
            )
            if error.startswith(client_errors):
                raise ValueError(error)
            raise ApiError(500, error)
        return {"job": job_id, "snapshot": result.value}
