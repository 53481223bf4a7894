"""``explore_serve``: independent analysts exploring results over HTTP.

The server is ``python -m repro serve --store`` in its own process,
over a store holding a ~3k-record dataset, its gold standard, the
matcher's experiment and its fully scored experiment, two synthetic
scored experiments, a match graph built from the matcher's run, and a
durable stream with ``"graph": true``.  Load comes from this process
as an open loop at a fixed rate over at most ``nproc`` keep-alive
connections.  The schedule is a sequence of analyst sessions (see
:data:`SESSION`): repeated keys the serving cache answers (metrics,
profile, intersection), fresh keys that force a computation (diagram
sizes, timeline ranges, graph neighbourhoods and components of random
records, categorizations with a limit), ``/healthz`` for the HTTP
floor, and a stream batch write whose graph is read too, so writes
invalidate cached reads.  The work lands in ``server``, ``serving``,
``core``/``exploration`` and the ``graph`` read and write paths;
batch matching only runs during set-up.

Correctness: every answer must be a 2xx, and every body must equal the
payload ``FrostApi.handle`` returns in this process on a copy of the
same store, replayed at the graph version the server can have used.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlencode

from perfbench import harness, probes
from perfbench.harness import Latency, Outcome
from perfbench.loadgen import HttpSender, OpenLoop, Request
from perfbench.speed import SpeedSampler

HOST = "127.0.0.1"
STREAM = "live"
PIPELINE_GRAPH = "pipeline"
MATCHED = "pipeline"
SCORED = "pipeline-scored"
SYNTHETIC = ("synthetic-0", "synthetic-1")
# One analyst's exploration session: requests per kind, sent in an
# order shuffled by the seed.  The counts are chosen, not measured; no
# recorded analyst traffic exists.  A session opens each drill-down
# the server offers once, on a key nobody asked for before: a diagram
# size, a timeline range, an error categorization, the neighbourhood
# and the component of a random record on the matcher's graph, and one
# read of the live stream's graph ("live").  Between drill-downs the
# analyst goes back to the overview (metrics, profile, intersection:
# repeated keys the serving cache answers), three times per
# drill-down; a liveness probe comes about every tenth request; and
# the stream's feed posts one batch per session.  The median request
# is an overview read, the tail one of the drill-downs or writes, and
# the mean request latency moves with a slowdown of any kind by that
# kind's share of what the analysts wait.
SESSION = (
    ("metrics", 7),
    ("profile", 4),
    ("intersection", 7),
    ("healthz", 3),
    ("diagram", 1),
    ("timeline", 1),
    ("categorize", 1),
    ("neighbors", 1),
    ("component", 1),
    ("live", 1),
    ("batches", 1),
)
SESSION_REQUESTS = sum(count for _, count in SESSION)
# The layer calls a replay makes that do not nest in one another; the
# replay's time inside ``FrostApi.handle`` outside them is
# ``serving.untimed_s``.
REPLAY_LEAVES = (
    "metrics.table", "core.diagram", "core.timeline_build",
    "core.timeline_segment", "exploration.categorize", "graph.load",
    "graph.neighbors", "graph.component", "matching.prepare",
    "streaming.delta_index", "matching.similarity", "matching.decision",
    "storage.append", "graph.apply_batch",
)
WRITE_RECORDS = 10
SERVER_WORKERS = 4
CACHE_SIZE = 1024
START_TIMEOUT_S = 60.0
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Config:
    records: int = 3000
    synthetic_matches: int = 1000
    stream_records: int = 400
    rate: float = 30.0
    setups: int = 2


def sessions_in(seconds: float, config: Config) -> int:
    """Sessions a run of ``seconds`` at the configured rate sends."""
    return max(1, round(config.rate * seconds / SESSION_REQUESTS))


# -- set-up ----------------------------------------------------------------------


def _build_store(path: Path, seed: int, config: Config, writes: int) -> dict:
    """Write the served store; returns what the sessions draw from.

    The stream gets ``config.stream_records`` records, and ``writes``
    batches' worth more are kept for the run's writes.
    """
    from repro.core.experiment import Experiment, Match
    from repro.datagen import make_person_benchmark, scored_benchmark_experiment
    from repro.graph.build import build_graph_from_run
    from repro.storage.database import FrostStore
    from repro.streaming import build_pipeline_and_index, build_session

    benchmark = make_person_benchmark(config.records, seed=seed)
    dataset = benchmark.dataset
    pipeline, _ = build_pipeline_and_index(harness.MATCHER_CONFIG)
    run = pipeline.run(dataset)
    matched = run.experiment
    matched.name = MATCHED
    # What MatchingPipeline.scored_experiment returns, without a second run.
    scored = Experiment(
        (Match(pair=sp.pair, score=sp.score) for sp in run.scored_pairs),
        name=SCORED,
        solution=pipeline.solution,
        metadata={"threshold": pipeline.threshold},
    )
    # The stream's records come from their own corpus; ids need only be
    # unique within the stream.
    arrivals = list(make_person_benchmark(
        config.stream_records + writes * WRITE_RECORDS, seed=seed + 1
    ).dataset)
    store = FrostStore(path)
    try:
        store.save_dataset(dataset)
        store.save_gold_standard(dataset.name, benchmark.gold)
        store.save_experiment(dataset.name, matched)
        store.save_experiment(dataset.name, scored)
        for index, name in enumerate(SYNTHETIC):
            store.save_experiment(dataset.name, scored_benchmark_experiment(
                benchmark, target_matches=config.synthetic_matches,
                seed=seed * 10 + index, name=name,
            ))
        build_graph_from_run(store, PIPELINE_GRAPH, run)
        session = build_session(
            dict(harness.MATCHER_CONFIG, graph=True), store=store, name=STREAM
        )
        initial = arrivals[:config.stream_records]
        for first in range(0, len(initial), 100):
            session.ingest(initial[first:first + 100])
    finally:
        store.close()
    return {
        "dataset": dataset.name,
        "gold": benchmark.gold.name,
        "record_ids": list(dataset.record_ids),
        "stream_ids": [record.record_id for record in initial],
        "arrivals": arrivals[config.stream_records:],
    }


class Server:
    """``python -m repro serve`` in a child process."""

    def __init__(self, store: Path, workdir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(harness.SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self._log = open(workdir / f"server-{time.time_ns()}.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store),
             "--host", HOST, "--port", "0",
             "--workers", str(SERVER_WORKERS),
             "--cache-size", str(CACHE_SIZE)],
            cwd=str(harness.ROOT), env=env, stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.port = self._await_port(START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        buffered = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                for line in buffered.decode(errors="replace").splitlines():
                    if line.startswith("serving on http://"):
                        return int(line.rsplit(":", 1)[1])
            elif self.process.poll() is not None:
                break
        raise harness.BenchmarkError(
            f"server did not announce a port (exit {self.process.poll()})"
        )

    def peak_rss_mb(self) -> float:
        return harness.process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (graceful shutdown), then SIGKILL if it hangs; always reaped."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self.process.stdout.close()
        self._log.close()


def _warm_requests(info: dict) -> list[Request]:
    """Repeated keys, graph loads and the stream's resume, done in set-up."""
    requests = [_fixed(family, info, variant) for family, variant in (
        ("metrics", 0), ("metrics", 1), ("profile", 0),
        ("intersection", 0), ("intersection", 1), ("healthz", 0),
    )]
    requests += [
        Request("graph", "GET", f"/graph/{PIPELINE_GRAPH}"),
        Request("graph", "GET", f"/graph/{STREAM}"),
        Request("stream", "GET", f"/streams/{STREAM}"),
    ]
    return requests


def _set_up(seed: int, config: Config, workdir: Path, writes: int):
    """One full set-up: build the store, start the server, warm it."""
    path = workdir / f"serve-{time.time_ns()}.db"
    info = _build_store(path, seed, config, writes)
    server = Server(path, workdir)
    try:
        sender = HttpSender(HOST, server.port, 1)
        try:
            for request in _warm_requests(info):
                status, body = sender(0, request)
                if status != 200:
                    raise harness.BenchmarkError(
                        f"warm-up {request.path} answered {status}: {body[:200]!r}"
                    )
        finally:
            sender.close()
    except BaseException:
        server.stop()
        raise
    return server, info, path


# -- the request mix -------------------------------------------------------------


def _fixed(family: str, info: dict, variant: int) -> Request:
    """A request whose key repeats (served from the cache once warm)."""
    dataset, gold = info["dataset"], info["gold"]
    base = f"/datasets/{dataset}/{family}"
    if family == "metrics":
        query = {"gold": gold}
        if variant:
            query["metrics"] = "precision,recall,f1"
        return Request(family, "GET", f"{base}?{urlencode(query)}")
    if family == "intersection":
        include, exclude = SYNTHETIC if variant == 0 else SYNTHETIC[::-1]
        query = {"include": include, "exclude": exclude}
        return Request(family, "GET", f"{base}?{urlencode(query)}")
    if family == "profile":
        return Request(family, "GET", base)
    return Request("healthz", "GET", "/healthz")


def schedule(seed: int, sessions: int, info: dict) -> list[Request]:
    """The run's requests: ``sessions`` sessions, drawn from ``seed``."""
    rng = random.Random(seed)
    dataset, gold = info["dataset"], info["gold"]
    # Distinct values, so every diagram and categorization is computed.
    sizes = rng.sample(range(10, 10 + 4 * sessions), sessions)
    limits = rng.sample(range(5, 5 + 4 * sessions), sessions)
    arrivals = iter(info["arrivals"])
    requests = []

    def fresh(family: str, path: str, conflicts: bool = False, **query) -> Request:
        return Request(family, "GET", f"{path}?{urlencode(query)}", fresh=True,
                       conflicts=conflicts)

    for _ in range(sessions):
        entries = [entry for entry, count in SESSION for _ in range(count)]
        rng.shuffle(entries)
        for entry in entries:
            base = f"/datasets/{dataset}/{entry}"
            if entry in ("healthz", "metrics", "profile", "intersection"):
                requests.append(_fixed(entry, info, rng.randrange(2)))
            elif entry in ("neighbors", "component"):
                query = {"record": rng.choice(info["record_ids"])}
                if entry == "neighbors":
                    # One hop: two on the matcher's dense graph reach
                    # most of a 3k-record dataset.
                    query["k"] = 1
                requests.append(
                    fresh(entry, f"/graph/{PIPELINE_GRAPH}/{entry}", **query)
                )
            elif entry == "live":
                family = rng.choice(("neighbors", "component"))
                query = {"record": rng.choice(info["stream_ids"])}
                if family == "neighbors":
                    query["k"] = 2
                requests.append(fresh(
                    family, f"/graph/{STREAM}/{family}", conflicts=True, **query
                ))
            elif entry == "categorize":
                requests.append(fresh(entry, base, exp=rng.choice(SYNTHETIC),
                                      gold=gold, limit=limits.pop()))
            elif entry == "diagram":
                requests.append(fresh(entry, base, exp=rng.choice(SYNTHETIC),
                                      gold=gold, n=sizes.pop()))
            elif entry == "timeline":
                # Narrow ranges among the high scores: a query gains a few
                # merges, so its cost is mostly building the timeline.
                high = round(rng.uniform(0.85, 0.97), 6)
                low = round(high - rng.uniform(0.005, 0.02), 6)
                requests.append(fresh(entry, base, exp=rng.choice(SYNTHETIC),
                                      gold=gold, high=high, low=low))
            else:
                batch = list(itertools.islice(arrivals, WRITE_RECORDS))
                if len(batch) < WRITE_RECORDS:
                    raise harness.BenchmarkError(
                        "too few stream records for the writes"
                    )
                body = {
                    "job_id": f"write-{sum(r.write for r in requests)}",
                    "records": [{"id": r.record_id, **r.values} for r in batch],
                }
                requests.append(Request(
                    entry, "POST", f"/streams/{STREAM}/batches",
                    body=json.dumps(body).encode(), write=True,
                ))
    return requests


# -- checking --------------------------------------------------------------------


def _reference_api(store_path: Path, info: dict):
    """A ``FrostApi`` built exactly as ``repro serve`` builds its own."""
    from repro.engine.runner import ExperimentEngine
    from repro.server.api import FrostApi
    from repro.serving import ServingLayer, platform_from_store
    from repro.storage.database import FrostStore

    store = FrostStore(store_path)
    platform = platform_from_store(store)
    api = FrostApi(
        platform,
        engine=ExperimentEngine(platform, store=store, max_workers=SERVER_WORKERS),
        store=store,
        serving=ServingLayer(platform, max_entries=CACHE_SIZE),
    )
    for request in _warm_requests(info):
        _handle(api, request)
    return api, store


def _handle(api, request: Request) -> tuple[int, str, float]:
    """Status and canonical body the in-process API gives ``request``,
    and the seconds ``FrostApi.handle`` took."""
    from urllib.parse import parse_qsl, urlparse

    from repro.server.api import ApiError

    parsed = urlparse(request.path)
    body = json.loads(request.body) if request.body else None
    query = dict(parse_qsl(parsed.query))
    started = time.perf_counter()
    try:
        payload = api.handle(parsed.path, query, method=request.method, body=body)
        status = 200
    except ApiError as error:
        payload, status = {"error": error.message, "status": error.status}, error.status
    seconds = time.perf_counter() - started
    return status, harness.canonical_json(json.loads(json.dumps(payload))), seconds


def _replay(api, requests: list[Request], samples, timer=None) -> dict:
    """Recompute every answer in-process; returns expected bodies and times.

    Requests that read the stream's graph are replayed at every graph
    version between the writes that had completed when they were sent
    and those that had started by the time they were answered; writes
    are applied in their serialized order in between.  ``handled`` is
    the time spent inside ``FrostApi.handle`` over the whole replay.
    """
    expected: dict[int, set[str]] = {}
    compute: dict[int, float] = {}
    layers: dict[int, dict[str, float]] = {}
    handled = 0.0

    def answer(index: int) -> None:
        nonlocal handled
        mark = timer.mark() if timer else None
        status, body, seconds = _handle(api, requests[index])
        compute[index] = seconds
        handled += seconds
        expected.setdefault(index, set()).add(body if status == 200 else f"status {status}")
        if timer:
            layers[index] = timer.totals(mark)

    live = f"/graph/{STREAM}/"
    pending: dict[int, list[int]] = {}
    writes = []
    for index, request in enumerate(requests):
        if request.write:
            writes.append(index)
        elif request.path.startswith(live):
            sample = samples[index]
            for version in range(sample.writes_before, sample.writes_by_end + 1):
                pending.setdefault(version, []).append(index)
        else:
            answer(index)
    for version in range(len(writes) + 1):
        for index in pending.get(version, ()):
            answer(index)
        if version < len(writes):
            answer(writes[version])
    return {"expected": expected, "compute": compute, "layers": layers,
            "handled": handled}


def _check(requests, samples, expected, outcome: Outcome, mutate) -> None:
    for request, sample in zip(requests, samples):
        outcome.attempted += 1
        if sample.error or not 200 <= sample.status < 300:
            outcome.fail(
                f"{request.method} {request.path}: status {sample.status} "
                f"{sample.error or sample.body[:200]!r}"
            )
            continue
        body = sample.body if mutate is None else mutate(sample.body)
        try:
            answer = harness.canonical_json(json.loads(body))
        except ValueError:
            answer = "unparseable body"
        if answer not in expected[sample.index]:
            outcome.fail(f"{request.method} {request.path}: body differs from in-process")


# -- the run ---------------------------------------------------------------------


def _stats(port: int) -> dict:
    sender = HttpSender(HOST, port, 1)
    try:
        status, body = sender(0, Request("stats", "GET", "/stats"))
    finally:
        sender.close()
    if status != 200:
        raise harness.BenchmarkError(f"/stats answered {status}")
    return json.loads(body)["serving"]


def run(seed: int, seconds: float, trace: bool, config: Config = Config(),
        mutate=None) -> Outcome:
    """Measure ``explore_serve``; ``mutate`` corrupts bodies (tests only)."""
    outcome = Outcome()
    workdir = harness.WORK / f"explore_serve-{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    sessions = sessions_in(seconds, config)
    writes = sessions * dict(SESSION)["batches"]
    server = sampler = None
    try:
        sampler = SpeedSampler(workdir)
        setups = []
        for _ in range(config.setups):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server, info, path = _set_up(seed, config, workdir, writes)
            setups.append((started, time.perf_counter()))
        # Copies for the in-process replays; the server has only read
        # the store so far.
        copies = [workdir / "replay.db", workdir / "traced.db"]
        for copy in copies:
            shutil.copyfile(path, copy)
        flush_policy = harness.store_flush_policy(copies[0])
        requests = schedule(seed, sessions, info)
        stats_before = _stats(server.port)
        gc.collect()
        sender = HttpSender(HOST, server.port, CONNECTIONS)
        try:
            loop = OpenLoop(requests, config.rate, CONNECTIONS, sender)
            window = time.perf_counter()
            samples = loop.run()
            window = time.perf_counter() - window
        finally:
            sender.close()
        stats_after = _stats(server.port)
        rss = server.peak_rss_mb()
        server.stop()
        server = None

        replay, replay_wall = _timed_replay(copies[0], info, requests, samples)
        _check(requests, samples, replay["expected"], outcome, mutate)
        if trace:
            timer = probes.install()
            try:
                traced, traced_wall = _timed_replay(
                    copies[1], info, requests, samples, timer
                )
            finally:
                timer.close()
    finally:
        if server is not None:
            server.stop()
        if sampler is not None:
            sampler.close()
        harness.remove_workdir(workdir)

    latencies = [sampler.scaled(s.due, s.done) * 1000.0 for s in samples]
    latency = Latency.of(latencies, pct=99.0)
    f1 = _served_f1(requests, samples, _fixed("metrics", info, 0).path)
    outcome.metrics.update({
        "setup_s": harness.median_or(sampler.scaled(*s) for s in setups),
        "op_p50_ms": latency.p50,
        "op_tail_ms": latency.tail,
        "op_mean_ms": statistics.fmean(latencies),
        "peak_rss_mb": rss,
        "match_f1": f1,
    })
    outcome.report.update({
        "sessions": (sessions, "count"),
        "request_p50_ms": (latency.p50, "ms"),
        f"request_{latency.tail_label}_ms": (latency.tail, "ms"),
        "requests": (latency.count, "count"),
        "offered_rate_per_s": (config.rate, "1/s"),
        "achieved_rate_per_s": (len(samples) / window, "1/s"),
        "late_p99_ms": (harness.percentile([s.late * 1000.0 for s in samples], 99.0), "ms"),
        "machine_speed": (sampler.median_speed(), "ratio"),
    })
    if trace:
        outcome.metrics.update(_layer_metrics(
            requests, samples, replay, traced, stats_before, stats_after
        ))
        covered = sum(
            total for name, total in traced["totals"].items() if name in REPLAY_LEAVES
        )
        # Time inside FrostApi.handle that no timed layer call covers:
        # routing, the serving cache, and building the payloads.
        outcome.metrics["serving.untimed_s"] = traced_wall - covered
        outcome.metrics["trace.coverage"] = covered / traced_wall
        outcome.metrics["trace.overhead_s"] = traced_wall - replay_wall
    outcome.context.update({
        "records": config.records,
        "synthetic_matches": config.synthetic_matches,
        "stream_records": config.stream_records,
        "write_records": WRITE_RECORDS,
        "session": dict(SESSION),
        "store": "file FrostStore in the checkout's .perfbench directory",
        "flush_policy": flush_policy,
        "loop": f"open, {CONNECTIONS} keep-alive connection(s)",
        "rate_per_s": config.rate,
        "server_workers": SERVER_WORKERS,
        "cache_size": CACHE_SIZE,
    })
    return outcome


def _timed_replay(store_path: Path, info: dict, requests, samples, timer=None):
    """:func:`_replay` on a fresh in-process API over ``store_path``.

    Returns the replay and the seconds its requests spent in the
    program.  Both replays start as cold as the server did, so their
    times are alike and their difference is the tracing overhead.
    """
    harness.reset_memo_caches()
    api, store = _reference_api(store_path, info)
    try:
        gc.collect()
        mark = timer.mark() if timer else None
        replay = _replay(api, requests, samples, timer)
        if timer:
            replay["totals"] = timer.totals(mark)
    finally:
        store.close()
    return replay, replay["handled"]


def _served_f1(requests, samples, path: str) -> float:
    """F1 of the matcher's experiment, as the metrics route served it."""
    for request, sample in zip(requests, samples):
        if request.path == path and sample.status == 200:
            return json.loads(sample.body)["metrics"][MATCHED]["f1"]
    raise harness.BenchmarkError("no metrics request was answered")


def _layer_metrics(requests, samples, replay, traced, before, after) -> dict[str, float]:
    """Per-layer figures from the server's counters and the traced replay."""
    def per_call(layer_names, prefix="/") -> float:
        """Median time per request in ``layer_names`` among requests that used them."""
        values = [
            sum(layer.get(n, 0.0) for n in layer_names)
            for index, layer in traced["layers"].items()
            if any(layer.get(n) for n in layer_names)
            and requests[index].path.startswith(prefix)
        ]
        return harness.median_or(values)

    totals = traced["totals"]
    requested = after["requests"] - before["requests"]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    overhead = [
        (sample.service - replay["compute"][sample.index]) * 1000.0
        for request, sample in zip(requests, samples)
        if request.fresh and sample.status == 200
    ]
    metrics = {
        "serving.hit_ratio": hits / requested if requested else 0.0,
        "serving.computations": after["computations"] - before["computations"],
        "serving.coalesced": (
            after["coalescer"]["followers"] - before["coalescer"]["followers"]
        ),
        "server.healthz_p50_ms": harness.median_or(
            s.service * 1000.0 for r, s in zip(requests, samples)
            if r.family == "healthz"
        ),
        "server.overhead_ms": harness.median_or(overhead),
        "graph.neighbors_ms": per_call(
            ("graph.neighbors",), f"/graph/{PIPELINE_GRAPH}/"
        ) * 1000.0,
        "core.timeline_ms": per_call(
            ("core.timeline_build", "core.timeline_segment")
        ) * 1000.0,
        "exploration.categorize_ms": per_call(("exploration.categorize",)) * 1000.0,
        "metrics.table_s": per_call(("metrics.table",)),
        "core.diagram_s": per_call(("core.diagram",)),
        "graph.apply_batch_s": per_call(("graph.apply_batch",)),
        "matching.prepare_s": totals.get("matching.prepare", 0.0),
        "matching.candidates_s": totals.get("streaming.delta_index", 0.0),
        "matching.similarity_s": totals.get("matching.similarity", 0.0),
        "matching.decision_s": totals.get("matching.decision", 0.0),
        "streaming.delta_index_s": totals.get("streaming.delta_index", 0.0),
        "storage.append_s": totals.get("storage.append", 0.0),
        "loadgen.late_p99_ms": harness.percentile(
            [s.late * 1000.0 for s in samples], 99.0
        ),
    }
    for family, _ in SESSION:
        if family == "live":
            continue
        metrics[f"route.{family}_p50_ms"] = harness.median_or(
            s.latency * 1000.0 for r, s in zip(requests, samples) if r.family == family
        )
    return metrics
