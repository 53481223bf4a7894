"""Tests of the benchmark's own helpers and of tiny runs of each workload.

Run with the program on the path::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time

import pytest

from perfbench import batch_match, explore_serve, harness, speed, stream_ingest
from perfbench.loadgen import OpenLoop, Request

# -- the percentile rule ---------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (0, None), (39, None), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    assert harness.tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert harness.percentile(values, 99.0) == 990
    assert harness.percentile(values, 50.0) == 500
    assert harness.percentile([5.0], 99.0) == 5.0


def test_latency_falls_back_when_the_fixed_percentile_is_not_reportable():
    many = harness.Latency.of([float(v) for v in range(1, 1001)], pct=99.0)
    assert (many.tail_pct, many.tail) == (99.0, 990.0)
    few = harness.Latency.of([float(v) for v in range(1, 101)], pct=99.0)
    assert (few.tail_pct, few.tail) == (90.0, 90.0)
    tiny = harness.Latency.of([3.0, 1.0, 2.0], pct=99.0)
    assert (tiny.tail_label, tiny.tail, tiny.p50) == ("max", 3.0, 2.0)


# -- machine speed ----------------------------------------------------------------


def test_times_are_scaled_by_the_probes_around_them():
    # ten probes a second; the machine halves its speed at t = 5 s
    starts = [i / 10 for i in range(100)]
    probes = [speed.REFERENCE_S * (1 if t < 5 else 2) for t in starts]
    assert speed.scale_factor(starts, probes, 1.0, 2.0) == 1.0
    assert speed.scale_factor(starts, probes, 7.0, 7.01) == 0.5
    # past the last probe, the nearest ones count
    assert speed.scale_factor(starts, probes, 50.0, 51.0) == 0.5
    # a unit straddling the change is scaled by the median around it
    assert speed.scale_factor(starts, probes, 4.0, 7.0) == 0.5


def test_the_sampler_measures_until_closed_and_is_stopped(tmp_path):
    with speed.SpeedSampler(tmp_path) as sampler:
        started = time.perf_counter()
        time.sleep(0.3)
        ended = time.perf_counter()
    assert sampler.process.returncode is not None
    assert sampler.spinner.returncode is not None
    assert 0.0 < sampler.scaled(started, ended) < 10 * (ended - started)
    assert sampler.median_speed() > 0.0


# -- open-loop due-time accounting -------------------------------------------------


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    def send(connection, request):
        time.sleep(0.3 if request.path == "/slow" else 0.001)
        return 200, b"{}"

    requests = [Request("x", "GET", "/slow")] + [Request("x", "GET", "/fast")] * 4
    samples = OpenLoop(requests, rate=100.0, connections=1, send=send).run()

    assert [s.index for s in samples] == list(range(5))
    for sample in samples[1:]:
        # due every 10 ms, but the one connection was busy until ~0.3 s
        assert sample.late > 0.2
        assert sample.latency >= sample.late + sample.service - 1e-9
        assert sample.service < 0.2
    assert samples[0].service >= 0.3
    assert samples[4].due - samples[0].due == pytest.approx(0.04)


def test_writes_reach_the_server_in_schedule_order():
    seen, lock = [], threading.Lock()

    def send(connection, request):
        if request.write:
            with lock:
                seen.append(request.path)
            time.sleep(0.02)
        return 200, b"{}"

    requests = [
        Request("w", "POST", f"/w{i}", write=True) if i % 2 == 0
        else Request("r", "GET", "/r")
        for i in range(20)
    ]
    samples = OpenLoop(requests, rate=500.0, connections=2, send=send).run()

    assert seen == [f"/w{i}" for i in range(0, 20, 2)]
    for sample in samples:
        # a read may see any write between those done when it left and
        # those begun by the time it was answered
        assert sample.writes_before <= sample.writes_by_end <= 10


def test_reads_of_written_state_never_overlap_a_write():
    spans, lock = [], threading.Lock()

    def send(connection, request):
        started = time.perf_counter()
        time.sleep(0.01)
        with lock:
            spans.append((request.write, started, time.perf_counter()))
        return 200, b"{}"

    requests = [
        Request("w", "POST", "/w", write=True) if i % 3 == 0
        else Request("r", "GET", "/r", conflicts=True)
        for i in range(15)
    ]
    samples = OpenLoop(requests, rate=400.0, connections=2, send=send).run()

    writes = [(start, end) for write, start, end in spans if write]
    reads = [(start, end) for write, start, end in spans if not write]
    for w_start, w_end in writes:
        for r_start, r_end in reads:
            assert r_end <= w_start or r_start >= w_end
    # with writes kept apart, each read saw exactly one version
    assert all(s.writes_before == s.writes_by_end for s in samples
               if not requests[s.index].write)


def test_a_failed_send_is_recorded_not_raised():
    def send(connection, request):
        raise ConnectionResetError("gone")

    (sample,) = OpenLoop([Request("x", "GET", "/")], 10.0, 1, send).run()
    assert sample.status == 0 and "ConnectionResetError" in sample.error


# -- context and comparison -------------------------------------------------------


def _document(seed=1, value=100.0):
    context = harness.base_context("batch_match", seed, 15, False)
    return {
        "context": context,
        "metrics": {"op_p50_ms": {"value": value, "unit": "ms"}},
    }


def test_results_with_a_different_context_are_refused_naming_the_field():
    spec = harness.load_spec()
    with pytest.raises(harness.ContextMismatch) as refused:
        harness.compare_results(_document(seed=1), _document(seed=2), spec)
    assert refused.value.field == "seed"
    assert "'seed'" in str(refused.value)


def test_a_slowdown_beyond_the_bound_is_a_regression():
    spec = harness.load_spec()
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "op_p50_ms")
    (row,) = harness.compare_results(
        _document(value=100.0), _document(value=100.0 * (1 + bound) + 1), spec
    )
    assert row["regressed"]
    (row,) = harness.compare_results(_document(value=100.0), _document(value=90.0), spec)
    assert not row["regressed"]


def test_the_summary_line_carries_exactly_the_contract_keys():
    spec = harness.load_spec()
    outcome = harness.Outcome(attempted=3)
    outcome.metrics = {m["name"]: 1.0 for m in spec["end_to_end"]}
    summary = json.loads(harness.summary_line(
        harness.result_document(outcome, spec, trace=False)
    ))
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert set(summary["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert summary["correct"] is True


def test_clusters_from_pairs_finds_connected_components():
    clusters = harness.clusters_from_pairs([("b", "a"), ("c", "b"), ("x", "y")])
    assert clusters == frozenset({("a", "b", "c"), ("x", "y")})


# -- tiny runs: clean, and with a corrupted output counted as a failure ---------


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK", tmp_path / "work")
    harness.require_program()
    return tmp_path / "work"


def _corrupt_once(corrupt):
    """A mutation that corrupts only the first output it sees."""
    state = {"done": False}

    def mutate(value):
        if state["done"]:
            return value
        state["done"] = True
        return corrupt(value)

    return mutate


def _assert_clean(outcome, spec_section):
    spec = harness.load_spec()
    assert outcome.failed == 0, outcome.problems
    assert outcome.attempted > 0
    document = harness.result_document(outcome, spec, trace=spec_section == "per_layer")
    assert set(document["metrics"]) == {m["name"] for m in spec[spec_section]}
    return document["metrics"]


def test_batch_match_tiny(workdir):
    from repro.core.experiment import Experiment

    config = batch_match.Config(records=300, setups=1, diagram_samples=10)
    metrics = _assert_clean(batch_match.run(3, 0.01, True, config), "per_layer")
    # the timed layer calls and the named remainder make up the pass
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0
    assert metrics["engine.untimed_s"]["value"] >= 0.0

    def drop_a_match(experiment):
        return Experiment(list(experiment)[1:], name=experiment.name)

    outcome = batch_match.run(3, 0.01, False, config, _corrupt_once(drop_a_match))
    assert outcome.failed == 1
    assert "direct serial run" in outcome.problems[0]


def test_stream_ingest_tiny(workdir):
    config = stream_ingest.Config(records=300, batch=50, setups=1)
    metrics = _assert_clean(stream_ingest.run(3, 0.01, True, config), "per_layer")
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0
    assert metrics["storage.bytes_per_record"]["value"] > 0

    def split_a_cluster(clusters):
        first = max(clusters, key=len)
        return (clusters - {first}) | {first[:1] + first[2:]}

    outcome = stream_ingest.run(3, 0.01, False, config, _corrupt_once(split_a_cluster))
    assert outcome.failed == 1
    assert "batch run" in outcome.problems[0]
    assert not list(workdir.glob("*"))


def test_explore_serve_tiny(workdir):
    config = explore_serve.Config(
        records=300, synthetic_matches=200, stream_records=100, rate=60.0,
        setups=1,
    )
    metrics = _assert_clean(explore_serve.run(3, 1.0, True, config), "per_layer")
    assert metrics["serving.hit_ratio"]["value"] > 0
    assert metrics["route.healthz_p50_ms"]["value"] > 0
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0
    assert metrics["serving.untimed_s"]["value"] >= 0.0

    outcome = explore_serve.run(
        3, 0.5, False, config, _corrupt_once(lambda body: body.replace(b"}", b',"x":1}', 1))
    )
    assert outcome.failed == 1
    assert "differs from in-process" in outcome.problems[0]


def test_every_session_holds_each_kind_of_request_in_its_share():
    info = {
        "dataset": "d", "gold": "g", "record_ids": ["a", "b", "c"],
        "stream_ids": ["s1", "s2"],
        "arrivals": [_Record(f"n{i}") for i in range(40)],
    }
    requests = explore_serve.schedule(7, 4, info)
    size = explore_serve.SESSION_REQUESTS
    assert len(requests) == 4 * size
    for first in range(0, len(requests), size):
        session = requests[first:first + size]
        assert sum(r.write for r in session) == dict(explore_serve.SESSION)["batches"]
        assert sum(r.conflicts for r in session) == dict(explore_serve.SESSION)["live"]
        assert sum(r.path.startswith("/graph/pipeline/") for r in session) == 2
        for family in ("metrics", "profile", "intersection", "healthz",
                       "diagram", "timeline", "categorize"):
            assert sum(r.family == family for r in session) == (
                dict(explore_serve.SESSION)[family]
            )
    # the same seed gives the same schedule
    assert explore_serve.schedule(7, 4, info) == requests


class _Record:
    def __init__(self, record_id):
        self.record_id, self.values = record_id, {"first_name": "x"}


# -- the command line -------------------------------------------------------------


def test_without_the_program_the_runner_fails_without_a_result(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_match",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert finished.returncode != 0
    assert '"metrics"' not in finished.stdout
    assert "no program to benchmark" in finished.stderr
