"""Metrics registry unit tests: exactness under threads, exposition."""

from __future__ import annotations

import re
import threading

import pytest

from repro.telemetry import MetricsRegistry, render_prometheus, write_metrics_json

THREADS = 8
ROUNDS = 2_000


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_is_exact_under_eight_threads(registry):
    counter = registry.counter("test_hits_total", "hammered counter")
    gauge = registry.gauge("test_depth")
    histogram = registry.histogram("test_seconds", buckets=(0.5, 1.0))
    barrier = threading.Barrier(THREADS)

    def hammer():
        barrier.wait(timeout=30)
        for index in range(ROUNDS):
            counter.inc()
            gauge.inc()
            histogram.observe(0.25 if index % 2 else 0.75)

    threads = [threading.Thread(target=hammer) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)

    assert counter.value == THREADS * ROUNDS
    assert gauge.value == THREADS * ROUNDS
    assert histogram.count == THREADS * ROUNDS
    assert histogram.sum == pytest.approx(THREADS * ROUNDS * 0.5)
    cumulative = dict(histogram.cumulative_counts())
    assert cumulative[0.5] == THREADS * ROUNDS // 2
    assert cumulative[float("inf")] == THREADS * ROUNDS


def test_counters_reject_negative_increments(registry):
    counter = registry.counter("strict_total")
    with pytest.raises(ValueError):
        counter.inc(-1)
    counter.inc(0)  # zero is a legal no-op
    assert counter.value == 0


def test_registration_is_get_or_create_and_type_checked(registry):
    first = registry.counter("shared_total", "help text")
    second = registry.counter("shared_total")
    assert first is second
    with pytest.raises(ValueError):
        registry.gauge("shared_total")
    with pytest.raises(ValueError):
        registry.histogram("shared_total")
    assert registry.get("shared_total") is first
    assert registry.get("unknown") is None


def test_reset_zeroes_values_but_keeps_handles(registry):
    counter = registry.counter("resettable_total")
    counter.inc(3)
    registry.reset()
    assert counter.value == 0
    counter.inc()  # the module-level handle keeps working
    assert registry.values()["resettable_total"] == 1


def test_snapshot_and_values_flatten_histograms(registry):
    registry.counter("c_total").inc(2)
    registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
    values = registry.values()
    assert values["c_total"] == 2
    assert values["h_seconds_count"] == 1
    assert values["h_seconds_sum"] == 0.5
    snapshot = registry.snapshot()
    assert snapshot["c_total"]["type"] == "counter"
    assert snapshot["h_seconds"]["buckets"] == {"1.0": 1}


def test_prometheus_exposition_parses(registry):
    registry.counter("demo_hits_total", "demo counter").inc(7)
    registry.gauge("demo_depth", "demo gauge").set(3.5)
    registry.histogram("demo_seconds", "demo histogram", buckets=(0.1, 1.0)).observe(
        0.05
    )
    text = render_prometheus(registry)
    assert text.endswith("\n")
    # every non-comment line is `name{labels} value` or `name value`
    sample = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$"
    )
    for line in text.strip().splitlines():
        if line.startswith("#"):
            assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ", line)
        else:
            assert sample.match(line), line
    assert "# TYPE demo_hits_total counter" in text
    assert "demo_hits_total 7" in text
    assert "demo_depth 3.5" in text
    assert 'demo_seconds_bucket{le="0.1"} 1' in text
    assert 'demo_seconds_bucket{le="+Inf"} 1' in text
    assert "demo_seconds_count 1" in text


def test_metrics_json_export(registry, tmp_path):
    registry.counter("exported_total").inc(4)
    path = write_metrics_json(tmp_path / "metrics.json", registry)
    import json

    document = json.loads(path.read_text())
    assert document["exported_total"]["value"] == 4
