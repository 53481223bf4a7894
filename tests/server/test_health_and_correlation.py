"""Health endpoints, access logging, and request-id correlation.

Covers the observability surface of the HTTP front-end: ``/healthz``
(liveness), ``/readyz`` (dependency readiness, 503 when the store is
gone), the structured DEBUG access log, per-endpoint-family metrics
with latency-SLO burn counters, and one ``request_id`` observable
end-to-end — response header, access log, span tree, and ``/stats`` —
down to the comparison stage's kernel span.
"""

from __future__ import annotations

import http.client
import json
import logging
import re

import pytest

from repro.core.platform import FrostPlatform
from repro.server.api import ApiError, FrostApi
from repro.server.http import FrostHttpServer, _endpoint_family
from repro.telemetry import get_metrics, get_tracer


@pytest.fixture
def platform(people_dataset, people_gold, people_experiment):
    instance = FrostPlatform()
    instance.add_dataset(people_dataset)
    instance.add_gold(people_dataset.name, people_gold)
    instance.add_experiment(people_dataset.name, people_experiment)
    return instance


@pytest.fixture
def api(platform):
    return FrostApi(platform)


def request(port, path, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestHealthEndpoints:
    def test_healthz_is_alive(self, api):
        with FrostHttpServer(api, port=0) as server:
            status, _, body = request(server.port, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_readyz_reports_checks(self, api):
        with FrostHttpServer(api, port=0) as server:
            status, _, body = request(server.port, "/readyz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ready"
        assert payload["checks"]["platform"]["ok"]
        assert payload["checks"]["platform"]["datasets"] == 1
        assert payload["checks"]["store"] == {"ok": True, "durable": False}
        assert payload["checks"]["serving_cache"]["ok"]

    def test_readyz_503_when_store_unreachable(
        self, platform, tmp_path
    ):
        from repro.storage.database import FrostStore

        store = FrostStore(tmp_path / "frost.db")
        api = FrostApi(platform, store=store)
        store.close()  # torn-down dependency: served requests would fail
        ready, payload = api.readiness()
        assert not ready
        assert payload["status"] == "unavailable"
        assert not payload["checks"]["store"]["ok"]
        with FrostHttpServer(api, port=0) as server:
            status, _, body = request(server.port, "/readyz")
        assert status == 503
        assert json.loads(body)["checks"]["store"]["ok"] is False

    def test_readyz_reports_store_schema_version(self, platform, tmp_path):
        from repro.storage.database import SCHEMA_VERSION, FrostStore

        with FrostStore(tmp_path / "frost.db") as store:
            api = FrostApi(platform, store=store)
            ready, payload = api.readiness()
        assert ready
        assert payload["checks"]["store"]["schema_version"] == SCHEMA_VERSION

    def test_dispatcher_serves_health_routes_too(self, api):
        assert api.handle("/healthz") == {"status": "ok"}
        assert api.handle("/readyz")["status"] == "ready"

    def test_dispatcher_readyz_503_when_not_ready(self, platform, tmp_path):
        from repro.storage.database import FrostStore

        store = FrostStore(tmp_path / "frost.db")
        api = FrostApi(platform, store=store)
        store.close()
        with pytest.raises(ApiError) as excinfo:
            api.handle("/readyz")
        assert excinfo.value.status == 503
        assert "store" in excinfo.value.message


class TestAccessLog:
    def test_access_line_format_at_debug(self, api, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.server.access"):
            with FrostHttpServer(api, port=0) as server:
                status, headers, _ = request(
                    server.port, "/datasets", {"X-Request-Id": "req-log-1"}
                )
        assert status == 200
        records = [
            record
            for record in caplog.records
            if record.name == "repro.server.access"
            and getattr(record, "method", None) == "GET"
        ]
        assert records, "no access-log record emitted"
        record = records[0]
        assert record.levelno == logging.DEBUG
        assert re.fullmatch(
            r"GET /datasets -> 200 in \d+\.\d{2}ms \[req-log-1\]",
            record.getMessage(),
        )
        assert record.request_id == "req-log-1"
        assert record.status == 200

    def test_default_level_keeps_output_quiet(self, api, capsys, caplog):
        """At the default INFO level no per-request line reaches handlers."""
        with caplog.at_level(logging.INFO):
            with FrostHttpServer(api, port=0) as server:
                request(server.port, "/datasets")
        access = [
            record
            for record in caplog.records
            if record.name == "repro.server.access"
        ]
        assert access == []
        captured = capsys.readouterr()
        assert "GET /datasets" not in captured.out
        assert "GET /datasets" not in captured.err


class TestEndpointMetrics:
    def test_family_of_known_and_unknown_paths(self):
        assert _endpoint_family("/datasets/people/metrics") == "datasets"
        assert _endpoint_family("/metrics") == "metrics"
        assert _endpoint_family("/healthz") == "healthz"
        assert _endpoint_family("/") == "other"
        assert _endpoint_family("/evil{}path") == "other"

    def test_requests_and_latency_are_counted_per_family(self, api):
        registry = get_metrics()
        registry.reset()
        with FrostHttpServer(api, port=0) as server:
            request(server.port, "/datasets")
            request(server.port, "/datasets/people")
            request(server.port, "/healthz")
        values = registry.values()
        assert values["frost_http_datasets_requests_total"] == 2
        assert values["frost_http_datasets_request_seconds_count"] == 2
        assert values["frost_http_healthz_requests_total"] == 1
        registry.reset()

    def test_slo_burn_counts_slow_requests(self, api, monkeypatch):
        import repro.server.http as http_module

        registry = get_metrics()
        registry.reset()
        # an impossible SLO: every request burns budget
        monkeypatch.setitem(http_module._SLO_MS, "datasets", -1.0)
        with FrostHttpServer(api, port=0) as server:
            request(server.port, "/datasets")
        values = registry.values()
        assert values["frost_http_datasets_slo_burn_total"] == 1
        # healthz kept its sane SLO: no burn counter was ever minted
        assert "frost_http_healthz_slo_burn_total" not in values
        registry.reset()


class TestRequestIdCorrelation:
    def test_server_mints_an_id_when_absent(self, api):
        with FrostHttpServer(api, port=0) as server:
            _, headers, _ = request(server.port, "/datasets")
        minted = headers.get("X-Request-Id")
        assert minted
        int(minted, 16)

    def test_client_id_is_honored_and_echoed(self, api):
        with FrostHttpServer(api, port=0) as server:
            _, headers, body = request(
                server.port, "/stats", {"X-Request-Id": "req-client-7"}
            )
        assert headers.get("X-Request-Id") == "req-client-7"
        assert json.loads(body)["request_id"] == "req-client-7"

    def test_one_id_spans_log_trace_and_stats(self, api, caplog):
        """The acceptance-criteria walk: one request's id shows up in the
        access log, on every span of its trace, and in the /stats
        payload."""
        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            with caplog.at_level(logging.DEBUG, logger="repro.server.access"):
                with FrostHttpServer(api, port=0) as server:
                    status, headers, body = request(
                        server.port,
                        "/stats",
                        {"X-Request-Id": "req-e2e"},
                    )
        finally:
            tracer.disable()
        assert status == 200
        # header + payload
        assert headers.get("X-Request-Id") == "req-e2e"
        assert json.loads(body)["request_id"] == "req-e2e"
        # access log
        assert any(
            getattr(record, "request_id", None) == "req-e2e"
            for record in caplog.records
            if record.name == "repro.server.access"
        )
        # trace: the request root and every descendant carry the id
        roots = [
            root
            for root in tracer.roots()
            if root.annotations.get("request_id") == "req-e2e"
        ]
        assert roots, "no http.request span recorded for the request"
        for span in roots[0].walk():
            assert span.annotations.get("request_id") == "req-e2e", span.name
        tracer.reset()

    def test_comparison_span_carries_the_request_id(self, people_dataset):
        """The comparison stage's kernel span inherits the bound id."""
        from repro.matching.attribute_matching import AttributeComparator
        from repro.matching.comparison import score_candidates
        from repro.core.pairs import make_pair
        from repro.telemetry import bind_request_id

        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            comparator = AttributeComparator({"name": "jaro_winkler"})
            records = list(people_dataset)
            pairs = [
                make_pair(records[0].record_id, records[1].record_id),
                make_pair(records[1].record_id, records[2].record_id),
            ]
            with bind_request_id("req-compare"), tracer.span(
                "http.request", request_id="req-compare"
            ):
                score_candidates(people_dataset, pairs, comparator)
        finally:
            tracer.disable()
        (root,) = [
            span
            for span in tracer.roots()
            if span.name == "http.request"
        ]
        (kernels,) = [
            span for span in root.walk() if span.name == "comparison.columnar"
        ]
        assert kernels.annotations["request_id"] == "req-compare"
        tracer.reset()
