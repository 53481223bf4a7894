"""Parametrized API error-path coverage: 404, 400, and 405 responses.

Every route family must fail with the right status: 404 for unknown
names/routes, 400 for malformed parameters or JSON bodies, 405 for
wrong methods.  The HTTP wrapper must translate each into a JSON error
document with the matching status code.
"""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.core.platform import FrostPlatform
from repro.server.api import ApiError, FrostApi
from repro.server.http import MAX_BODY_BYTES, FrostHttpServer


@pytest.fixture
def api(people_dataset, people_gold, people_experiment):
    platform = FrostPlatform()
    platform.add_dataset(people_dataset)
    platform.add_gold(people_dataset.name, people_gold)
    platform.add_experiment(people_dataset.name, people_experiment)
    return FrostApi(platform)


NOT_FOUND_CASES = [
    ("GET", "/datasets/ghost", {}, None),
    ("GET", "/datasets/ghost/records", {}, None),
    ("GET", "/datasets/people/experiments/ghost", {}, None),
    ("GET", "/datasets/people/metrics", {"gold": "ghost"}, None),
    (
        "GET",
        "/datasets/people/diagram",
        {"exp": "ghost", "gold": "people-gold"},
        None,
    ),
    (
        "GET",
        "/datasets/people/categorize",
        {"exp": "people-run", "gold": "ghost"},
        None,
    ),
    ("GET", "/datasets/people/unknown-evaluation", {}, None),
    ("GET", "/streams/ghost", {}, None),
    ("POST", "/streams/ghost/batches", {}, {"records": []}),
    ("GET", "/jobs/ghost", {}, None),
    ("GET", "/completely/unknown", {}, None),
]

BAD_REQUEST_CASES = [
    ("GET", "/datasets/people/metrics", {}, None),  # gold missing
    ("GET", "/datasets/people/records", {"offset": "-1"}, None),
    ("GET", "/datasets/people/records", {"limit": "nope"}, None),
    ("GET", "/datasets/people/diagram", {"exp": "people-run"}, None),
    (
        "GET",
        "/datasets/people/categorize",
        {"gold": "people-gold"},
        None,
    ),
    (
        "GET",
        "/datasets/people/timeline",
        {"exp": "people-run", "gold": "people-gold"},
        None,
    ),
    ("GET", "/datasets/people/intersection", {"exclude": "people-run"}, None),
    ("POST", "/jobs", {}, None),  # body missing
    ("POST", "/jobs", {}, ["not", "an", "object"]),
    ("POST", "/jobs", {}, {"kind": "bogus"}),
    ("POST", "/jobs", {}, {"kind": "metrics", "params": 5}),
    ("POST", "/jobs", {}, {"kind": "metrics", "params": {}, "sweep": {}}),
    ("POST", "/streams", {}, None),
    ("POST", "/streams", {}, {"name": "bad/name"}),
    ("POST", "/streams", {}, {"name": "s", "config": {"key": {"kind": "bogus"}}}),
]

WRONG_METHOD_CASES = [
    ("POST", "/datasets", {}, None),
    ("POST", "/datasets/people/metrics", {"gold": "people-gold"}, None),
    ("DELETE", "/datasets/people", {}, None),
    ("PUT", "/stats", {}, None),
    ("DELETE", "/streams", {}, None),
    ("DELETE", "/jobs", {}, None),
]


def _expect_status(api, method, path, query, body, status):
    with pytest.raises(ApiError) as excinfo:
        api.handle(path, query, method=method, body=body)
    assert excinfo.value.status == status
    assert excinfo.value.message


class TestApiErrorStatuses:
    @pytest.mark.parametrize("method,path,query,body", NOT_FOUND_CASES)
    def test_unknown_names_and_routes_are_404(
        self, api, method, path, query, body
    ):
        _expect_status(api, method, path, query, body, 404)

    @pytest.mark.parametrize("method,path,query,body", BAD_REQUEST_CASES)
    def test_malformed_requests_are_400(self, api, method, path, query, body):
        _expect_status(api, method, path, query, body, 400)

    @pytest.mark.parametrize("method,path,query,body", WRONG_METHOD_CASES)
    def test_wrong_methods_are_405(self, api, method, path, query, body):
        _expect_status(api, method, path, query, body, 405)

    def test_batch_post_without_records_list_is_400(self, api):
        api.handle(
            "/streams",
            method="POST",
            body={
                "name": "s",
                "config": {
                    "key": {"kind": "first_token", "attribute": "first"},
                    "similarities": {"first": "jaro_winkler"},
                    "threshold": 0.5,
                },
            },
        )
        for body in (None, {}, {"records": "nope"}):
            _expect_status(api, "POST", "/streams/s/batches", {}, body, 400)


class TestHttpErrorTranslation:
    @pytest.fixture
    def server(self, api):
        with FrostHttpServer(api, port=0) as server:
            yield server

    def _request(self, server, path, method="GET", data=None):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{path}", data=data, method=method
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())

    @pytest.mark.parametrize(
        "method,path,data,status",
        [
            ("GET", "/datasets/ghost", None, 404),
            ("GET", "/datasets/people/metrics", None, 400),
            ("POST", "/jobs", b"{not json", 400),
            ("DELETE", "/datasets", None, 405),
        ],
    )
    def test_error_documents_over_http(self, server, method, path, data, status):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._request(server, path, method=method, data=data)
        assert excinfo.value.code == status
        document = json.loads(excinfo.value.read())
        assert document["status"] == status
        assert document["error"]

    def test_unexpected_exceptions_become_json_500s(self, api, monkeypatch):
        """A server-side bug must answer, not kill the connection."""

        def explode(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(api, "handle", explode)
        with FrostHttpServer(api, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._request(server, "/datasets")
            assert excinfo.value.code == 500
            document = json.loads(excinfo.value.read())
            assert document["status"] == 500
            assert "RuntimeError" in document["error"]


class TestContentLength:
    """Malformed or oversized ``Content-Length`` headers on POST."""

    @pytest.fixture
    def server(self, api):
        with FrostHttpServer(api, port=0) as server:
            yield server

    def _exchange(
        self, server, content_length, body=b"", path="/jobs", half_close=False
    ):
        """Send a POST; return (status, document, closed).

        ``half_close`` shuts the client's sending side after ``body``,
        so the server sees the end of the stream."""
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: test\r\n".encode()
                + f"Content-Length: {content_length}\r\n\r\n".encode()
                + body
            )
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk  # a closed connection ends the loop
        head, _, body = received.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        return status, json.loads(body), b"connection: close" in head.lower()

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", "0x10", "\u00b2"])
    def test_malformed_length_is_400_and_closes(self, server, value):
        status, document, closed = self._exchange(server, value)
        assert status == 400
        assert document["status"] == 400
        assert "Content-Length" in document["error"]
        assert closed

    def test_oversized_length_is_413_without_reading_the_body(self, server):
        # No body follows: reading it would block until the handler's
        # idle timeout instead of answering at once.
        status, document, closed = self._exchange(server, MAX_BODY_BYTES + 1)
        assert status == 413
        assert document["status"] == 413
        assert closed

    def test_stalled_body_is_408_and_closes(self, server, monkeypatch):
        monkeypatch.setattr(server._server.RequestHandlerClass, "timeout", 0.5)
        status, document, closed = self._exchange(server, 100, b'{"kind"')
        assert status == 408
        assert document["status"] == 408
        assert closed

    def test_body_cut_short_is_400_and_not_served(self, server, api):
        body = json.dumps({
            "name": "short",
            "config": {
                "key": {"kind": "first_token", "attribute": "name"},
                "similarities": {"name": "jaro_winkler"},
            },
        }).encode()
        status, document, closed = self._exchange(
            server, len(body) + 50, body, path="/streams", half_close=True
        )
        assert status == 400
        assert document["status"] == 400
        assert "Content-Length" in document["error"]
        assert closed
        assert api.handle("/streams", {}, method="GET") == {"streams": []}

    def test_server_keeps_serving_after_a_rejection(self, server):
        self._exchange(server, "abc")
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/datasets", timeout=5
        ) as response:
            assert response.status == 200
