"""Multi-threaded HTTP front-end for the Frost API (Appendix A.4–A.5).

Built on the stdlib ``http.server`` so that, like Snowman, the platform
"requires no installation or external dependencies" and can be deployed
"both on local computers and in shared cloud environments".  The server
is concurrent: ``ThreadingHTTPServer`` handles each connection on its
own daemon thread, HTTP/1.1 keep-alive lets load clients reuse
connections, and the expensive GET evaluations behind the API are
cached and coalesced by the serving layer (:mod:`repro.serving`), so
many clients asking the same question cost one computation.

:func:`serve` is the foreground entry point used by
``python -m repro serve``: it supports ephemeral ``--port 0`` binding
(announcing the bound port on stdout, so integration tests never race
for a free port) and shuts down gracefully — finishing in-flight
requests and releasing the socket — on SIGINT or SIGTERM.
"""

from __future__ import annotations

import contextlib
import json
import logging
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlparse

from repro.server.api import ApiError, FrostApi
from repro.telemetry.logging import bind_request_id, new_request_id
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import get_tracer

__all__ = ["serve", "FrostHttpServer"]

# One structured line per served request, at DEBUG so the default log
# level keeps test and benchmark output quiet.
_ACCESS_LOG = logging.getLogger("repro.server.access")

# Metric names are derived from the first path segment, restricted to
# the known route families so an arbitrary request path cannot mint
# unbounded (or malformed) metric names.
_ENDPOINT_FAMILIES = frozenset(
    {"datasets", "graph", "jobs", "streams", "stats", "metrics",
     "healthz", "readyz"}
)

# Per-endpoint latency SLOs (milliseconds).  Responses slower than the
# family's threshold burn the family's error budget, counted in
# ``frost_http_{family}_slo_burn_total``.
_SLO_MS = {
    "metrics": 50.0,
    "healthz": 50.0,
    "readyz": 50.0,
    "stats": 100.0,
}
_DEFAULT_SLO_MS = 500.0

# Largest POST body the server reads; a larger declared Content-Length
# is refused with 413 before any of the body is read.
MAX_BODY_BYTES = 64 * 1024 * 1024


def _endpoint_family(path: str) -> str:
    segment = next((part for part in path.split("/") if part), "")
    return segment if segment in _ENDPOINT_FAMILIES else "other"


def _observe_request(path: str, duration_seconds: float) -> None:
    """Feed one served request into the per-endpoint-family metrics."""
    family = _endpoint_family(path)
    registry = get_metrics()
    registry.counter(
        f"frost_http_{family}_requests_total",
        f"HTTP requests served under /{family}",
    ).inc()
    registry.histogram(
        f"frost_http_{family}_request_seconds",
        f"HTTP request latency under /{family}",
    ).observe(duration_seconds)
    slo_ms = _SLO_MS.get(family, _DEFAULT_SLO_MS)
    if duration_seconds * 1000.0 > slo_ms:
        registry.counter(
            f"frost_http_{family}_slo_burn_total",
            f"HTTP requests under /{family} slower than the "
            f"{slo_ms:g}ms latency SLO",
        ).inc()


class _FrontendServer(ThreadingHTTPServer):
    """ThreadingHTTPServer tuned for bursts of concurrent clients.

    The socketserver default listen backlog of 5 drops SYNs when more
    clients connect at once than that, and a dropped SYN is retried
    after a full second — a silent 1s latency cliff under exactly the
    load this subsystem exists for.

    Handler threads are non-daemon so ``server_close()`` joins them:
    graceful shutdown really does wait for in-flight requests instead
    of abandoning them mid-computation.  The handler's idle timeout
    (below) bounds how long a silent keep-alive connection can delay
    that join.
    """

    request_queue_size = 128
    daemon_threads = False


def _make_handler(api: FrostApi) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        # Keep-alive: clients (and the load harness) reuse connections
        # instead of paying a TCP handshake per request.  Safe because
        # every response carries an explicit Content-Length.
        protocol_version = "HTTP/1.1"
        # Without these, headers and body leave in separate TCP
        # segments and Nagle + delayed-ACK stall every cached keep-alive
        # response by ~40ms — dwarfing the cache's microseconds.
        disable_nagle_algorithm = True
        wbufsize = -1  # fully buffered; flushed once per response
        # Idle keep-alive connections release their handler thread
        # after this many seconds, bounding graceful-shutdown joins.
        timeout = 10

        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            """Serve one API GET request as JSON."""
            self._serve("GET", None)

        def do_PUT(self) -> None:  # noqa: N802 (stdlib naming)
            """Answer 405 as a JSON document (the API has no PUT routes)."""
            self._serve("PUT", None)

        def do_DELETE(self) -> None:  # noqa: N802 (stdlib naming)
            """Answer 405 as a JSON document (the API has no DELETE routes)."""
            self._serve("DELETE", None)

        def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
            """Serve one API POST request (JSON body) — job submission.

            A ``Content-Length`` that is not a non-negative integer gets
            a 400, and one above :data:`MAX_BODY_BYTES` a 413 without
            the body being read; both close the connection, since the
            unread body would otherwise be parsed as the next request.
            A body shorter than its ``Content-Length`` is never served:
            it gets a 408 when the client stops sending for
            :attr:`timeout` seconds and a 400 when the connection ends
            first, both closing the connection.
            """
            declared = (self.headers.get("Content-Length") or "0").strip()
            if not (declared.isascii() and declared.isdigit()):
                self._reject(400, f"invalid Content-Length {declared!r}")
                return
            length = int(declared)
            if length > MAX_BODY_BYTES:
                self._reject(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                )
                return
            try:
                raw = self.rfile.read(length) if length else b""
            except TimeoutError:
                self._reject(
                    408, f"request body not received within {self.timeout}s"
                )
                return
            if len(raw) < length:
                self._reject(
                    400,
                    f"request body ended after {len(raw)} of the "
                    f"{length} bytes its Content-Length declares",
                )
                return
            try:
                body = json.loads(raw) if raw else None
            except json.JSONDecodeError:
                self._respond(400, {"error": "invalid JSON body", "status": 400})
                return
            self._serve("POST", body)

        def _serve(self, method: str, body: object) -> None:
            parsed = urlparse(self.path)
            query = dict(parse_qsl(parsed.query))
            # Honor the client's correlation id, mint one otherwise;
            # echoed back as X-Request-Id and bound to this handler
            # thread (plus the request span) so every log line and span
            # the request produces — here, in the serving layer, on
            # engine workers — shares it.
            request_id = (
                (self.headers.get("X-Request-Id") or "").strip()
                or new_request_id()
            )
            self._request_id = request_id
            tracer = get_tracer()
            route = parsed.path.rstrip("/") or "/"
            with bind_request_id(request_id), tracer.span(
                "http.request",
                method=method,
                path=parsed.path,
                request_id=request_id,
            ) as http_span:
                if method == "GET" and route == "/metrics":
                    # Prometheus exposition is text, not JSON — the one
                    # route served outside the JSON dispatcher.
                    status = 200
                    self._respond_text(status, api.metrics_text())
                elif method == "GET" and route == "/healthz":
                    status = 200
                    self._respond(status, api.health())
                elif method == "GET" and route == "/readyz":
                    ready, payload = api.readiness()
                    status = 200 if ready else 503
                    self._respond(status, payload)
                else:
                    retry_after = None
                    try:
                        payload = api.handle(
                            parsed.path, query, method=method, body=body
                        )
                        status = 200
                    except ApiError as error:
                        payload = {"error": error.message, "status": error.status}
                        status = error.status
                        retry_after = error.retry_after
                    except Exception as error:  # noqa: BLE001 - wire boundary
                        # Anything unexpected (storage contention, a
                        # bug) must still answer: an unanswered
                        # keep-alive request kills the connection and
                        # every request queued behind it.
                        payload = {
                            "error": f"{type(error).__name__}: {error}",
                            "status": 500,
                        }
                        status = 500
                    self._respond(status, payload, retry_after=retry_after)
                http_span.annotate(status=status)
            duration_ms = http_span.seconds * 1000.0
            _observe_request(parsed.path, http_span.seconds)
            _ACCESS_LOG.debug(
                "%s %s -> %d in %.2fms [%s]",
                method,
                self.path,
                status,
                duration_ms,
                request_id,
                extra={
                    "request_id": request_id,
                    "method": method,
                    "status": status,
                    "duration_ms": round(duration_ms, 3),
                },
            )

        def _reject(self, status: int, message: str) -> None:
            """Answer a malformed request with a JSON error and hang up."""
            self._respond(
                status, {"error": message, "status": status}, close=True
            )

        def _respond(
            self,
            status: int,
            payload: object,
            close: bool = False,
            retry_after: int | None = None,
        ) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            if retry_after is not None:
                self.send_header("Retry-After", str(retry_after))
            if close:
                # also sets close_connection, ending the keep-alive loop
                self.send_header("Connection", "close")
            self._send_common_headers(len(body))
            self.wfile.write(body)

        def _respond_text(self, status: int, text: str) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self._send_common_headers(len(body))
            self.wfile.write(body)

        def _send_common_headers(self, content_length: int) -> None:
            request_id = getattr(self, "_request_id", None)
            if request_id is not None:
                self.send_header("X-Request-Id", request_id)
            self.send_header("Content-Length", str(content_length))
            self.end_headers()

        def log_request(self, code: object = "-", size: object = "-") -> None:
            """No-op: _serve emits the structured access line itself."""

        def log_message(self, format: str, *args: object) -> None:
            """Route stdlib handler messages (errors) through logging.

            ``BaseHTTPRequestHandler`` writes these to stderr by
            default; sending them to the access logger at DEBUG keeps
            test output quiet under the default log level while still
            making them available to a structured config.
            """
            _ACCESS_LOG.debug(format, *args)

    return Handler


class FrostHttpServer:
    """A background HTTP server over a :class:`FrostApi`.

    >>> server = FrostHttpServer(api, port=0)   # doctest: +SKIP
    >>> server.start()                          # doctest: +SKIP
    >>> server.port                             # doctest: +SKIP

    Requests are handled concurrently (one daemon thread per
    connection); ``port=0`` binds an ephemeral port, read back through
    :attr:`port` — the pattern every integration test and the load
    harness use so parallel runs never collide on a socket.
    """

    def __init__(self, api: FrostApi, host: str = "127.0.0.1", port: int = 0) -> None:
        self.api = api
        self._server = _FrontendServer((host, port), _make_handler(api))
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The TCP port the server is bound to."""
        return self._server.server_address[1]

    def start(self) -> None:
        """Start serving requests on a background thread."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the server and release the socket."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "FrostHttpServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve(
    api: FrostApi,
    host: str = "127.0.0.1",
    port: int = 8080,
    announce=print,
    on_bound=None,
) -> int:
    """Serve the API in the foreground until SIGINT/SIGTERM.

    Binds first (``port=0`` picks an ephemeral port), then announces
    ``serving on http://{host}:{port}`` through ``announce`` so callers
    — and the integration tests driving this as a subprocess — learn
    the bound port before the first request.  SIGINT and SIGTERM
    trigger a graceful shutdown: in-flight requests finish, the socket
    is closed and released, and the previous signal handlers are
    restored.  Returns the bound port.

    ``on_bound`` (optional) receives the bound ``ThreadingHTTPServer``
    before serving starts — embedders and in-process tests use it to
    call ``shutdown()`` without resorting to signals.
    """
    server = _FrontendServer((host, port), _make_handler(api))
    bound_port = server.server_address[1]
    announce(f"serving on http://{host}:{bound_port}")
    if on_bound is not None:
        on_bound(server)

    def request_shutdown(signum: int, frame: object) -> None:
        # shutdown() blocks until serve_forever() exits, and this
        # handler runs *inside* serve_forever's thread — hand it off.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(ValueError):  # not the main thread
            previous[signum] = signal.signal(signum, request_shutdown)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return bound_port
