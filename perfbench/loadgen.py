"""Open-loop HTTP load: requests go out on a fixed schedule.

Independent analysts do not wait for each other, so request ``i`` is
*due* at ``start + i / rate`` whatever happened before it.  A few
keep-alive connections carry the load; a request whose connection is
still busy waits, and its latency is measured from when it was due,
so a stall shows in every request queued behind it.  Writes are
serialized (a write is sent only after the previous write answered)
so the server applies them in schedule order, and every request
records how many writes had completed when it was sent and had
started when it finished: the range of versions it may have read.

Requests that read what the writes change are never in flight
together with a write: the store reloads a match graph with several
statements outside one read transaction, so a reload racing a batch
write can see half of it.  Such a request or write waits instead, and
the wait counts in its latency.
"""

from __future__ import annotations

import http.client
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    """One scheduled request.

    ``family`` groups requests by route for per-route latency;
    ``fresh`` marks keys the server cannot have cached; ``write``
    marks requests that change server state and ``conflicts`` reads
    of the state they change.
    """

    family: str
    method: str
    path: str
    body: bytes | None = None
    fresh: bool = False
    write: bool = False
    conflicts: bool = False


@dataclass
class Sample:
    """What happened to one request (``time.perf_counter`` seconds)."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""
    writes_before: int = 0
    writes_by_end: int = 0

    @property
    def latency(self) -> float:
        """Seconds from due to answered: what the analyst waited."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """Seconds from sent to answered: what the server took."""
        return self.done - self.sent

    @property
    def late(self) -> float:
        """Seconds the request left after it was due."""
        return self.sent - self.due


Send = Callable[[int, Request], tuple[int, bytes]]
# A request unanswered this long counts as failed.
SEND_TIMEOUT_S = 30.0


class OpenLoop:
    """Drive ``requests`` at ``rate`` per second over ``connections``.

    ``send(connection, request)`` performs one request on connection
    number ``connection`` and returns ``(status, body)``; it may raise,
    which records status 0.
    """

    def __init__(
        self,
        requests: Sequence[Request],
        rate: float,
        connections: int,
        send: Send,
    ) -> None:
        if rate <= 0 or connections < 1:
            raise ValueError("need a positive rate and at least one connection")
        self.requests = list(requests)
        self.rate = rate
        self.connections = connections
        self.send = send
        self._tickets: dict[int, int] = {}
        for index, request in enumerate(self.requests):
            if request.write:
                self._tickets[index] = len(self._tickets)
        self._lock = threading.Condition()
        self._next = 0
        self._writes_started = 0
        self._writes_done = 0
        self._writers_waiting = 0
        self._readers = 0

    def run(self) -> list[Sample]:
        """Send every request; returns samples in schedule order."""
        # The first request is due shortly after the workers start.
        start = time.perf_counter() + 0.05
        samples = [
            Sample(index=i, due=start + i / self.rate)
            for i in range(len(self.requests))
        ]
        workers = [
            threading.Thread(target=self._work, args=(c, samples), daemon=True)
            for c in range(self.connections)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        return samples

    def _work(self, connection: int, samples: list[Sample]) -> None:
        while True:
            with self._lock:
                index = self._next
                if index >= len(samples):
                    return
                self._next += 1
            sample, request = samples[index], self.requests[index]
            wait = sample.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            with self._lock:
                if request.write:
                    # Waiting writers hold back new conflicting reads.
                    self._writers_waiting += 1
                    while (self._writes_done < self._tickets[index]
                           or self._readers):
                        self._lock.wait()
                    self._writers_waiting -= 1
                    self._writes_started += 1
                elif request.conflicts:
                    while (self._writers_waiting
                           or self._writes_started > self._writes_done):
                        self._lock.wait()
                    self._readers += 1
                sample.writes_before = self._writes_done
            sample.sent = time.perf_counter()
            try:
                sample.status, sample.body = self.send(connection, request)
            except Exception as error:  # noqa: BLE001 - recorded as a failure
                sample.error = f"{type(error).__name__}: {error}"
            sample.done = time.perf_counter()
            with self._lock:
                if request.write:
                    self._writes_done += 1
                elif request.conflicts:
                    self._readers -= 1
                self._lock.notify_all()
                sample.writes_by_end = self._writes_started


class HttpSender:
    """One keep-alive ``http.client`` connection per load connection."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.host, self.port = host, port
        self._connections: list[http.client.HTTPConnection | None] = (
            [None] * connections
        )

    def __call__(self, connection: int, request: Request) -> tuple[int, bytes]:
        client = self._connections[connection]
        if client is None:
            client = http.client.HTTPConnection(
                self.host, self.port, timeout=SEND_TIMEOUT_S
            )
            self._connections[connection] = client
        headers = {"Content-Type": "application/json"} if request.body else {}
        try:
            client.request(request.method, request.path, body=request.body,
                           headers=headers)
            response = client.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            # A broken connection is reopened for the next request; this
            # one is lost and counts as failed.
            client.close()
            self._connections[connection] = None
            raise

    def close(self) -> None:
        for client in self._connections:
            if client is not None:
                client.close()
        self._connections = [None] * len(self._connections)
