"""Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.

Every serving-path component — the engine result cache, the serving
payload cache, the request coalescer, the storage connection pool, the
blocking/comparison stages — registers named instruments here, so one
registry snapshot describes the whole system and one Prometheus-style
exposition (:func:`repro.telemetry.export.render_prometheus`) serves
``GET /metrics``.

Design constraints:

* **exactness under concurrency** — every mutation takes the
  instrument's lock; eight HTTP threads incrementing one counter lose
  nothing (a bare ``+=`` on an attribute is *not* atomic in CPython);
* **get-or-create registration** — instruments are addressed by name,
  so independent modules share one counter by naming it identically
  (re-registering with a different type is an error, not a silent
  shadow).
"""

from __future__ import annotations

import bisect
import threading
from collections.abc import Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "DEFAULT_LATENCY_BUCKETS",
]

# Upper bucket bounds (seconds) spanning cached microseconds to
# multi-second cold evaluations; +Inf is implicit.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class _Instrument:
    """Shared plumbing: name, help text, a lock."""

    __slots__ = ("name", "help", "_lock")

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()


class Counter(_Instrument):
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    kind = "counter"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def _snapshot(self) -> dict[str, object]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Gauge(_Instrument):
    """A value that can go up and down (pool sizes, queue depths)."""

    __slots__ = ("_value",)

    kind = "gauge"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._value = 0.0

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def _snapshot(self) -> dict[str, object]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Histogram(_Instrument):
    """Fixed-bucket distribution of observed values.

    Buckets are cumulative upper bounds (Prometheus semantics): an
    observation lands in every bucket whose bound is >= the value,
    with an implicit +Inf bucket counting everything.
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot: +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows, +Inf last."""
        with self._lock:
            rows: list[tuple[float, int]] = []
            running = 0
            for bound, count in zip(self.buckets, self._counts):
                running += count
                rows.append((bound, running))
            rows.append((float("inf"), running + self._counts[-1]))
            return rows

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0

    def _snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "type": self.kind,
                "help": self.help,
                "count": self._count,
                "sum": self._sum,
                "buckets": {
                    str(bound): count
                    for bound, count in zip(self.buckets, self._counts)
                },
            }


class MetricsRegistry:
    """Named instruments with snapshot/reset semantics.

    Registration is get-or-create and thread-safe; module-level
    instrument handles stay valid across :meth:`reset` because a reset
    zeroes values instead of replacing objects.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    # -- registration -----------------------------------------------------------

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(name, help_text, Counter)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(name, help_text, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(
                        f"metric {name!r} is a {existing.kind}, not a histogram"
                    )
                return existing
            instrument = Histogram(name, help_text, buckets=buckets)
            self._instruments[name] = instrument
            return instrument

    def _register(self, name: str, help_text: str, cls) -> object:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} is a {existing.kind}, "
                        f"not a {cls.kind}"
                    )
                return existing
            instrument = cls(name, help_text)
            self._instruments[name] = instrument
            return instrument

    def get(self, name: str) -> _Instrument | None:
        """The instrument registered under ``name``, if any."""
        with self._lock:
            return self._instruments.get(name)

    # -- reading ----------------------------------------------------------------

    def instruments(self) -> list[_Instrument]:
        """Every registered instrument, name-ordered."""
        with self._lock:
            return [self._instruments[name] for name in sorted(self._instruments)]

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Full JSON-serializable state of every instrument."""
        return {
            instrument.name: instrument._snapshot()
            for instrument in self.instruments()
        }

    def values(self) -> dict[str, object]:
        """Flat ``name -> value`` view (histograms as count/sum pairs)."""
        flat: dict[str, object] = {}
        for instrument in self.instruments():
            if isinstance(instrument, Histogram):
                flat[f"{instrument.name}_count"] = instrument.count
                flat[f"{instrument.name}_sum"] = instrument.sum
            else:
                flat[instrument.name] = instrument.value
        return flat

    def reset(self) -> None:
        """Zero every instrument (handles stay valid)."""
        for instrument in self.instruments():
            instrument._reset()


_DEFAULT_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide default registry every subsystem registers into."""
    return _DEFAULT_REGISTRY
