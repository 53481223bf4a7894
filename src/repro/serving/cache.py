"""Thread-safe read-through cache for served evaluation payloads.

The serving layer's hot path is a GET for a metrics table, diagram, or
error categorization that was already computed for another client.
:class:`MetricResultCache` keeps those JSON payloads in a bounded LRU
keyed by :func:`repro.engine.jobs.job_cache_key` digests over every
input a payload reads, so identical requests hit regardless of which
client asked first.

An entry is never dropped because of a write.  The registry is
append-only and every graph write moves the graph's meta row, so a
write changes the key of each payload it affects; the next read
computes under the new key, and the old entry ages out of the LRU.
"""

from __future__ import annotations

import threading

from repro.engine.cache import MISS, LruTier
from repro.telemetry.metrics import get_metrics

__all__ = ["MetricResultCache"]

# Process-wide mirrors of the instance counters, feeding GET /metrics.
_SERVING_HITS = get_metrics().counter(
    "frost_serving_cache_hits_total", "Serving payload-cache hits"
)
_SERVING_MISSES = get_metrics().counter(
    "frost_serving_cache_misses_total", "Serving payload-cache misses"
)
_SERVING_PUTS = get_metrics().counter(
    "frost_serving_cache_puts_total", "Serving payload-cache inserts"
)
_SERVING_EVICTIONS = get_metrics().counter(
    "frost_serving_cache_evictions_total", "Serving payload-cache evictions"
)


class MetricResultCache:
    """Bounded LRU of served payloads.

    Parameters
    ----------
    max_entries:
        Capacity; least recently used payloads are evicted first.

    All methods are safe to call from the HTTP server's request
    threads concurrently.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        self._tier = LruTier(max_entries)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0

    @property
    def max_entries(self) -> int:
        """The configured LRU capacity."""
        return self._tier.max_entries

    def get(self, key: str) -> object:
        """The payload under ``key``, or the :data:`MISS` sentinel."""
        with self._lock:
            payload = self._tier.get(key)
            if payload is MISS:
                self.misses += 1
                _SERVING_MISSES.inc()
            else:
                self.hits += 1
                _SERVING_HITS.inc()
            return payload

    def recheck(self, key: str) -> object:
        """Like :meth:`get`, but a miss is not re-counted.

        For double-checked lookups after a coalesced flight: finding a
        payload is a genuine hit (another flight landed it), while not
        finding one is the *same* logical miss that was already counted
        before the caller queued for the flight.
        """
        with self._lock:
            payload = self._tier.get(key)
            if payload is not MISS:
                self.hits += 1
                _SERVING_HITS.inc()
            return payload

    def put(self, key: str, payload: object) -> None:
        """Cache ``payload`` under ``key``."""
        with self._lock:
            self.puts += 1
            _SERVING_PUTS.inc()
            evicted = self._tier.put(key, payload)
            self.evictions += evicted
            if evicted:
                _SERVING_EVICTIONS.inc(evicted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._tier)

    def stats(self) -> dict[str, int]:
        """Counters as a JSON-serializable dictionary."""
        with self._lock:
            return {
                "entries": len(self._tier),
                "max_entries": self._tier.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
            }
