"""Content-addressed result cache: in-process LRU over SQLite.

The engine's hot path — re-running an identical metrics or diagram job
while exploring results — is served from here instead of being
recomputed.  Lookups go memory first (an LRU of recently used
payloads), then the persistent ``result_cache`` table of a
:class:`~repro.storage.database.FrostStore` when one is attached, so
cached results survive process restarts and can be shared between CLI
invocations and the HTTP server.

Keys are the digests produced by :func:`repro.engine.jobs.job_cache_key`
over every input a job reads (artifact contents, the names its payload
prints, its config), values are JSON documents.

The in-memory tier is factored out as :class:`LruTier` so other caches
— notably the serving layer's
:class:`~repro.serving.cache.MetricResultCache` — share one audited
eviction implementation instead of re-growing their own.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.storage.database import FrostStore
from repro.telemetry.metrics import get_metrics

__all__ = ["ResultCache", "LruTier", "MISS"]

# Process-wide mirrors of the per-instance counters below, so the
# /metrics endpoint sees engine-cache traffic regardless of which
# engine instance served it.
_CACHE_HITS = get_metrics().counter(
    "frost_engine_cache_hits_total",
    "Engine result-cache hits (memory + store tiers)",
)
_CACHE_MISSES = get_metrics().counter(
    "frost_engine_cache_misses_total", "Engine result-cache misses"
)
_CACHE_PUTS = get_metrics().counter(
    "frost_engine_cache_puts_total", "Engine result-cache inserts"
)
_CACHE_EVICTIONS = get_metrics().counter(
    "frost_engine_cache_evictions_total",
    "Engine result-cache LRU evictions (memory tier)",
)

# Unique sentinel distinguishing "not cached" from any payload.
MISS: object = object()


class LruTier:
    """A bounded mapping with least-recently-used eviction.

    Not thread-safe by itself — callers hold their own lock around
    every method, which lets them update their counters atomically with
    the tier.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, object] = OrderedDict()

    def get(self, key: str) -> object:
        """The value under ``key`` (marked recently used), or :data:`MISS`."""
        if key not in self._entries:
            return MISS
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: str, value: object) -> int:
        """Store ``value`` under ``key``; returns how many of the least
        recently used entries were evicted to make room."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class ResultCache:
    """Two-tier (LRU memory + optional SQLite) result cache.

    Parameters
    ----------
    max_entries:
        Capacity of the in-memory tier; least recently used payloads
        are evicted first.  The persistent tier is unbounded.
    store:
        Optional :class:`FrostStore` backing the persistent tier.
    """

    def __init__(
        self, max_entries: int = 512, store: FrostStore | None = None
    ) -> None:
        self.max_entries = max_entries
        self.store = store
        self._memory = LruTier(max_entries)
        self._lock = threading.Lock()
        self.memory_hits = 0
        self.store_hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0

    def get(self, key: str) -> object:
        """The payload under ``key``, or the :data:`MISS` sentinel."""
        with self._lock:
            payload = self._memory.get(key)
            if payload is not MISS:
                self.memory_hits += 1
                _CACHE_HITS.inc()
                return payload
        if self.store is not None:
            payload = self.store.cache_get(key)
            if payload is not None:
                with self._lock:
                    self.store_hits += 1
                    _CACHE_HITS.inc()
                    self._remember(key, payload)
                return payload
        with self._lock:
            self.misses += 1
        _CACHE_MISSES.inc()
        return MISS

    def put(self, key: str, kind: str, payload: object) -> None:
        """Cache ``payload`` (a JSON document) in both tiers."""
        with self._lock:
            self.puts += 1
            self._remember(key, payload)
        _CACHE_PUTS.inc()
        if self.store is not None:
            self.store.cache_put(key, kind, payload)

    def _remember(self, key: str, payload: object) -> None:
        evicted = self._memory.put(key, payload)
        self.evictions += evicted
        if evicted:
            _CACHE_EVICTIONS.inc(evicted)

    def clear(self) -> None:
        """Drop both tiers (counters are kept)."""
        with self._lock:
            self._memory.clear()
        if self.store is not None:
            self.store.cache_clear()

    @property
    def hits(self) -> int:
        """Total hits across both tiers."""
        return self.memory_hits + self.store_hits

    def __len__(self) -> int:
        return len(self._memory)

    def stats(self) -> dict[str, int]:
        """Counters as a JSON-serializable dictionary."""
        return {
            "entries": len(self._memory),
            "memory_hits": self.memory_hits,
            "store_hits": self.store_hits,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }
