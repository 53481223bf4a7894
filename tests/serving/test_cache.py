"""Tests for the serving layer's read-through payload cache."""

import threading

import pytest

from repro.engine.cache import MISS, LruTier
from repro.serving.cache import MetricResultCache


class TestLruTier:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LruTier(0)

    def test_get_marks_recently_used(self):
        tier = LruTier(2)
        tier.put("a", 1)
        tier.put("b", 2)
        assert tier.get("a") == 1  # refresh "a"
        assert tier.put("c", 3) == 1
        assert tier.get("b") is MISS
        assert tier.get("a") == 1

    def test_put_returns_the_eviction_count(self):
        tier = LruTier(1)
        assert tier.put("a", 1) == 0
        assert tier.put("b", 2) == 1
        assert tier.get("a") is MISS
        assert len(tier) == 1


class TestMetricResultCache:
    def test_miss_then_hit(self):
        cache = MetricResultCache(max_entries=4)
        assert cache.get("k") is MISS
        cache.put("k", {"value": 1})
        assert cache.get("k") == {"value": 1}
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["puts"] == 1
        assert stats["entries"] == 1

    def test_lru_eviction_updates_counters(self):
        cache = MetricResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.get("a") is MISS
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_concurrent_mixed_operations_stay_consistent(self):
        cache = MetricResultCache(max_entries=64)
        errors = []
        barrier = threading.Barrier(8)

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=10)
                for round_index in range(200):
                    key = f"k{round_index % 32}"
                    cache.put(key, index)
                    cache.get(key)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        stats = cache.stats()
        assert stats["puts"] == 8 * 200
        assert stats["entries"] <= 64
