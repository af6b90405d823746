"""The bounded LRU result cache, its time-to-live, and its crash-tolerant
wrappers."""

import pytest

from repro.obs.metrics import MetricsRegistry, collecting
from repro.resilience.faultinject import injecting
from repro.service.cache import ResultCache, cache_key, safe_lookup, safe_store


class TestCacheKey:
    def test_no_options_is_the_bare_fingerprint(self):
        assert cache_key("abc123") == "abc123"
        assert cache_key("abc123", {}) == "abc123"

    def test_options_change_the_key(self):
        assert cache_key("fp", {"ranges": True}) != cache_key("fp")
        assert cache_key("fp", {"ranges": True}) != cache_key(
            "fp", {"ranges": False}
        )

    def test_option_ordering_is_canonicalized(self):
        assert cache_key("fp", {"a": 1, "b": 2}) == cache_key(
            "fp", {"b": 2, "a": 1}
        )


class TestLRU:
    def test_get_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", {"status": "ok"})
        assert cache.get("k") == {"status": "ok"}
        assert len(cache) == 1

    def test_eviction_drops_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")  # refresh: b is now the LRU entry
        cache.put("c", {"v": 3})
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}

    def test_put_refreshes_existing_key(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.put("a", {"v": 10})  # refresh, not insert
        cache.put("c", {"v": 3})
        assert cache.get("a") == {"v": 10}
        assert cache.get("b") is None

    def test_capacity_zero_stores_nothing(self):
        cache = ResultCache(capacity=0)
        cache.put("a", {"v": 1})
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_clear_and_snapshot(self):
        cache = ResultCache(capacity=8)
        cache.put("a", {"v": 1})
        assert cache.snapshot() == {"entries": 1, "capacity": 8}
        cache.clear()
        assert cache.snapshot() == {"entries": 0, "capacity": 8}

    def test_metrics(self):
        with collecting(MetricsRegistry()) as registry:
            cache = ResultCache(capacity=1)
            cache.get("a")  # miss
            cache.put("a", {"v": 1})
            cache.get("a")  # hit
            cache.put("b", {"v": 2})  # evicts a
        counters = registry.snapshot()["counters"]
        assert counters["service.cache.misses"] == 1
        assert counters["service.cache.hits"] == 1
        assert counters["service.cache.evictions"] == 1


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestTimeToLive:
    def test_entry_is_served_until_its_ttl_runs_out(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, clock=clock)
        cache.put("k", {"v": 1}, ttl_s=30.0)
        clock.now += 29.5
        assert cache.get("k") == {"v": 1}
        clock.now += 0.5
        with collecting(MetricsRegistry()) as registry:
            assert cache.get("k") is None
        assert len(cache) == 0  # the expired entry is dropped
        assert registry.snapshot()["counters"]["service.cache.misses"] == 1

    def test_entry_without_ttl_never_expires(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, clock=clock)
        cache.put("k", {"v": 1})
        clock.now += 1e9
        assert cache.get("k") == {"v": 1}

    def test_put_replaces_the_ttl(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, clock=clock)
        cache.put("k", {"v": 1}, ttl_s=1.0)
        cache.put("k", {"v": 2})
        clock.now += 5.0
        assert cache.get("k") == {"v": 2}

    def test_safe_store_passes_the_ttl(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, clock=clock)
        safe_store(cache, "k", {"v": 1}, ttl_s=1.0)
        clock.now += 1.0
        assert safe_lookup(cache, "k") is None


class TestContainment:
    """A broken cache degrades throughput, never a request."""

    def test_safe_lookup_contains_the_injected_fault(self):
        cache = ResultCache(capacity=4)
        cache.put("k", {"v": 1})
        with collecting(MetricsRegistry()) as registry:
            with injecting("serve.cache"):
                assert safe_lookup(cache, "k") is None
        assert registry.snapshot()["counters"]["service.cache.errors"] == 1

    def test_safe_store_contains_the_injected_fault(self):
        cache = ResultCache(capacity=4)
        with collecting(MetricsRegistry()) as registry:
            with injecting("serve.cache"):
                safe_store(cache, "k", {"v": 1})
        assert len(cache) == 0
        assert registry.snapshot()["counters"]["service.cache.errors"] == 1

    def test_safe_wrappers_pass_through_when_healthy(self):
        cache = ResultCache(capacity=4)
        safe_store(cache, "k", {"v": 1})
        assert safe_lookup(cache, "k") == {"v": 1}
