"""LRUCache semantics + the "eviction never changes a feature" contract.

Two layers: the cache itself (recency order, eviction at cap, counter
reconciliation) and the extractor built on it — feature vectors must be
bitwise-identical whether the profile memo always hits, always thrashes
(capacity 1), or sits at the default cap, because a hit is defined as
``refresh_age_slots`` over the cached base, which recomputes exactly
the slots that depend on *now*.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.detector import extract_rows, time_order
from repro.features.cache import LRUCache
from repro.features.extractor import FeatureExtractor
from repro.features.profile import profile_features
from repro.obs import get_registry


class TestLRUSemantics:
    def test_get_miss_then_hit(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_eviction_drops_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: "b" is now LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_put_refresh_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh in place
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get("a") == 10

    def test_iteration_is_lru_first_and_accounting_neutral(self):
        cache = LRUCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        cache.get("a")
        before = (cache.hits, cache.misses)
        assert list(cache) == ["b", "c", "a"]
        assert "b" in cache
        assert (cache.hits, cache.misses) == before

    def test_clear_preserves_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (1, 1)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_counters_reconcile_under_random_workload(self):
        rng = np.random.default_rng(41)
        cache = LRUCache(8)
        for __ in range(3_000):
            key = int(rng.integers(0, 32))
            if rng.random() < 0.5:
                cache.get(key)
            else:
                cache.put(key, key)
            assert cache.hits + cache.misses == cache.lookups
            assert len(cache) <= cache.capacity
        assert 0.0 <= cache.hit_rate <= 1.0


class TestExtractorCacheEquivalence:
    def test_thrashing_cache_is_bitwise_identical(self, capture_stream):
        ordered = [capture_stream[i] for i in time_order(capture_stream)]
        default, thrashed, roomy = (
            extract_rows(FeatureExtractor(profile_cache_cap=cap), ordered)
            for cap in (None, 1, 1_000_000)
        )
        assert np.array_equal(default, thrashed)
        assert np.array_equal(default, roomy)

    def test_cache_hit_equals_recompute(self, capture_stream):
        profile = capture_stream[0].tweet.user
        extractor = FeatureExtractor()
        first = extractor._profile_features_cached(profile, 100.0)
        assert np.array_equal(first, profile_features(profile, 100.0))
        later = extractor._profile_features_cached(profile, 7_200.0)
        assert extractor.profile_cache_hits == 1
        assert np.array_equal(later, profile_features(profile, 7_200.0))

    def test_registry_mirror_matches_cache_counters(self, capture_stream):
        ordered = [capture_stream[i] for i in time_order(capture_stream)]
        extractor = FeatureExtractor()
        extract_rows(extractor, ordered)
        counters = get_registry().counter_values("features.profile_cache")
        assert counters["features.profile_cache.hits"] == (
            extractor.profile_cache_hits
        )
        assert counters["features.profile_cache.misses"] == (
            extractor.profile_cache_misses
        )
        assert (
            extractor.profile_cache_hits + extractor.profile_cache_misses
            == extractor._pf_cache.lookups
        )
        assert extractor.profile_cache_misses > 0
