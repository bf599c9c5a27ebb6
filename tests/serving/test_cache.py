"""Tests for the content-hash-keyed surface LRU cache."""

import pytest

from repro.serving.cache import LRUCache


class TestLRUCache:
    def test_put_get_round_trip(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache and len(cache) == 1

    def test_miss_without_loader_returns_none(self):
        cache = LRUCache(capacity=2)
        assert cache.get("missing") is None
        assert cache.misses == 1

    def test_load_through_on_miss(self):
        cache = LRUCache(capacity=2)
        calls = []

        def loader():
            calls.append(1)
            return "value"

        assert cache.get("k", loader) == "value"
        assert cache.get("k", loader) == "value"
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_put_updates_existing_key_without_eviction(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.get("a") == 10
        assert len(cache) == 2 and cache.evictions == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_stats(self):
        cache = LRUCache(capacity=1)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["size"] == 1 and stats["capacity"] == 1


class TestThreadSafety:
    def test_concurrent_misses_run_loader_once(self):
        import threading
        import time

        cache = LRUCache(capacity=4)
        calls = []
        started = threading.Barrier(6)

        def loader():
            calls.append(1)
            time.sleep(0.05)
            return "value"

        results = []

        def worker():
            started.wait()
            results.append(cache.get("k", loader))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert results == ["value"] * 6

    def test_failing_loader_propagates_to_all_waiters(self):
        import threading
        import time

        cache = LRUCache(capacity=4)
        calls = []
        errors = []
        release = threading.Event()

        def loader():
            calls.append(1)
            # Hold the load open until the other three callers have joined
            # it, so none can arrive after it failed and start a second one.
            release.wait(timeout=10.0)
            raise RuntimeError("disk on fire")

        def worker():
            try:
                cache.get("bad", loader)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10.0
        while cache.coalesced < 3 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert errors == ["disk on fire"] * 4
        assert "bad" not in cache  # failed loads must not cache

    def test_failed_key_can_be_retried(self):
        cache = LRUCache(capacity=4)

        def boom():
            raise RuntimeError("once")

        with pytest.raises(RuntimeError):
            cache.get("k", boom)
        assert cache.get("k", lambda: 42) == 42

    def test_concurrent_puts_respect_capacity(self):
        import threading

        cache = LRUCache(capacity=8)

        def worker(base):
            for i in range(50):
                cache.put(f"{base}-{i}", i)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 8


class TestSingleFlightAccounting:
    """Pre-PR-7, every single-flight follower counted as a miss, so the
    reported miss count could exceed the number of loads actually paid."""

    def test_followers_count_coalesced_not_missed(self):
        import threading

        cache = LRUCache(capacity=2)
        n_followers = 5
        release = threading.Event()
        entered = threading.Event()

        def slow_loader():
            entered.set()
            release.wait(timeout=5.0)
            return "value"

        results = []
        lock = threading.Lock()

        def get():
            value = cache.get("k", slow_loader)
            with lock:
                results.append(value)

        leader = threading.Thread(target=get)
        leader.start()
        assert entered.wait(timeout=5.0)
        followers = [threading.Thread(target=get) for _ in range(n_followers)]
        for thread in followers:
            thread.start()
        # Followers are parked on the flight; only the leader loads.
        release.set()
        leader.join()
        for thread in followers:
            thread.join()

        assert results == ["value"] * (n_followers + 1)
        assert cache.misses == 1
        assert cache.coalesced == n_followers
        assert cache.hits == 0

    def test_loader_exception_shared_and_key_stays_uncached(self):
        import threading

        cache = LRUCache(capacity=2)
        release = threading.Event()
        entered = threading.Event()

        def failing_loader():
            entered.set()
            release.wait(timeout=5.0)
            raise OSError("disk gone")

        errors = []
        lock = threading.Lock()

        def get():
            try:
                cache.get("k", failing_loader)
            except OSError as exc:
                with lock:
                    errors.append(exc)

        leader = threading.Thread(target=get)
        leader.start()
        assert entered.wait(timeout=5.0)
        follower = threading.Thread(target=get)
        follower.start()
        release.set()
        leader.join()
        follower.join()

        assert len(errors) == 2
        assert "k" not in cache
        # The next get retries the loader (a fresh miss, not a hit).
        assert cache.get("k", lambda: "ok") == "ok"
        assert cache.misses == 2

    def test_hit_rate_counts_coalesced_as_served(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.coalesced += 2  # as if two followers shared one load
        stats = cache.stats()
        assert stats["coalesced"] == 2
        assert stats["hit_rate"] == (1 + 2) / (1 + 2 + 0)
