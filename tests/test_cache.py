"""Tests for client-side caching (repro.simulation.cache)."""

from __future__ import annotations

import pytest

from repro.core.item import DataItem
from repro.core.scheduler import DRPCDSAllocator
from repro.exceptions import SimulationError
from repro.simulation.cache import (
    ClientCache,
    LFUPolicy,
    LRUPolicy,
    PIXPolicy,
    simulate_with_cache,
)


def entry_items():
    return [
        DataItem("a", 0.5, 4.0),
        DataItem("b", 0.3, 4.0),
        DataItem("c", 0.2, 4.0),
    ]


class TestClientCache:
    def test_insert_and_hit(self):
        cache = ClientCache(10.0, LRUPolicy())
        a, b, _ = entry_items()
        cache.insert(a, now=1.0)
        assert "a" in cache
        assert cache.touch("a", now=2.0)
        assert not cache.touch("zz", now=2.0)
        assert cache.used == 4.0
        cache.insert(b, now=3.0)
        assert len(cache) == 2

    def test_capacity_is_size_based(self):
        cache = ClientCache(8.0, LRUPolicy())
        a, b, c = entry_items()
        cache.insert(a, 1.0)
        cache.insert(b, 2.0)
        cache.insert(c, 3.0)  # must evict one of the 4-unit items
        assert cache.used <= 8.0
        assert len(cache) == 2

    def test_lru_evicts_least_recent(self):
        cache = ClientCache(8.0, LRUPolicy())
        a, b, c = entry_items()
        cache.insert(a, 1.0)
        cache.insert(b, 2.0)
        cache.touch("a", 5.0)  # refresh a; b is now LRU
        cache.insert(c, 6.0)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_lfu_evicts_least_used(self):
        cache = ClientCache(8.0, LFUPolicy())
        a, b, c = entry_items()
        cache.insert(a, 1.0)
        cache.insert(b, 2.0)
        for t in range(3, 8):
            cache.touch("b", float(t))
        cache.insert(c, 9.0)  # a has 1 use, b has many
        assert "b" in cache
        assert "a" not in cache

    def test_oversized_item_never_cached(self):
        cache = ClientCache(3.0, LRUPolicy())
        cache.insert(DataItem("big", 0.5, 100.0), 1.0)
        assert len(cache) == 0

    def test_reinsert_counts_as_touch(self):
        cache = ClientCache(10.0, LFUPolicy())
        a = entry_items()[0]
        cache.insert(a, 1.0)
        cache.insert(a, 2.0)
        assert len(cache) == 1
        assert cache.used == 4.0

    def test_zero_capacity(self):
        cache = ClientCache(0.0, LRUPolicy())
        cache.insert(entry_items()[0], 1.0)
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(SimulationError):
            ClientCache(-1.0, LRUPolicy())


class TestPIXPolicy:
    def test_requires_binding(self):
        from repro.simulation.cache import _Entry

        policy = PIXPolicy()
        with pytest.raises(SimulationError, match="not bound"):
            policy.score(
                _Entry(item=DataItem("a", 0.5, 1.0), last_used=0.0, use_count=1)
            )

    def test_prefers_keeping_slow_reappearing_items(self, medium_db):
        """Among equally popular items, the one on the longer cycle has
        the higher retention score (more expensive to refetch)."""
        from repro.simulation.cache import _Entry
        from repro.simulation.server import BroadcastProgram

        allocation = DRPCDSAllocator().allocate(medium_db, 4).allocation
        program = BroadcastProgram(allocation)
        policy = PIXPolicy()
        policy.bind(program)
        cycles = {
            channel.channel_id: channel.cycle_length
            for channel in program.channels
        }
        short_channel = min(cycles, key=cycles.get)
        long_channel = max(cycles, key=cycles.get)
        fast = allocation.channel_items(short_channel)[0]
        slow = allocation.channel_items(long_channel)[0]
        # Equalise popularity to isolate the broadcast-frequency term.
        fast_like_slow = DataItem(fast.item_id, slow.frequency, fast.size)
        fast_score = policy.score(
            _Entry(item=fast_like_slow, last_used=0.0, use_count=1)
        )
        slow_score = policy.score(
            _Entry(item=slow, last_used=0.0, use_count=1)
        )
        assert slow_score > fast_score


class TestSimulateWithCache:
    @pytest.fixture(scope="class")
    def allocation(self):
        from repro.workloads.generator import WorkloadSpec, generate_database

        db = generate_database(
            WorkloadSpec(num_items=50, skewness=1.2, diversity=1.5, seed=6)
        )
        return DRPCDSAllocator().allocate(db, 5).allocation

    def test_report_shape(self, allocation):
        report = simulate_with_cache(
            allocation, capacity=20.0, num_requests=2000, seed=0
        )
        assert report.hits + report.misses == 2000
        assert 0.0 <= report.hit_rate <= 1.0
        assert report.effective.count == 2000

    def test_zero_capacity_matches_uncached_model(self, allocation):
        from repro.core.cost import average_waiting_time

        report = simulate_with_cache(
            allocation, capacity=0.0, num_requests=30000, seed=1
        )
        assert report.hit_rate == 0.0
        assert report.effective.mean == pytest.approx(
            average_waiting_time(allocation), rel=0.03
        )

    def test_cache_reduces_effective_waiting(self, allocation):
        uncached = simulate_with_cache(
            allocation, capacity=0.0, num_requests=8000, seed=2
        )
        cached = simulate_with_cache(
            allocation, capacity=50.0, num_requests=8000, seed=2
        )
        assert cached.hit_rate > 0.1
        assert cached.effective.mean < uncached.effective.mean

    def test_hit_rate_grows_with_capacity(self, allocation):
        rates = [
            simulate_with_cache(
                allocation, capacity=capacity, num_requests=5000, seed=3
            ).hit_rate
            for capacity in (5.0, 50.0, 500.0)
        ]
        assert rates[0] <= rates[1] <= rates[2]

    def test_policies_all_run(self, allocation):
        for policy in (LRUPolicy(), LFUPolicy(), PIXPolicy()):
            report = simulate_with_cache(
                allocation,
                capacity=30.0,
                policy=policy,
                num_requests=3000,
                seed=4,
            )
            assert report.effective.count == 3000

    def test_validation(self, allocation):
        with pytest.raises(SimulationError):
            simulate_with_cache(allocation, capacity=10.0, num_requests=0)
        with pytest.raises(SimulationError):
            simulate_with_cache(
                allocation, capacity=10.0, arrival_rate=0.0
            )

    def test_nan_arrival_rate_names_the_input(self, allocation):
        with pytest.raises(SimulationError, match="arrival_rate"):
            simulate_with_cache(
                allocation, capacity=10.0, arrival_rate=float("nan")
            )
