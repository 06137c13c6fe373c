"""Tests for on-demand broadcast scheduling (repro.simulation.ondemand)."""

from __future__ import annotations

import pytest

from repro.core.scheduler import DRPCDSAllocator
from repro.exceptions import SimulationError
from repro.simulation.ondemand import (
    FCFSPolicy,
    MRFPolicy,
    PendingItem,
    RxWPolicy,
    SizeAwareRxWPolicy,
    compare_push_pull,
    simulate_on_demand,
)
from repro.workloads.generator import WorkloadSpec, generate_database


@pytest.fixture(scope="module")
def db():
    return generate_database(
        WorkloadSpec(num_items=40, skewness=1.0, diversity=1.5, seed=3)
    )


class TestPolicies:
    def make_queue(self, now=10.0):
        return {
            # 3 requests, oldest waited 8s, size 10.
            "popular": PendingItem("popular", 10.0, [2.0, 5.0, 9.0]),
            # 1 request, oldest waited 9s, size 10.
            "old": PendingItem("old", 10.0, [1.0]),
            # 2 requests, oldest waited 4s, tiny size.
            "small": PendingItem("small", 0.5, [6.0, 8.0]),
        }

    def test_fcfs_picks_oldest(self):
        assert FCFSPolicy().pick(self.make_queue(), 10.0, 10.0) == "old"

    def test_mrf_picks_biggest_batch(self):
        assert MRFPolicy().pick(self.make_queue(), 10.0, 10.0) == "popular"

    def test_rxw_balances_count_and_wait(self):
        # popular: 3*8=24; old: 1*9=9; small: 2*4=8.
        assert RxWPolicy().pick(self.make_queue(), 10.0, 10.0) == "popular"

    def test_size_aware_prefers_cheap_airtime(self):
        # small: 2*4/(0.05)=160 dominates popular's 24/1=24.
        assert (
            SizeAwareRxWPolicy().pick(self.make_queue(), 10.0, 10.0)
            == "small"
        )

    def test_empty_queue_rejected(self):
        with pytest.raises(SimulationError):
            RxWPolicy().pick({}, 0.0, 10.0)

    def test_tie_break_is_stable(self):
        queue = {
            "b": PendingItem("b", 1.0, [0.0]),
            "a": PendingItem("a", 1.0, [0.0]),
        }
        # Equal priority: max() over sorted ids with equal key keeps the
        # last among sorted -> deterministic either way; just assert
        # determinism.
        first = MRFPolicy().pick(dict(queue), 5.0, 10.0)
        second = MRFPolicy().pick(dict(queue), 5.0, 10.0)
        assert first == second


class TestSimulateOnDemand:
    def test_all_requests_served(self, db):
        report = simulate_on_demand(
            db, num_requests=1000, arrival_rate=2.0, seed=0
        )
        assert report.waiting.count == 1000
        assert report.stretch.count == 1000
        assert report.broadcasts >= 1

    def test_waits_at_least_transmission_time(self, db):
        report = simulate_on_demand(
            db, num_requests=500, arrival_rate=0.1, seed=1
        )
        min_transmission = min(i.size for i in db) / 10.0
        assert report.waiting.minimum >= min_transmission - 1e-9

    def test_stretch_at_least_one(self, db):
        report = simulate_on_demand(
            db, num_requests=500, arrival_rate=1.0, seed=2
        )
        assert report.stretch.minimum >= 1.0 - 1e-9

    def test_reproducible(self, db):
        a = simulate_on_demand(db, num_requests=400, seed=5)
        b = simulate_on_demand(db, num_requests=400, seed=5)
        assert a.waiting.mean == b.waiting.mean

    def test_low_load_means_no_batching(self, db):
        report = simulate_on_demand(
            db, num_requests=500, arrival_rate=0.01, seed=3
        )
        assert report.batched_ratio < 0.05
        assert report.mean_batch_size == pytest.approx(1.0, abs=0.05)

    def test_high_load_batches(self, db):
        report = simulate_on_demand(
            db,
            num_requests=3000,
            arrival_rate=100.0,
            num_channels=2,
            seed=4,
        )
        assert report.batched_ratio > 0.2
        assert report.mean_batch_size > 1.2

    def test_more_channels_cut_waits(self, db):
        slow = simulate_on_demand(
            db, num_channels=1, num_requests=1500, arrival_rate=5.0, seed=6
        )
        fast = simulate_on_demand(
            db, num_channels=4, num_requests=1500, arrival_rate=5.0, seed=6
        )
        assert fast.waiting.mean < slow.waiting.mean

    def test_validation(self, db):
        with pytest.raises(SimulationError):
            simulate_on_demand(db, num_requests=0)
        with pytest.raises(SimulationError):
            simulate_on_demand(db, num_channels=0)
        with pytest.raises(SimulationError):
            simulate_on_demand(db, arrival_rate=0.0)

    def test_nan_arrival_rate_names_the_input(self, db):
        with pytest.raises(SimulationError, match="arrival_rate"):
            simulate_on_demand(db, arrival_rate=float("nan"))


class TestPushPullComparison:
    def test_crossover_shape(self, db):
        """Pull wins the quiet end; push resists load."""
        allocation = DRPCDSAllocator().allocate(db, 4).allocation
        rows = compare_push_pull(
            db,
            allocation,
            rates=(0.1, 100.0),
            num_channels=4,
            num_requests=2500,
        )
        low_rate, high_rate = rows[0], rows[1]
        # Push wait is load-independent.
        assert low_rate[2] == high_rate[2]
        # Pull beats push when the air is quiet...
        assert low_rate[1] < low_rate[2]
        # ...and degrades as load grows.
        assert high_rate[1] > low_rate[1]

    def test_validation(self, db):
        allocation = DRPCDSAllocator().allocate(db, 4).allocation
        with pytest.raises(SimulationError):
            compare_push_pull(
                db, allocation, rates=(), num_channels=4
            )
        with pytest.raises(SimulationError):
            compare_push_pull(
                db, allocation, rates=(-1.0,), num_channels=4
            )
