"""Cross-extension integration tests.

The extensions were built to compose; these tests exercise realistic
combinations the individual suites don't touch.
"""

from __future__ import annotations

import pytest

from repro.core.hetero import HeteroDRPCDSAllocator
from repro.core.incremental import insert_item, update_frequency
from repro.core.item import DataItem
from repro.core.scheduler import DRPCDSAllocator
from repro.simulation.cache import PIXPolicy, simulate_with_cache
from repro.simulation.indexing import IndexedChannel
from repro.simulation.queries import simulate_query_workload
from repro.simulation.simulator import run_broadcast_simulation
from repro.workloads.catalog import build_catalogue
from repro.workloads.estimator import estimate_database
from repro.workloads.generator import WorkloadSpec, generate_database
from repro.workloads.sketch import CountMinSketch
from repro.workloads.queries import generate_query_workload
from repro.workloads.trace import synthesize_trace


class TestEstimatedProfileDownstream:
    """A trace-estimated profile must flow through the whole stack."""

    @pytest.fixture(scope="class")
    def estimated_db(self):
        truth = generate_database(WorkloadSpec(num_items=40, seed=31))
        trace = synthesize_trace(truth, 20000, seed=1)
        sizes = {item.item_id: item.size for item in truth.items}
        sketch = CountMinSketch(exact=True)
        sketch.extend(trace)
        return estimate_database(sketch.estimate_profile(list(sizes)), sizes)

    def test_simulation_on_estimated_program(self, estimated_db):
        allocation = DRPCDSAllocator().allocate(estimated_db, 4).allocation
        report = run_broadcast_simulation(
            allocation, num_requests=10000, seed=2
        )
        # Requests are drawn from the estimated profile itself, so the
        # analytical model must hold as usual.
        assert report.relative_error < 0.05

    def test_hetero_on_estimated_profile(self, estimated_db):
        bandwidths = [20.0, 10.0, 5.0, 5.0]
        outcome = HeteroDRPCDSAllocator(bandwidths).allocate(
            estimated_db, 4
        )
        assert outcome.metadata["hetero_waiting_time"] > 0

    def test_incremental_edit_on_estimated_profile(self, estimated_db):
        allocation = DRPCDSAllocator().allocate(estimated_db, 4).allocation
        database, refreshed = insert_item(
            allocation, DataItem("breaking-news", 0.1, 2.0)
        )
        assert "breaking-news" in database
        assert refreshed.num_channels == 4


class TestMultimediaCatalogueDownstream:
    """The content-class catalogue through caching, indexing, queries."""

    @pytest.fixture(scope="class")
    def portal(self):
        database = build_catalogue(seed=9)
        allocation = DRPCDSAllocator().allocate(database, 6).allocation
        return database, allocation

    def test_pix_cache_over_portal(self, portal):
        database, allocation = portal
        report = simulate_with_cache(
            allocation,
            capacity=500.0,
            policy=PIXPolicy(),
            num_requests=4000,
            bandwidth=100.0,
            seed=3,
        )
        assert report.hit_rate > 0.05
        assert report.effective.count == 4000

    def test_indexing_hot_portal_channel(self, portal):
        database, allocation = portal
        hot = max(
            range(allocation.num_channels),
            key=lambda i: allocation.channel_stats[i].frequency,
        )
        items = allocation.channel_items(hot)
        channel = IndexedChannel(
            hot, items, 100.0, replication=min(2, len(items)),
            index_entry_size=0.1,
        )
        timing = channel.expected_timing(items[0].item_id)
        assert 0 < timing.tuning_time <= timing.waiting_time

    def test_query_workload_over_portal(self, portal):
        database, allocation = portal
        workload = generate_query_workload(
            database, 25, min_items=1, max_items=3, seed=4
        )
        summary = simulate_query_workload(
            allocation,
            workload,
            num_requests=600,
            bandwidth=100.0,
            seed=5,
        )
        assert summary.count == 600


class TestEditThenMeasure:
    def test_frequency_update_improves_measured_wait_for_item(self):
        """Promote an item, re-polish, and verify the *simulator*
        confirms its waiting time dropped — analytics and measurement
        agree through the edit path."""
        database = generate_database(WorkloadSpec(num_items=30, seed=17))
        allocation = DRPCDSAllocator().allocate(database, 4).allocation
        cold = database.sorted_by_frequency()[-1].item_id

        before = run_broadcast_simulation(
            allocation, num_requests=15000, seed=6
        )
        new_db, promoted = update_frequency(allocation, cold, 2.0)
        after = run_broadcast_simulation(
            promoted, num_requests=15000, seed=6
        )
        # The item is now dominant; its per-item measured wait must
        # shrink (it gets a short cycle).
        item_before = before.per_item.get(cold)
        item_after = after.per_item.get(cold)
        assert item_after is not None
        if item_before is not None:
            assert item_after.mean < item_before.mean
        # And the whole program's measured wait matches its own model.
        assert after.relative_error < 0.05
