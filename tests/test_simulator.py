"""Integration tests for the end-to-end simulator."""

from __future__ import annotations

import pytest

from repro.core.allocation import ChannelAllocation
from repro.core.scheduler import DRPCDSAllocator
from repro.exceptions import SimulationError
from repro.simulation.simulator import run_broadcast_simulation
from repro.verify import reference


@pytest.fixture
def allocation(medium_db):
    return DRPCDSAllocator().allocate(medium_db, 4).allocation


class TestRunSimulation:
    def test_report_shape(self, allocation):
        report = run_broadcast_simulation(
            allocation, num_requests=2000, seed=0
        )
        assert report.num_requests == 2000
        # Every request served, exactly as the event-driven reference
        # (one arrival and one delivery event per request) serves it.
        assert report == reference.run_broadcast_simulation(
            allocation, num_requests=2000, seed=0
        )
        assert report.measured.count == 2000
        assert report.per_item  # at least the hot items appear

    def test_measured_converges_to_analytical(self, allocation):
        report = run_broadcast_simulation(
            allocation, num_requests=40000, seed=1
        )
        assert report.relative_error < 0.03

    def test_more_requests_tighter_ci(self, allocation):
        small = run_broadcast_simulation(allocation, num_requests=500, seed=0)
        large = run_broadcast_simulation(
            allocation, num_requests=20000, seed=0
        )
        assert large.measured.ci_halfwidth < small.measured.ci_halfwidth

    def test_reproducible(self, allocation):
        a = run_broadcast_simulation(allocation, num_requests=1000, seed=5)
        b = run_broadcast_simulation(allocation, num_requests=1000, seed=5)
        assert a.measured.mean == b.measured.mean

    def test_arrival_rate_does_not_bias_mean(self, allocation):
        slow = run_broadcast_simulation(
            allocation, num_requests=20000, arrival_rate=0.5, seed=2
        )
        fast = run_broadcast_simulation(
            allocation, num_requests=20000, arrival_rate=20.0, seed=2
        )
        assert slow.measured.mean == pytest.approx(
            fast.measured.mean, rel=0.05
        )

    def test_all_waits_at_least_download_time(self, tiny_db):
        allocation = ChannelAllocation(
            tiny_db, [tiny_db.items[:2], tiny_db.items[2:]]
        )
        report = run_broadcast_simulation(
            allocation, num_requests=500, bandwidth=10.0, seed=0
        )
        min_download = min(item.size for item in tiny_db) / 10.0
        assert report.measured.minimum >= min_download - 1e-12

    def test_bad_request_count(self, allocation):
        with pytest.raises(SimulationError):
            run_broadcast_simulation(allocation, num_requests=0)


class TestBandwidthEffects:
    def test_doubling_bandwidth_halves_waits(self, allocation):
        # The *expectation* scales exactly with 1/b; the measured means
        # only approximately, because the same absolute arrival times
        # land at different cycle phases once cycles shrink.
        base = run_broadcast_simulation(
            allocation, num_requests=20000, bandwidth=10.0, seed=3
        )
        double = run_broadcast_simulation(
            allocation, num_requests=20000, bandwidth=20.0, seed=3
        )
        assert double.analytical_waiting_time == pytest.approx(
            base.analytical_waiting_time / 2.0
        )
        assert double.measured.mean == pytest.approx(
            base.measured.mean / 2.0, rel=0.05
        )

    def test_heterogeneous_bandwidths_accepted(self, allocation):
        bandwidths = [10.0] * allocation.num_channels
        bandwidths[0] = 40.0
        report = run_broadcast_simulation(
            allocation,
            bandwidths=bandwidths,
            num_requests=2000,
            seed=0,
        )
        assert report.num_requests == 2000


class TestProfileMismatch:
    def test_mismatched_requests_break_model_match(self, allocation):
        """With all requests on one cold item the analytical W_b
        (computed for the optimised profile) no longer predicts the
        measured mean."""
        database = allocation.database
        cold = database.sorted_by_frequency()[-1]
        probabilities = [
            1.0 if item.item_id == cold.item_id else 0.0
            for item in database.items
        ]
        report = run_broadcast_simulation(
            allocation,
            num_requests=5000,
            seed=0,
            request_probabilities=probabilities,
        )
        expected = None
        from repro.simulation.server import BroadcastProgram

        program = BroadcastProgram(allocation)
        expected = program.expected_waiting_time(cold.item_id)
        assert report.measured.mean == pytest.approx(expected, rel=0.05)
