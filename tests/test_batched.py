"""Parity tests: closed-form simulation vs the event-driven reference.

The production simulator promises *bitwise-identical* statistics to
the event-driven :func:`repro.verify.reference.run_broadcast_simulation`
for the same seed — same request stream, same per-request waiting
times, same exact-fsum summaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.allocation import ChannelAllocation
from repro.core.scheduler import DRPCDSAllocator
from repro.exceptions import SimulationError
from repro.simulation.client import RequestGenerator
from repro.simulation.server import BroadcastProgram
from repro.simulation.simulator import (
    request_waiting_times,
    run_broadcast_simulation,
)
from repro.verify import reference


@pytest.fixture
def allocation(medium_db):
    return DRPCDSAllocator().allocate(medium_db, 4).allocation


def assert_reports_match(engine_report, batched_report):
    assert engine_report.measured == batched_report.measured
    assert engine_report.per_item == batched_report.per_item
    assert engine_report.num_requests == batched_report.num_requests
    assert (
        engine_report.analytical_waiting_time
        == batched_report.analytical_waiting_time
    )


def both(allocation, **kwargs):
    """(event-driven reference, production) reports for one input."""
    return (
        reference.run_broadcast_simulation(allocation, **kwargs),
        run_broadcast_simulation(allocation, **kwargs),
    )


class TestSampleBatch:
    def test_empty_batch(self, medium_db):
        arrivals, picks = RequestGenerator(medium_db).sample_batch(0)
        assert arrivals.size == 0 and picks.size == 0

    def test_negative_rejected(self, medium_db):
        with pytest.raises(SimulationError):
            RequestGenerator(medium_db).sample_batch(-1)


class TestBatchedWaitingTimes:
    def test_matches_channel_timing_per_request(self, allocation):
        program = BroadcastProgram(allocation)
        generator = RequestGenerator(allocation.database, seed=3)
        arrivals, picks = generator.sample_batch(300)
        item_ids = generator.item_ids
        waits = request_waiting_times(program, item_ids, arrivals, picks)
        for i in range(300):
            expected = program.waiting_time(
                item_ids[int(picks[i])], float(arrivals[i])
            )
            assert waits[i] == expected  # bitwise, not approx

    def test_waits_bounded_below_by_download(self, allocation):
        program = BroadcastProgram(allocation)
        generator = RequestGenerator(allocation.database, seed=5)
        arrivals, picks = generator.sample_batch(1000)
        waits = request_waiting_times(
            program, generator.item_ids, arrivals, picks
        )
        min_download = min(
            channel.transmission_time(item.item_id)
            for channel in program.channels
            for item in channel.items
        )
        assert float(np.min(waits)) >= min_download - 1e-12


class TestEngineParity:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_identical_reports(self, allocation, seed):
        engine, batched = both(allocation, num_requests=2000, seed=seed)
        assert_reports_match(engine, batched)
        assert batched.num_requests == 2000

    def test_heterogeneous_bandwidths_parity(self, allocation):
        bandwidths = [10.0] * allocation.num_channels
        bandwidths[0] = 40.0
        engine, batched = both(
            allocation, bandwidths=bandwidths, num_requests=1500, seed=2
        )
        assert_reports_match(engine, batched)

    def test_request_probability_override_parity(self, allocation):
        database = allocation.database
        cold = database.sorted_by_frequency()[-1]
        probabilities = [
            1.0 if item.item_id == cold.item_id else 0.0
            for item in database.items
        ]
        engine, batched = both(
            allocation,
            num_requests=800,
            seed=0,
            request_probabilities=probabilities,
        )
        assert_reports_match(engine, batched)
        assert set(batched.per_item) == {cold.item_id}

    def test_arrival_rate_parity(self, allocation):
        engine, batched = both(
            allocation, num_requests=1000, arrival_rate=12.5, seed=4
        )
        assert_reports_match(engine, batched)

    def test_tiny_allocation_parity(self, tiny_db):
        allocation = ChannelAllocation(
            tiny_db, [tiny_db.items[:2], tiny_db.items[2:]]
        )
        engine, batched = both(allocation, num_requests=400, seed=9)
        assert_reports_match(engine, batched)


class TestValidation:
    def test_bad_request_count(self, allocation):
        with pytest.raises(SimulationError):
            run_broadcast_simulation(allocation, num_requests=0)
        with pytest.raises(SimulationError):
            reference.run_broadcast_simulation(allocation, num_requests=0)

    def test_analytical_model_still_converges(self, allocation):
        report = run_broadcast_simulation(
            allocation, num_requests=40_000, seed=1
        )
        assert report.relative_error < 0.03
