"""Unit tests for repro.simulation.client."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulation.client import RequestGenerator


class TestGeneration:
    def test_request_count(self, medium_db):
        generator = RequestGenerator(medium_db, seed=0)
        arrivals, picks = generator.sample_batch(500)
        assert len(arrivals) == len(picks) == 500

    def test_arrival_times_increase(self, medium_db):
        generator = RequestGenerator(medium_db, seed=0)
        times = generator.sample_batch(200)[0].tolist()
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_request_ids_sequential(self, medium_db):
        # A request's id is its position in the stream: one arrival and
        # one pick per index 0..n-1.
        generator = RequestGenerator(medium_db, seed=0)
        arrivals, picks = generator.sample_batch(50)
        assert arrivals.shape == picks.shape == (50,)
        assert np.array_equal(np.argsort(arrivals, kind="stable"), range(50))

    def test_reproducible(self, medium_db):
        a = RequestGenerator(medium_db, seed=9).sample_batch(100)
        b = RequestGenerator(medium_db, seed=9).sample_batch(100)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_zero_requests(self, medium_db):
        arrivals, picks = RequestGenerator(medium_db, seed=0).sample_batch(0)
        assert arrivals.size == 0 and picks.size == 0

    def test_negative_requests_rejected(self, medium_db):
        with pytest.raises(SimulationError):
            RequestGenerator(medium_db, seed=0).sample_batch(-1)


def requested_ids(generator, num_requests):
    """Item id of every request in a stream, in arrival order."""
    _, picks = generator.sample_batch(num_requests)
    return [generator.item_ids[pick] for pick in picks.tolist()]


class TestDistributions:
    def test_arrival_rate_controls_spacing(self, medium_db):
        slow, _ = RequestGenerator(
            medium_db, arrival_rate=1.0, seed=0
        ).sample_batch(5000)
        fast, _ = RequestGenerator(
            medium_db, arrival_rate=10.0, seed=0
        ).sample_batch(5000)
        assert slow[-1] == pytest.approx(10 * fast[-1], rel=0.1)

    def test_mean_interarrival_matches_rate(self, medium_db):
        rate = 4.0
        arrivals, _ = RequestGenerator(
            medium_db, arrival_rate=rate, seed=1
        ).sample_batch(20000)
        mean_gap = arrivals[-1] / len(arrivals)
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.05)

    def test_item_choice_follows_frequencies(self, medium_db):
        requests = requested_ids(RequestGenerator(medium_db, seed=2), 50000)
        counts = {}
        for item_id in requests:
            counts[item_id] = counts.get(item_id, 0) + 1
        # The hottest item should be requested ~ f_hot of the time.
        hottest = medium_db.sorted_by_frequency()[0]
        observed = counts.get(hottest.item_id, 0) / len(requests)
        assert observed == pytest.approx(hottest.frequency, rel=0.1)

    def test_custom_request_probabilities(self, tiny_db):
        # All mass on item "c".
        generator = RequestGenerator(
            tiny_db, seed=0, request_probabilities=[0, 0, 1, 0]
        )
        assert all(item_id == "c" for item_id in requested_ids(generator, 100))

    def test_probabilities_renormalised(self, tiny_db):
        generator = RequestGenerator(
            tiny_db, seed=0, request_probabilities=[2.0, 2.0, 0.0, 0.0]
        )
        ids = set(requested_ids(generator, 500))
        assert ids == {"a", "b"}


class TestValidation:
    def test_bad_rate(self, tiny_db):
        with pytest.raises(SimulationError):
            RequestGenerator(tiny_db, arrival_rate=0.0)

    def test_probability_length_mismatch(self, tiny_db):
        with pytest.raises(SimulationError, match="4 items"):
            RequestGenerator(tiny_db, request_probabilities=[1.0])

    def test_negative_probability(self, tiny_db):
        with pytest.raises(SimulationError):
            RequestGenerator(
                tiny_db, request_probabilities=[-1.0, 1.0, 1.0, 1.0]
            )

    def test_zero_sum_probabilities(self, tiny_db):
        with pytest.raises(SimulationError):
            RequestGenerator(
                tiny_db, request_probabilities=[0.0, 0.0, 0.0, 0.0]
            )

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_rate(self, tiny_db, rate):
        with pytest.raises(SimulationError, match="arrival_rate"):
            RequestGenerator(tiny_db, arrival_rate=rate)

    def test_nan_probability(self, tiny_db):
        with pytest.raises(SimulationError, match="request probabilities"):
            RequestGenerator(
                tiny_db, request_probabilities=[float("nan"), 1.0, 1.0, 1.0]
            )
