"""Unit tests for profile estimation (repro.workloads.estimator).

Profiles come from the one estimator, the count-min sketch: offline
traces go through ``CountMinSketch(exact=True)``, whose exact counters
make ``estimate_profile`` the plain (no half-life) or exponentially
decayed (with one) smoothed relative counts.
"""

from __future__ import annotations

import pytest

from repro.core.item import DataItem
from repro.exceptions import SimulationError
from repro.workloads.estimator import estimate_database, profile_l1_error
from repro.workloads.sketch import CountMinSketch
from repro.workloads.trace import RequestTrace, synthesize_trace


def make_trace(pairs):
    trace = RequestTrace()
    for t, item in pairs:
        trace.record(t, item)
    return trace


def exact_profile(trace, catalogue, *, smoothing=1.0, half_life=None):
    sketch = CountMinSketch(exact=True, half_life=half_life)
    sketch.extend(trace)
    return sketch.estimate_profile(catalogue, smoothing=smoothing)


class TestCountEstimator:
    """Plain relative counts: the exact sketch without a half-life."""

    def test_unsmoothed_relative_counts(self):
        trace = make_trace([(0, "a"), (1, "a"), (2, "b"), (3, "c")])
        estimate = exact_profile(trace, ["a", "b", "c"], smoothing=0.0)
        assert estimate == pytest.approx({"a": 0.5, "b": 0.25, "c": 0.25})

    def test_smoothing_gives_unseen_items_mass(self):
        trace = make_trace([(0, "a")])
        estimate = exact_profile(trace, ["a", "b"], smoothing=1.0)
        assert estimate["b"] > 0
        assert estimate["a"] > estimate["b"]
        assert sum(estimate.values()) == pytest.approx(1.0)

    def test_empty_trace_with_smoothing_is_uniform(self):
        estimate = exact_profile(RequestTrace(), ["a", "b"])
        assert estimate == pytest.approx({"a": 0.5, "b": 0.5})

    def test_empty_trace_without_smoothing_rejected(self):
        with pytest.raises(SimulationError):
            exact_profile(RequestTrace(), ["a"], smoothing=0.0)

    def test_foreign_items_rejected(self):
        trace = make_trace([(0, "zz")])
        with pytest.raises(SimulationError, match="outside the catalogue"):
            exact_profile(trace, ["a"])

    def test_negative_smoothing_rejected(self):
        with pytest.raises(SimulationError):
            exact_profile(RequestTrace(), ["a"], smoothing=-1.0)

    def test_duplicate_catalogue_rejected(self):
        with pytest.raises(SimulationError, match="duplicate"):
            exact_profile(RequestTrace(), ["a", "a"])

    def test_recovers_true_profile_from_large_trace(self, medium_db):
        trace = synthesize_trace(medium_db, 60000, seed=0)
        estimate = exact_profile(
            trace, list(medium_db.item_ids), smoothing=0.5
        )
        truth = {item.item_id: item.frequency for item in medium_db}
        assert profile_l1_error(estimate, truth) < 0.05


class TestDecayEstimator:
    """Exponentially decayed counts: the exact sketch with a half-life."""

    def test_recent_requests_dominate(self):
        # Item "old" was popular long ago; "new" recently.
        trace = make_trace(
            [(0, "old"), (1, "old"), (2, "old"), (100, "new"), (101, "new")]
        )
        estimate = exact_profile(
            trace, ["old", "new"], half_life=5.0, smoothing=0.0
        )
        assert estimate["new"] > 0.9

    def test_long_half_life_approaches_plain_counts(self):
        trace = make_trace([(0, "a"), (1, "a"), (2, "b")])
        decayed = exact_profile(
            trace, ["a", "b"], half_life=1e9, smoothing=0.0
        )
        plain = exact_profile(trace, ["a", "b"], smoothing=0.0)
        assert decayed["a"] == pytest.approx(plain["a"], rel=1e-6)

    def test_normalised(self):
        trace = make_trace([(0, "a"), (10, "b"), (20, "a")])
        estimate = exact_profile(trace, ["a", "b", "c"], half_life=7.0)
        assert sum(estimate.values()) == pytest.approx(1.0)

    def test_empty_trace_with_smoothing_is_uniform(self):
        estimate = exact_profile(RequestTrace(), ["a", "b"], half_life=1.0)
        assert estimate == pytest.approx({"a": 0.5, "b": 0.5})

    @pytest.mark.parametrize("half_life", [0.0, -1.0, float("inf")])
    def test_bad_half_life(self, half_life):
        with pytest.raises(SimulationError):
            CountMinSketch(exact=True, half_life=half_life)

    def test_foreign_items_rejected(self):
        trace = make_trace([(0, "zz")])
        with pytest.raises(SimulationError, match="outside"):
            exact_profile(trace, ["a"], half_life=1.0)


class TestEstimateDatabase:
    def test_builds_normalised_database(self, medium_db):
        trace = synthesize_trace(medium_db, 5000, seed=1)
        sizes = {item.item_id: item.size for item in medium_db}
        estimated = estimate_database(exact_profile(trace, list(sizes)), sizes)
        assert len(estimated) == len(medium_db)
        assert estimated.is_normalized
        assert list(estimated.item_ids) == list(sizes)
        for item in estimated:
            assert item.size == sizes[item.item_id]

    def test_custom_estimator(self, medium_db):
        trace = synthesize_trace(medium_db, 2000, seed=1)
        sizes = {item.item_id: item.size for item in medium_db}
        estimated = estimate_database(
            exact_profile(trace, list(sizes), half_life=100.0), sizes
        )
        assert estimated.is_normalized

    def test_empty_catalogue_rejected(self):
        with pytest.raises(SimulationError):
            estimate_database({}, {})

    def test_profile_must_cover_the_catalogue(self):
        sizes = {"a": 1.0, "b": 2.0}
        with pytest.raises(SimulationError, match=r"missing from profile: \['b'\]"):
            estimate_database({"a": 1.0}, sizes)
        with pytest.raises(SimulationError, match=r"not in catalogue: \['c'\]"):
            estimate_database({"a": 0.5, "b": 0.25, "c": 0.25}, sizes)

    def test_allocation_quality_from_estimated_profile(self, medium_db):
        """An allocation built from a large trace is nearly as good as
        one built from the truth — the closed-loop sanity check."""
        from repro.core.cost import allocation_cost
        from repro.core.scheduler import DRPCDSAllocator

        trace = synthesize_trace(medium_db, 50000, seed=3)
        sizes = {item.item_id: item.size for item in medium_db}
        estimated = estimate_database(exact_profile(trace, list(sizes)), sizes)
        allocator = DRPCDSAllocator()
        from_truth = allocator.allocate(medium_db, 5).cost
        # Evaluate the estimated-profile allocation under the TRUE
        # frequencies.
        allocation = allocator.allocate(estimated, 5).allocation
        groups = [
            [medium_db[item.item_id] for item in group]
            for group in allocation.channels
        ]
        from repro.core.allocation import ChannelAllocation

        under_truth = allocation_cost(
            ChannelAllocation(medium_db, groups)
        )
        assert under_truth <= from_truth * 1.05


class TestProfileL1Error:
    def test_zero_for_identical(self):
        profile = {"a": 0.3, "b": 0.7}
        assert profile_l1_error(profile, dict(profile)) == 0.0

    def test_known_distance(self):
        assert profile_l1_error(
            {"a": 1.0, "b": 0.0}, {"a": 0.0, "b": 1.0}
        ) == pytest.approx(2.0)

    def test_mismatched_keys_rejected(self):
        with pytest.raises(SimulationError):
            profile_l1_error({"a": 1.0}, {"b": 1.0})

    def test_mismatch_error_names_the_offending_items(self):
        """The error identifies which ids differ — debuggability for
        catalogue/estimate drift in long-running serve loops."""
        with pytest.raises(
            SimulationError, match=r"missing from estimate: \['b'\]"
        ):
            profile_l1_error({"a": 1.0, "c": 0.0}, {"a": 1.0, "b": 0.0})
        with pytest.raises(SimulationError, match=r"not in truth: \['c'\]"):
            profile_l1_error({"a": 1.0, "c": 0.0}, {"a": 1.0, "b": 0.0})


class TestZeroFrequencyEdgeCases:
    """Items never observed in the stream (ISSUE 10 satellite 4).

    With ``smoothing = 0`` an unseen catalogue item estimates to
    frequency 0, which the analytical model rejects — at item
    construction (``InvalidItemError``) and again at cost evaluation
    (``InvalidAllocationError`` for a zero-frequency channel).
    ``estimate_database`` fails fast with an actionable message, on the
    offline path and at the live service's epoch close alike; any
    ``smoothing > 0`` floors every item at a positive frequency.
    """

    def test_unsmoothed_unseen_item_estimates_to_exact_zero(self):
        trace = make_trace([(0, "a"), (1, "a")])
        estimate = exact_profile(trace, ["a", "b"], smoothing=0.0)
        assert estimate["b"] == 0.0
        decayed = exact_profile(
            trace, ["a", "b"], half_life=5.0, smoothing=0.0
        )
        assert decayed["b"] == 0.0

    def test_estimate_database_fails_fast_with_guidance(self):
        trace = make_trace([(0, "a"), (1, "a"), (2, "b")])
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0}
        with pytest.raises(SimulationError, match="smoothing > 0"):
            estimate_database(
                exact_profile(trace, list(sizes), smoothing=0.0), sizes
            )

    def test_error_names_the_unobserved_items(self):
        trace = make_trace([(0, "a")])
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0}
        with pytest.raises(SimulationError, match=r"\['b', 'c'\]"):
            estimate_database(
                exact_profile(trace, list(sizes), smoothing=0.0), sizes
            )

    def test_serve_with_zero_smoothing_fails_with_guidance(self):
        """The live service's epoch close builds its believed database
        through ``estimate_database`` too, so an unrequested item fails
        with the same guidance instead of a bare ``InvalidItemError``."""
        from repro.service import BroadcastService
        from repro.workloads.trace import TraceRecord

        service = BroadcastService(
            {"a": 1.0, "b": 2.0, "c": 3.0},
            2,
            epoch_seconds=10.0,
            smoothing=0.0,
        )
        records = [
            TraceRecord(timestamp=t, item_id=item)
            for t, item in [(0.0, "a"), (1.0, "a"), (2.0, "b"), (11.0, "a")]
        ]
        with pytest.raises(
            SimulationError, match=r"\['c'\].*smoothing > 0"
        ):
            service.run(records)

    def test_zero_frequency_item_rejected_at_construction(self):
        from repro.exceptions import InvalidItemError

        with pytest.raises(InvalidItemError):
            DataItem("cold", frequency=0.0, size=1.0)

    def test_zero_frequency_group_rejected_on_allocation_path(self):
        """Even if a zero slipped past item validation (e.g. a foreign
        stand-in object), the cost model refuses a channel nobody ever
        tunes into."""
        from types import SimpleNamespace

        from repro.core.cost import channel_waiting_time
        from repro.exceptions import InvalidAllocationError

        phantom = SimpleNamespace(
            item_id="cold", frequency=0.0, size=1.0, weight=0.0
        )
        with pytest.raises(InvalidAllocationError, match="no client"):
            channel_waiting_time([phantom])

    def test_smoothing_floor_keeps_unseen_items_allocatable(self):
        trace = make_trace([(0, "a"), (1, "a"), (2, "b")])
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0}
        for smoothing in (1e-9, 0.5, 1.0):
            estimated = estimate_database(
                exact_profile(trace, list(sizes), smoothing=smoothing), sizes
            )
            assert min(item.frequency for item in estimated) > 0.0
            assert estimated.is_normalized

    def test_sketch_profile_matches_the_same_contract(self):
        """The streaming path makes the identical smoothing trade."""
        from repro.workloads.sketch import CountMinSketch

        sketch = CountMinSketch(1024, 4)
        sketch.add("a")
        sketch.add("a")
        profile = sketch.estimate_profile(["a", "b"], smoothing=0.0)
        assert profile["b"] == 0.0  # same zero-frequency hazard
        floored = sketch.estimate_profile(["a", "b"], smoothing=1.0)
        assert floored["b"] > 0.0
        assert sum(floored.values()) == pytest.approx(1.0)
