"""Property-based tests (hypothesis) for the extension modules.

Covers the invariants of the heterogeneous-bandwidth model, (1, m)
indexing, trace/estimation, and persistence round-trips for arbitrary
valid inputs.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocation import ChannelAllocation
from repro.core.cost import average_waiting_time
from repro.core.database import BroadcastDatabase
from repro.core.hetero import (
    hetero_cds_refine,
    hetero_move_delta,
    hetero_waiting_time,
)
from repro.core.item import DataItem
from repro.io import (
    allocation_from_json,
    allocation_to_json,
    database_from_json,
    database_to_json,
)
from repro.simulation.indexing import IndexedChannel
from repro.workloads.sketch import CountMinSketch
from repro.workloads.trace import RequestTrace

_positive = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def databases(draw, min_items=2, max_items=16):
    n = draw(st.integers(min_value=min_items, max_value=max_items))
    raw = draw(st.lists(_positive, min_size=n, max_size=n))
    sizes = draw(st.lists(_positive, min_size=n, max_size=n))
    total = math.fsum(raw)
    return BroadcastDatabase(
        DataItem(f"d{i}", f / total, z)
        for i, (f, z) in enumerate(zip(raw, sizes))
    )


@st.composite
def allocations_with_bandwidths(draw):
    db = draw(databases(min_items=3, max_items=14))
    k = draw(st.integers(min_value=2, max_value=min(4, len(db))))
    assignment = [
        draw(st.integers(min_value=0, max_value=k - 1))
        for _ in range(len(db))
    ]
    for channel in range(k):
        assignment[channel] = channel
    allocation = ChannelAllocation.from_assignment_vector(db, assignment, k)
    bandwidths = [
        draw(st.floats(min_value=0.5, max_value=50.0)) for _ in range(k)
    ]
    return allocation, bandwidths


common = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestHeteroProperties:
    @common
    @given(allocations_with_bandwidths())
    def test_equal_bandwidths_reduce_to_paper_model(self, pair):
        allocation, bandwidths = pair
        b = bandwidths[0]
        hetero = hetero_waiting_time(
            allocation, [b] * allocation.num_channels
        )
        classic = average_waiting_time(allocation, bandwidth=b)
        assert math.isclose(hetero, classic, rel_tol=1e-9)

    @common
    @given(allocations_with_bandwidths())
    def test_delta_matches_recomputation(self, pair):
        allocation, bandwidths = pair
        before = hetero_waiting_time(allocation, bandwidths)
        groups = [list(g) for g in allocation.channels]
        agg_f = [math.fsum(i.frequency for i in g) for g in groups]
        agg_z = [math.fsum(i.size for i in g) for g in groups]
        for origin in range(len(groups)):
            if len(groups[origin]) < 2:
                continue
            item = groups[origin][0]
            for dest in range(len(groups)):
                if dest == origin:
                    continue
                predicted = hetero_move_delta(
                    item,
                    origin_frequency=agg_f[origin],
                    origin_size=agg_z[origin],
                    dest_frequency=agg_f[dest],
                    dest_size=agg_z[dest],
                    origin_bandwidth=bandwidths[origin],
                    dest_bandwidth=bandwidths[dest],
                )
                moved = [list(g) for g in groups]
                moved[origin] = moved[origin][1:]
                moved[dest] = moved[dest] + [item]
                after = hetero_waiting_time(
                    allocation.replace_channels(moved), bandwidths
                )
                assert predicted == pytest.approx(
                    before - after, rel=1e-6, abs=1e-9
                )
            break  # one origin suffices per example

    @common
    @given(allocations_with_bandwidths())
    def test_refine_monotone_and_feasible(self, pair):
        allocation, bandwidths = pair
        result = hetero_cds_refine(allocation, bandwidths)
        assert result.waiting_time <= result.initial_waiting_time + 1e-9
        ids = sorted(
            i.item_id for g in result.allocation.channels for i in g
        )
        assert ids == sorted(allocation.database.item_ids)
        assert all(
            s.count >= 1 for s in result.allocation.channel_stats
        )


class TestIndexingProperties:
    @common
    @given(
        databases(min_items=3, max_items=12),
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=0.01, max_value=2.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_tuning_bounded_by_waiting(self, db, m, entry, tune_in):
        items = list(db.items)
        m = min(m, len(items))
        channel = IndexedChannel(
            0, items, 10.0, replication=m, index_entry_size=entry
        )
        timing = channel.retrieve(items[0].item_id, tune_in)
        assert 0 < timing.tuning_time <= timing.waiting_time + 1e-9

    @common
    @given(
        databases(min_items=3, max_items=10),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_periodicity(self, db, tune_in):
        items = list(db.items)
        channel = IndexedChannel(
            0, items, 10.0, replication=2, index_entry_size=0.5
        )
        target = items[-1].item_id
        a = channel.retrieve(target, tune_in)
        b = channel.retrieve(target, tune_in + channel.cycle_length)
        assert a.waiting_time == pytest.approx(b.waiting_time, abs=1e-6)
        assert a.tuning_time == pytest.approx(b.tuning_time, abs=1e-6)

    @common
    @given(databases(min_items=3, max_items=10))
    def test_waiting_at_least_download(self, db):
        items = list(db.items)
        channel = IndexedChannel(
            0, items, 10.0, replication=1, index_entry_size=0.5
        )
        for item in items[:3]:
            timing = channel.expected_timing(item.item_id)
            assert timing.waiting_time >= item.size / 10.0 - 1e-9


class TestEstimatorProperties:
    @common
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1000),
                st.sampled_from(["a", "b", "c"]),
            ),
            max_size=40,
        ),
        st.floats(min_value=0.01, max_value=5.0),
    )
    def test_estimates_are_distributions(self, raw_records, smoothing):
        trace = RequestTrace()
        for timestamp, item in sorted(raw_records):
            trace.record(timestamp, item)
        catalogue = ["a", "b", "c"]
        for half_life in (None, 10.0):
            sketch = CountMinSketch(exact=True, half_life=half_life)
            sketch.extend(trace)
            estimate = sketch.estimate_profile(catalogue, smoothing=smoothing)
            assert set(estimate) == set(catalogue)
            assert all(value > 0 for value in estimate.values())
            assert math.fsum(estimate.values()) == pytest.approx(1.0)


class TestPersistenceProperties:
    @common
    @given(databases())
    def test_database_json_round_trip(self, db):
        assert database_from_json(database_to_json(db)) == db

    @common
    @given(allocations_with_bandwidths())
    def test_allocation_json_round_trip(self, pair):
        allocation, _ = pair
        restored = allocation_from_json(allocation_to_json(allocation))
        assert restored == allocation
