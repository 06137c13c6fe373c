"""Property and unit tests for the count-min sketch estimator.

The load-bearing guarantees (ISSUE 10 satellite 2):

* a sketch estimate **never under-estimates** the true (decayed) count,
  plain or conservative;
* the over-estimate respects the classical count-min bound
  ``ε·total = (e/width)·total`` with failure probability ``e^-depth``
  per item — checked empirically against exact counts on seeded Zipf
  streams;
* with decay enabled, profiles agree with an independent decayed count
  of the same stream (``tests/profile_reference.py``: same half-life,
  same smoothing) up to float noise;
* ``merge`` of two shard sketches equals one sketch over the
  concatenated stream, and ``to_dict``/``from_dict`` round-trips.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.workloads.sketch import CountMinSketch, sketch_error_bound
from repro.workloads.trace import RequestTrace, TraceRecord
from tests.profile_reference import decayed_profile

common_settings = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def zipf_streams(draw):
    """A seeded Zipf-ish request stream over a small catalogue."""
    num_items = draw(st.integers(min_value=2, max_value=40))
    num_requests = draw(st.integers(min_value=1, max_value=400))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    theta = draw(st.floats(min_value=0.0, max_value=1.5))
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, num_items + 1) ** theta
    weights /= weights.sum()
    ids = [f"d{i}" for i in range(num_items)]
    picks = rng.choice(num_items, size=num_requests, p=weights)
    gaps = rng.exponential(1.0, size=num_requests)
    records = []
    clock = 0.0
    for gap, pick in zip(gaps, picks):
        clock += float(gap)
        records.append(TraceRecord(timestamp=clock, item_id=ids[int(pick)]))
    return ids, records


@st.composite
def sketch_shapes(draw):
    width = draw(st.integers(min_value=4, max_value=256))
    depth = draw(st.integers(min_value=1, max_value=6))
    conservative = draw(st.booleans())
    return width, depth, conservative


class TestNeverUnderestimates:
    @common_settings
    @given(zipf_streams(), sketch_shapes())
    def test_point_estimates_upper_bound_exact_counts(self, stream, shape):
        ids, records = stream
        width, depth, conservative = shape
        sketch = CountMinSketch(
            width, depth, conservative=conservative, exact=True
        )
        for record in records:
            sketch.add(record.item_id, timestamp=record.timestamp)
        # Exact (undecayed) truth straight from the stream.
        truth = {}
        for record in records:
            truth[record.item_id] = truth.get(record.item_id, 0.0) + 1.0
        for item_id in ids:
            assert (
                sketch.sketch_estimate(item_id)
                >= truth.get(item_id, 0.0) - 1e-9
            )

    @common_settings
    @given(
        zipf_streams(),
        sketch_shapes(),
        st.floats(min_value=0.5, max_value=100.0),
    )
    def test_decayed_estimates_upper_bound_decayed_truth(
        self, stream, shape, half_life
    ):
        ids, records = stream
        width, depth, conservative = shape
        sketch = CountMinSketch(
            width,
            depth,
            half_life=half_life,
            conservative=conservative,
            exact=True,
        )
        for record in records:
            sketch.add(record.item_id, timestamp=record.timestamp)
        reference = records[-1].timestamp if records else 0.0
        truth = {}
        for record in records:
            weight = 0.5 ** ((reference - record.timestamp) / half_life)
            truth[record.item_id] = truth.get(record.item_id, 0.0) + weight
        for item_id in ids:
            exact = truth.get(item_id, 0.0)
            assert sketch.sketch_estimate(item_id) >= exact - 1e-9 * max(
                1.0, exact
            )
            # Oracle mode serves the exact count.
            assert sketch.estimate(item_id) == pytest.approx(
                exact, abs=1e-9, rel=1e-9
            )


class TestErrorBound:
    def test_bound_holds_with_depth_probability_on_zipf_stream(self):
        """Empirical CM guarantee: P(err > ε·total) ≤ e^-depth per item.

        One seeded heavy stream into a deliberately tiny sketch; the
        fraction of items whose realized over-estimate exceeds the
        bound must not beat the analytical failure probability by more
        than sampling slack.
        """
        rng = np.random.default_rng(7)
        num_items, num_requests = 400, 20000
        weights = 1.0 / np.arange(1, num_items + 1) ** 0.9
        weights /= weights.sum()
        ids = [f"d{i}" for i in range(num_items)]
        picks = rng.choice(num_items, size=num_requests, p=weights)
        depth = 4
        sketch = CountMinSketch(64, depth, exact=True, seed=11)
        counts = {}
        for t, pick in enumerate(picks):
            item_id = ids[int(pick)]
            sketch.add(item_id, timestamp=float(t))
            counts[item_id] = counts.get(item_id, 0.0) + 1.0
        bound = sketch.error_bound()
        assert bound == pytest.approx(
            sketch_error_bound(64, float(num_requests))
        )
        violations = sum(
            1
            for item_id in ids
            if sketch.sketch_estimate(item_id) - counts.get(item_id, 0.0)
            > bound
        )
        # e^-4 ≈ 1.8% expected; allow generous sampling slack (the
        # guarantee is per-query over the hash draw, and our hashes are
        # fixed — 3x covers the variance at N=400 comfortably).
        assert violations / num_items <= 3.0 * math.exp(-depth)

    def test_conservative_never_looser_than_plain(self):
        rng = np.random.default_rng(3)
        ids = [f"d{i}" for i in range(100)]
        picks = rng.integers(0, 100, size=5000)
        plain = CountMinSketch(32, 3, exact=True)
        cons = CountMinSketch(32, 3, conservative=True, exact=True)
        for t, pick in enumerate(picks):
            plain.add(ids[int(pick)], timestamp=float(t))
            cons.add(ids[int(pick)], timestamp=float(t))
        assert cons.max_overestimate() <= plain.max_overestimate() + 1e-9
        for item_id in ids:
            assert (
                cons.sketch_estimate(item_id)
                <= plain.sketch_estimate(item_id) + 1e-9
            )


class TestDecayParity:
    @common_settings
    @given(
        zipf_streams(), st.floats(min_value=0.5, max_value=50.0)
    )
    def test_wide_sketch_profile_matches_decay_estimator(
        self, stream, half_life
    ):
        """Collision-free (wide) sketch == direct decayed counts."""
        ids, records = stream
        sketch = CountMinSketch(8192, 4, half_life=half_life)
        trace = RequestTrace()
        for record in records:
            sketch.add(record.item_id, timestamp=record.timestamp)
            trace.append(record)
        sketch_profile = sketch.estimate_profile(ids, smoothing=1.0)
        decay_profile = decayed_profile(
            trace, ids, half_life=half_life, smoothing=1.0
        )
        for item_id in ids:
            assert sketch_profile[item_id] == pytest.approx(
                decay_profile[item_id], abs=1e-9
            )

    def test_rescale_preserves_estimates(self):
        """A stream long enough to trigger rescaling stays consistent."""
        sketch = CountMinSketch(64, 3, half_life=0.01, exact=True)
        for k in range(3000):
            sketch.add("hot" if k % 3 else "cold", timestamp=k * 0.05)
        assert sketch.rescales > 0
        assert math.isfinite(sketch.total())
        assert sketch.max_overestimate() >= 0.0
        profile = sketch.estimate_profile(["hot", "cold"], smoothing=0.0)
        assert profile["hot"] + profile["cold"] == pytest.approx(1.0)


class TestMergeAndSerialize:
    @common_settings
    @given(
        zipf_streams(),
        st.integers(min_value=4, max_value=64),
        st.integers(min_value=1, max_value=4),
        st.one_of(st.none(), st.floats(min_value=1.0, max_value=50.0)),
    )
    def test_merge_equals_concatenated_stream(
        self, stream, width, depth, half_life
    ):
        ids, records = stream
        split = len(records) // 2
        left = CountMinSketch(width, depth, half_life=half_life, seed=9)
        right = CountMinSketch(width, depth, half_life=half_life, seed=9)
        whole = CountMinSketch(width, depth, half_life=half_life, seed=9)
        for record in records[:split]:
            left.add(record.item_id, timestamp=record.timestamp)
        for record in records[split:]:
            right.add(record.item_id, timestamp=record.timestamp)
        for record in records:
            whole.add(record.item_id, timestamp=record.timestamp)
        left.merge(right)
        assert left.updates == whole.updates
        scale = max(1.0, whole.total())
        assert left.total() == pytest.approx(whole.total(), rel=1e-9)
        for item_id in ids:
            assert left.sketch_estimate(item_id) == pytest.approx(
                whole.sketch_estimate(item_id), abs=1e-9 * scale
            )

    @common_settings
    @given(zipf_streams(), sketch_shapes())
    def test_serialize_round_trip(self, stream, shape):
        ids, records = stream
        width, depth, conservative = shape
        sketch = CountMinSketch(
            width, depth, half_life=5.0, conservative=conservative, exact=True
        )
        for record in records:
            sketch.add(record.item_id, timestamp=record.timestamp)
        import json

        payload = json.loads(json.dumps(sketch.to_dict()))
        clone = CountMinSketch.from_dict(payload)
        assert clone.width == sketch.width
        assert clone.depth == sketch.depth
        assert clone.updates == sketch.updates
        assert clone.total() == pytest.approx(sketch.total(), rel=1e-12)
        for item_id in ids:
            assert clone.estimate(item_id) == pytest.approx(
                sketch.estimate(item_id), rel=1e-12, abs=1e-12
            )

    def test_shape_mismatch_rejected(self):
        base = CountMinSketch(16, 2)
        for other in (
            CountMinSketch(32, 2),
            CountMinSketch(16, 3),
            CountMinSketch(16, 2, seed=1),
            CountMinSketch(16, 2, half_life=5.0),
        ):
            with pytest.raises(SimulationError, match="merge"):
                base.merge(other)

    def test_conservative_merge_rejected(self):
        with pytest.raises(SimulationError, match="conservative"):
            CountMinSketch(16, 2, conservative=True).merge(
                CountMinSketch(16, 2, conservative=True)
            )

    def test_bad_schema_rejected(self):
        with pytest.raises(SimulationError, match="schema"):
            CountMinSketch.from_dict({"schema": "nope"})


class TestValidation:
    def test_bad_shape_rejected(self):
        with pytest.raises(SimulationError):
            CountMinSketch(0, 4)
        with pytest.raises(SimulationError):
            CountMinSketch(16, 0)

    @pytest.mark.parametrize("half_life", [0.0, -1.0, float("inf")])
    def test_bad_half_life_rejected(self, half_life):
        with pytest.raises(SimulationError):
            CountMinSketch(16, 2, half_life=half_life)

    def test_out_of_order_arrivals_rejected(self):
        sketch = CountMinSketch(16, 2, half_life=1.0)
        sketch.add("a", timestamp=5.0)
        with pytest.raises(SimulationError, match="out-of-order"):
            sketch.add("b", timestamp=4.0)

    def test_bad_weight_and_id_rejected(self):
        sketch = CountMinSketch(16, 2)
        with pytest.raises(SimulationError):
            sketch.add("", timestamp=0.0)
        with pytest.raises(SimulationError):
            sketch.add("a", weight=0.0)

    def test_empty_sketch_zero_smoothing_rejected(self):
        with pytest.raises(SimulationError, match="smoothing"):
            CountMinSketch(16, 2).estimate_profile(["a"], smoothing=0.0)

    def test_state_is_width_times_depth(self):
        sketch = CountMinSketch(128, 5)
        for k in range(1000):
            sketch.add(f"client-{k}")  # many more ids than counters
        assert sketch.state_size == 128 * 5

    def test_max_overestimate_requires_oracle_mode(self):
        with pytest.raises(SimulationError, match="oracle"):
            CountMinSketch(16, 2).max_overestimate()
