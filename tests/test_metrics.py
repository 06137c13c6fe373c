"""Unit tests for repro.simulation.metrics and the reference collector."""

from __future__ import annotations

import math

import pytest

from repro.simulation.metrics import summarize
from repro.verify.reference import WaitingTimeCollector


class TestSummarize:
    def test_basic_statistics(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        # Sample std of 1..4 = sqrt(5/3).
        assert stats.std == pytest.approx(math.sqrt(5.0 / 3.0))

    def test_ci_halfwidth(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0], z_value=2.0)
        assert stats.ci_halfwidth == pytest.approx(2.0 * stats.std / 2.0)
        assert stats.ci_low == pytest.approx(stats.mean - stats.ci_halfwidth)
        assert stats.ci_high == pytest.approx(stats.mean + stats.ci_halfwidth)

    def test_contains(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.contains(stats.mean)
        assert not stats.contains(stats.mean + 10 * stats.ci_halfwidth + 1)

    def test_single_sample(self):
        stats = summarize([5.0])
        assert stats.mean == 5.0
        assert stats.std == 0.0
        assert stats.ci_halfwidth == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCollector:
    def test_records_and_counts(self):
        collector = WaitingTimeCollector()
        collector.record("a", 1.0)
        collector.record("a", 3.0)
        collector.record("b", 2.0)
        assert collector.count == 3
        assert set(collector.item_ids) == {"a", "b"}

    def test_overall_summary(self):
        collector = WaitingTimeCollector()
        for value in (1.0, 3.0, 2.0):
            collector.record("x", value)
        assert collector.overall().mean == pytest.approx(2.0)

    def test_per_item_summary(self):
        collector = WaitingTimeCollector()
        collector.record("a", 1.0)
        collector.record("a", 3.0)
        collector.record("b", 10.0)
        assert collector.for_item("a").mean == pytest.approx(2.0)
        assert collector.for_item("b").mean == pytest.approx(10.0)

    def test_unknown_item_returns_none(self):
        collector = WaitingTimeCollector()
        assert collector.for_item("never") is None

    def test_negative_waiting_time_rejected(self):
        collector = WaitingTimeCollector()
        with pytest.raises(ValueError):
            collector.record("a", -0.1)

    def test_zero_waiting_time_allowed(self):
        collector = WaitingTimeCollector()
        collector.record("a", 0.0)
        assert collector.overall().mean == 0.0
