"""Tests for the adaptive re-allocation loop (repro.simulation.adaptive)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulation.adaptive import (
    EpochReport,
    RotatingDrift,
    run_adaptive_simulation,
)
from repro.workloads.generator import WorkloadSpec, generate_database


@pytest.fixture(scope="module")
def drift_db():
    return generate_database(
        WorkloadSpec(num_items=40, skewness=1.2, diversity=1.5, seed=21)
    )


class TestRotatingDrift:
    def test_epoch_zero_is_base(self):
        drift = RotatingDrift([0.5, 0.3, 0.2], shift_per_epoch=1)
        assert drift.probabilities(0).tolist() == [0.5, 0.3, 0.2]

    def test_rotation(self):
        drift = RotatingDrift([0.5, 0.3, 0.2], shift_per_epoch=1)
        assert drift.probabilities(1).tolist() == [0.2, 0.5, 0.3]
        assert drift.probabilities(2).tolist() == [0.3, 0.2, 0.5]

    def test_shift_multiplies(self):
        drift = RotatingDrift([0.5, 0.3, 0.2], shift_per_epoch=2)
        assert drift.probabilities(1).tolist() == [0.3, 0.2, 0.5]

    def test_full_cycle_returns_to_base(self):
        base = [0.4, 0.3, 0.2, 0.1]
        drift = RotatingDrift(base, shift_per_epoch=1)
        assert drift.probabilities(4).tolist() == base

    def test_validation(self):
        with pytest.raises(SimulationError):
            RotatingDrift([0.5], shift_per_epoch=-1)
        with pytest.raises(SimulationError):
            RotatingDrift([])
        drift = RotatingDrift([1.0])
        with pytest.raises(SimulationError):
            drift.probabilities(-1)


class TestAdaptiveSimulation:
    @pytest.fixture(scope="class")
    def reports(self, drift_db):
        return run_adaptive_simulation(
            drift_db,
            num_channels=4,
            epochs=5,
            requests_per_epoch=1500,
            drift=RotatingDrift(
                [item.frequency for item in drift_db.items],
                shift_per_epoch=8,
            ),
            seed=5,
        )

    def test_one_report_per_epoch(self, reports):
        assert len(reports) == 5
        assert [r.epoch for r in reports] == list(range(5))
        assert all(isinstance(r, EpochReport) for r in reports)

    def test_first_epoch_knows_the_truth(self, reports):
        # Epoch 0's program was built from the undrifted profile.
        assert reports[0].profile_error < 0.05

    def test_reallocation_flags(self, reports):
        assert reports[0].reallocated is True
        assert all(r.reallocated for r in reports[1:])

    def test_measured_statistics_present(self, reports):
        for report in reports:
            assert report.measured.count == 1500
            assert report.measured.mean > 0

    def test_adaptive_beats_static_under_drift(self, drift_db):
        drift = RotatingDrift(
            [item.frequency for item in drift_db.items], shift_per_epoch=10
        )
        common = dict(
            num_channels=4,
            epochs=5,
            requests_per_epoch=2500,
            drift=drift,
            seed=9,
        )
        adaptive = run_adaptive_simulation(
            drift_db, adapt=True, **common
        )
        static = run_adaptive_simulation(
            drift_db, adapt=False, **common
        )
        # Same requests in epoch 0 (identical programs and seeds).
        assert adaptive[0].measured.mean == pytest.approx(
            static[0].measured.mean
        )
        # After drift sets in, adaptation wins on cost under the truth.
        adaptive_cost = np.mean([r.cost_under_truth for r in adaptive[2:]])
        static_cost = np.mean([r.cost_under_truth for r in static[2:]])
        assert adaptive_cost < static_cost

    def test_static_profile_error_grows(self, drift_db):
        drift = RotatingDrift(
            [item.frequency for item in drift_db.items], shift_per_epoch=10
        )
        static = run_adaptive_simulation(
            drift_db,
            num_channels=4,
            epochs=4,
            requests_per_epoch=500,
            drift=drift,
            adapt=False,
            seed=1,
        )
        assert static[-1].profile_error > static[0].profile_error
        assert not any(r.reallocated for r in static[1:])

    def test_validation(self, drift_db):
        with pytest.raises(SimulationError):
            run_adaptive_simulation(drift_db, 4, epochs=0)
        with pytest.raises(SimulationError):
            run_adaptive_simulation(drift_db, 4, requests_per_epoch=0)


class TestDrivesTheService:
    def test_reports_mirror_a_direct_service_run(self, drift_db):
        """The driver adds only the truth-scored fields: measurements
        and provenance are the service's own, epoch for epoch."""
        from repro.service import BroadcastService, drifting_stream

        drift = RotatingDrift(
            [item.frequency for item in drift_db.items], shift_per_epoch=6
        )
        reports = run_adaptive_simulation(
            drift_db,
            4,
            epochs=5,
            requests_per_epoch=400,
            drift=drift,
            seed=3,
        )
        service = BroadcastService(
            {item.item_id: item.size for item in drift_db.items},
            4,
            epoch_seconds=400.0,
            initial_database=drift_db,
        )
        served = service.run(
            drifting_stream(
                drift_db,
                epochs=5,
                requests_per_epoch=400,
                epoch_seconds=400.0,
                drift=drift,
                seed=3,
            )
        )
        assert len(reports) == len(served) == 5
        for report, direct in zip(reports, served):
            assert report.measured == direct.measured
            assert report.allocation_mode == direct.allocation_mode
            assert report.warm_moves == direct.warm_moves
            assert report.cache_hit == direct.cache_hit
            assert report.reallocated == direct.reallocated
