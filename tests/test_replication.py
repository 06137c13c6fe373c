"""Tests for cross-channel replication (repro.simulation.replication)."""

from __future__ import annotations

import pytest

from repro.core.scheduler import DRPCDSAllocator
from repro.exceptions import SimulationError
from repro.simulation.replication import (
    ReplicatedProgram,
    replicate_hot_items,
    simulate_replicated_program,
)
from repro.simulation.server import BroadcastProgram


@pytest.fixture(scope="module")
def allocation(request):
    db = request.getfixturevalue("medium_db")
    return DRPCDSAllocator().allocate(db, 4).allocation


@pytest.fixture(scope="module")
def medium_db():
    from repro.workloads.generator import WorkloadSpec, generate_database

    return generate_database(
        WorkloadSpec(num_items=30, skewness=0.8, diversity=1.5, seed=1234)
    )


class TestReplicatedProgram:
    def test_partition_program_is_valid(self, allocation, medium_db):
        program = ReplicatedProgram(medium_db, allocation.channels)
        assert program.num_channels == 4
        for item_id in medium_db.item_ids:
            assert program.replication_degree(item_id) == 1

    def test_replicated_items_have_multiple_carriers(
        self, allocation, medium_db
    ):
        lists = replicate_hot_items(allocation, 3)
        program = ReplicatedProgram(medium_db, lists)
        hot = [i.item_id for i in medium_db.sorted_by_frequency()[:3]]
        for item_id in hot:
            assert program.replication_degree(item_id) == 4
        cold = medium_db.sorted_by_frequency()[-1].item_id
        assert program.replication_degree(cold) == 1

    def test_uncovered_item_rejected(self, allocation, medium_db):
        partial = [list(g) for g in allocation.channels]
        partial[0] = partial[0][:-1]  # drop one item entirely
        with pytest.raises(SimulationError, match="not broadcast"):
            ReplicatedProgram(medium_db, partial)

    def test_foreign_item_rejected(self, allocation, medium_db, tiny_db):
        lists = [list(g) for g in allocation.channels]
        lists[0].append(tiny_db.items[0])
        with pytest.raises(SimulationError, match="not in the database"):
            ReplicatedProgram(medium_db, lists)

    def test_unknown_item_lookup(self, allocation, medium_db):
        program = ReplicatedProgram(medium_db, allocation.channels)
        with pytest.raises(SimulationError, match="no channel"):
            program.carriers_of("zz")

    def test_total_broadcast_size_grows_with_replication(
        self, allocation, medium_db
    ):
        base = ReplicatedProgram(medium_db, allocation.channels)
        replicated = ReplicatedProgram(
            medium_db, replicate_hot_items(allocation, 5)
        )
        assert (
            replicated.total_broadcast_size() > base.total_broadcast_size()
        )


class TestWaitingTimes:
    def test_min_over_carriers(self, allocation, medium_db):
        lists = replicate_hot_items(allocation, 2)
        program = ReplicatedProgram(medium_db, lists)
        hot = medium_db.sorted_by_frequency()[0].item_id
        wait = program.waiting_time(hot, 3.7)
        per_channel = [
            program.channels[index].delivery_completion(hot, 3.7) - 3.7
            for index in program.carriers_of(hot)
        ]
        assert wait == pytest.approx(min(per_channel))

    def test_unreplicated_matches_plain_program(self, allocation, medium_db):
        replicated = ReplicatedProgram(medium_db, allocation.channels)
        plain = BroadcastProgram(allocation)
        for tune_in in (0.0, 2.5, 17.3):
            for item_id in list(medium_db.item_ids)[:5]:
                assert replicated.waiting_time(
                    item_id, tune_in
                ) == pytest.approx(plain.waiting_time(item_id, tune_in))

    def test_replication_helps_the_replicated_item(
        self, allocation, medium_db
    ):
        """Averaged over tune-ins, a replicated item waits less than it
        did on its single home channel *given the same cycles* — and
        since replication lengthens other channels, we check against
        the replicated program's own channels."""
        lists = replicate_hot_items(allocation, 1)
        program = ReplicatedProgram(medium_db, lists)
        hot = medium_db.sorted_by_frequency()[0].item_id
        home = allocation.channel_of(hot)
        samples = [k * 0.731 for k in range(300)]
        replicated_avg = sum(
            program.waiting_time(hot, t) for t in samples
        ) / len(samples)
        home_only_avg = sum(
            program.channels[home].delivery_completion(hot, t) - t
            for t in samples
        ) / len(samples)
        assert replicated_avg <= home_only_avg + 1e-9


class TestReplicateHotItems:
    def test_zero_is_identity(self, allocation):
        lists = replicate_hot_items(allocation, 0)
        assert [
            [i.item_id for i in group] for group in lists
        ] == allocation.as_id_lists()

    def test_negative_rejected(self, allocation):
        with pytest.raises(SimulationError):
            replicate_hot_items(allocation, -1)

    def test_no_duplicates_within_channel(self, allocation, medium_db):
        lists = replicate_hot_items(allocation, 4)
        for group in lists:
            ids = [i.item_id for i in group]
            assert len(ids) == len(set(ids))


class TestSimulation:
    def test_summary_shape(self, allocation, medium_db):
        program = ReplicatedProgram(
            medium_db, replicate_hot_items(allocation, 2)
        )
        summary = simulate_replicated_program(
            program, num_requests=2000, seed=0
        )
        assert summary.count == 2000
        assert summary.mean > 0

    def test_reproducible(self, allocation, medium_db):
        program = ReplicatedProgram(medium_db, allocation.channels)
        a = simulate_replicated_program(program, num_requests=500, seed=3)
        b = simulate_replicated_program(program, num_requests=500, seed=3)
        assert a.mean == b.mean

    def test_unreplicated_matches_analytical_model(
        self, allocation, medium_db
    ):
        from repro.core.cost import average_waiting_time

        program = ReplicatedProgram(medium_db, allocation.channels)
        summary = simulate_replicated_program(
            program, num_requests=30000, seed=1
        )
        analytical = average_waiting_time(allocation)
        assert summary.mean == pytest.approx(analytical, rel=0.03)

    def test_replication_rescues_naive_allocations(self):
        """Replicating hot items clearly helps a *flat* program, whose
        hot items are stuck in long mixed cycles."""
        from repro.baselines.flat import RoundRobinAllocator
        from repro.workloads.generator import WorkloadSpec, generate_database

        db = generate_database(
            WorkloadSpec(num_items=40, skewness=1.6, diversity=1.0, seed=9)
        )
        allocation = RoundRobinAllocator().allocate(db, 5).allocation
        base = simulate_replicated_program(
            ReplicatedProgram(db, allocation.channels),
            num_requests=20000,
            seed=2,
        ).mean
        replicated = simulate_replicated_program(
            ReplicatedProgram(db, replicate_hot_items(allocation, 3)),
            num_requests=20000,
            seed=2,
        ).mean
        assert replicated < base

    def test_replication_cannot_improve_drp_cds(self):
        """A frequency-aware allocation subsumes replication's benefit:
        DRP-CDS already parks hot items on short dedicated cycles, so
        blanket replicas only bloat the other channels.  (Measured
        finding, documented in docs/extensions.md.)"""
        from repro.workloads.generator import WorkloadSpec, generate_database

        db = generate_database(
            WorkloadSpec(num_items=40, skewness=1.6, diversity=1.0, seed=9)
        )
        allocation = DRPCDSAllocator().allocate(db, 5).allocation
        base = simulate_replicated_program(
            ReplicatedProgram(db, allocation.channels),
            num_requests=20000,
            seed=2,
        ).mean
        replicated = simulate_replicated_program(
            ReplicatedProgram(db, replicate_hot_items(allocation, 3)),
            num_requests=20000,
            seed=2,
        ).mean
        assert replicated > base

    def test_validation(self, allocation, medium_db):
        program = ReplicatedProgram(medium_db, allocation.channels)
        with pytest.raises(SimulationError):
            simulate_replicated_program(program, num_requests=0)
        with pytest.raises(SimulationError):
            simulate_replicated_program(program, arrival_rate=0.0)
        with pytest.raises(SimulationError):
            simulate_replicated_program(
                program, request_probabilities=[1.0]
            )

    @pytest.mark.parametrize("fill", [-1.0, 0.0])
    def test_bad_probabilities_name_the_input(
        self, allocation, medium_db, fill
    ):
        # Negative or all-zero weights are rejected up front, not left
        # to numpy's sampler.
        program = ReplicatedProgram(medium_db, allocation.channels)
        with pytest.raises(SimulationError, match="request probabilities"):
            simulate_replicated_program(
                program, request_probabilities=[fill] * len(medium_db)
            )
