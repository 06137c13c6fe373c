"""SMAWK contiguous DP: triple parity, ties, SoA entry, vector path.

The production SMAWK DP must return *bitwise* the same optimal cost as
the O(K·N²) quadratic and the divide-and-conquer DPs of
:mod:`repro.verify.reference` — all three
evaluate the identical ``dp_prev[j] + (F_i − F_j)(Z_i − Z_j)`` floats —
while its boundary *choices* may legitimately differ among exact ties
(leftmost-window vs leftmost-``j``), so boundaries are validated by the
cost they realise.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.partition as partition
from repro.core.database import BroadcastDatabase
from repro.core.item import DataItem
from repro.core.partition import PrefixSums, contiguous_optimal
from repro.verify import reference

#: Contiguous DPs by method name; ``smawk`` is the production path.
METHODS = {
    "quadratic": reference.contiguous_quadratic,
    "divide-conquer": reference.contiguous_divide_conquer,
    "smawk": contiguous_optimal,
}


def _random_sums(rng, n):
    frequencies = rng.random(n) + 1e-3
    sizes = rng.random(n) + 1e-3
    order = np.argsort(-(frequencies / sizes), kind="stable")
    return PrefixSums.from_arrays(frequencies[order], sizes[order])


def _realized(sums, bounds):
    return sum(sums.cost(start, stop) for start, stop in bounds)


class TestTripleParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_costs_bitwise_equal_across_methods(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 120))
        k = int(rng.integers(1, min(9, n) + 1))
        sums = _random_sums(rng, n)
        bounds_by_method = {}
        costs = {}
        for method, solve in METHODS.items():
            bounds, cost = solve(None, k, sums=sums)
            bounds_by_method[method] = bounds
            costs[method] = cost
        assert costs["quadratic"] == costs["smawk"]
        assert costs["divide-conquer"] == costs["smawk"]
        for method, bounds in bounds_by_method.items():
            assert _realized(sums, bounds) == pytest.approx(
                costs[method], rel=1e-12, abs=1e-12
            )

    def test_tie_heavy_uniform_items(self):
        # Identical items make every split cost equal at each layer —
        # maximal tie pressure on the argmin rules.
        items = [DataItem(f"d{i}", 0.1, 2.0) for i in range(1, 11)]
        database = BroadcastDatabase(items, require_normalized=False)
        ordered = database.sorted_by_benefit_ratio()
        sums = PrefixSums(ordered)
        for k in (1, 2, 3, 5, 10):
            _, quad = reference.contiguous_quadratic(ordered, k)
            smawk_bounds, smawk = contiguous_optimal(ordered, k)
            assert quad == smawk
            assert _realized(sums, smawk_bounds) == pytest.approx(
                smawk, rel=1e-12, abs=1e-12
            )

    def test_edge_shapes(self):
        rng = np.random.default_rng(3)
        sums = _random_sums(rng, 6)
        # K = N: every group a single item; total cost is the sum of
        # the diagonal F·Z products for every method.
        for solve in METHODS.values():
            bounds, cost = solve(None, 6, sums=sums)
            assert bounds == [(i, i + 1) for i in range(6)]
        # K = 1: one group spanning everything.
        for solve in METHODS.values():
            bounds, cost = solve(None, 1, sums=sums)
            assert bounds == [(0, 6)]
            assert cost == sums.cost(0, 6)


class TestSoAEntry:
    def test_from_arrays_matches_item_construction(self):
        rng = np.random.default_rng(17)
        n = 60
        frequencies = rng.random(n) + 1e-3
        sizes = rng.random(n) + 1e-3
        items = [
            DataItem(f"d{i + 1}", float(frequencies[i]), float(sizes[i]))
            for i in range(n)
        ]
        items.sort(key=lambda item: (-item.benefit_ratio, item.item_id))
        object_sums = PrefixSums(items)
        array_sums = PrefixSums.from_arrays(
            np.array([item.frequency for item in items]),
            np.array([item.size for item in items]),
        )
        for k in (1, 3, 7):
            _, object_cost = contiguous_optimal(items, k)
            _, array_cost = contiguous_optimal(None, k, sums=array_sums)
            assert object_cost == array_cost
        assert object_sums.cost(5, 31) == array_sums.cost(5, 31)


class TestVectorizedInterpolate:
    def test_vector_path_matches_scalar_bitwise(self, monkeypatch):
        rng = np.random.default_rng(23)
        cases = [
            (int(rng.integers(8, 200)), int(rng.integers(2, 8)))
            for _ in range(12)
        ]
        for n, k in cases:
            k = min(k, n)
            sums = _random_sums(rng, n)
            monkeypatch.setattr(partition, "_SMAWK_VECTOR_ROWS", 1 << 30)
            scalar_bounds, scalar_cost = contiguous_optimal(None, k, sums=sums)
            monkeypatch.setattr(partition, "_SMAWK_VECTOR_ROWS", 2)
            vector_bounds, vector_cost = contiguous_optimal(None, k, sums=sums)
            assert vector_cost == scalar_cost
            assert vector_bounds == scalar_bounds
