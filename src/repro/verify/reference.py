"""Reference implementations the production paths answer to.

The core (:mod:`repro.core`) has one implementation of each hot path:
numpy kernels for Procedure ``Partition``'s split scan and CDS's Eq. (4)
move search, and SMAWK for the contiguous DP.  The simulator
(:mod:`repro.simulation.simulator`) has one too: closed-form waiting
times over the channels' cycle geometry.  This module keeps the
textbook loops they replaced, for the differential oracles and the
tests only — nothing in the production pipeline imports it:

* :func:`best_split_in` / :func:`best_split` — the scalar split scan,
  and :func:`drp_allocate`, DRP's heap loop driven by it;
* :func:`best_move` / :func:`cds_refine` — the scalar CDS loop;
* :func:`contiguous_quadratic` — the O(K·N²) textbook DP;
* :func:`contiguous_divide_conquer` — the O(K·N log N)
  divide-and-conquer DP, the only reference that still runs at the
  N = 10⁵–10⁶ sizes where SMAWK is smoke-tested;
* :func:`run_broadcast_simulation` — the event-driven simulation, two
  events per request on the discrete-event engine, with its
  :class:`WaitingTimeCollector`.

Every reference evaluates the same float expressions in the same order
as its production counterpart, so agreement is bitwise: identical
split indices, move sequences, DP costs, tie-breaks and waiting-time
statistics.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import ChannelAllocation
from repro.core.cds import _IMPROVEMENT_EPSILON, CDSMove, CDSResult
from repro.core.cost import (
    DEFAULT_BANDWIDTH,
    allocation_cost,
    average_waiting_time,
    move_delta,
)
from repro.core.database import BroadcastDatabase
from repro.core.drp import DRPResult, _drp_allocate
from repro.core.item import DataItem
from repro.core.partition import PrefixSums, _backtrack
from repro.exceptions import InfeasibleProblemError, SimulationError
from repro.simulation.client import RequestGenerator
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import EventPriority
from repro.simulation.metrics import SummaryStatistics, summarize
from repro.simulation.server import BroadcastProgram
from repro.simulation.simulator import SimulationReport

__all__ = [
    "best_split_in",
    "best_split",
    "drp_allocate",
    "best_move",
    "cds_refine",
    "contiguous_quadratic",
    "contiguous_divide_conquer",
    "WaitingTimeCollector",
    "run_broadcast_simulation",
]


# ----------------------------------------------------------------------
# Procedure Partition and DRP
# ----------------------------------------------------------------------
def best_split_in(sums: PrefixSums, start: int, stop: int) -> Tuple[int, float]:
    """Scalar scan of every cut of ``[start, stop)``; first minimum wins.

    Same contract as :func:`repro.core.partition.best_split_in`.
    """
    if stop - start < 2:
        raise InfeasibleProblemError(
            f"cannot split a sequence of {stop - start} item(s)"
        )
    best_offset = 1
    best_cost = math.inf
    for p in range(start + 1, stop):
        total = sums.cost(start, p) + sums.cost(p, stop)
        if total < best_cost:
            best_cost = total
            best_offset = p - start
    return best_offset, best_cost


def best_split(items: Sequence[DataItem]) -> Tuple[int, float]:
    """Scalar :func:`repro.core.partition.best_split`."""
    if len(items) < 2:
        raise InfeasibleProblemError(
            f"cannot split a sequence of {len(items)} item(s)"
        )
    return best_split_in(PrefixSums(items), 0, len(items))


def drp_allocate(
    database: BroadcastDatabase,
    num_channels: int,
    *,
    split_policy: str = "max-cost",
    trace: bool = False,
    presorted_items: Optional[Sequence[DataItem]] = None,
) -> DRPResult:
    """DRP's heap loop with the scalar split scan (uninstrumented)."""
    result = _drp_allocate(
        database,
        num_channels,
        split_policy=split_policy,
        trace=trace,
        presorted_items=presorted_items,
        split_scan=best_split_in,
    )
    result.resolved_backend = "python"
    return result


# ----------------------------------------------------------------------
# CDS
# ----------------------------------------------------------------------
def best_move(
    groups: List[List[DataItem]],
    agg_f: List[float],
    agg_z: List[float],
    num_channels: int,
) -> Optional[Tuple[float, int, int, int]]:
    """Find the single move with the maximum cost reduction.

    Returns ``(delta, origin, position_in_origin, destination)`` or
    ``None`` when no move improves the cost beyond the epsilon.  Ties are
    broken by scan order (lowest origin, then item position, then lowest
    destination), matching the paper's "first maximum wins" loop.
    """
    best_delta = _IMPROVEMENT_EPSILON
    best: Optional[Tuple[float, int, int, int]] = None
    for origin in range(num_channels):
        origin_f = agg_f[origin]
        origin_z = agg_z[origin]
        for position, item in enumerate(groups[origin]):
            for destination in range(num_channels):
                if destination == origin:
                    continue
                delta = move_delta(
                    item,
                    origin_frequency=origin_f,
                    origin_size=origin_z,
                    dest_frequency=agg_f[destination],
                    dest_size=agg_z[destination],
                )
                if delta > best_delta:
                    best_delta = delta
                    best = (delta, origin, position, destination)
    return best


def cds_refine(
    allocation: ChannelAllocation,
    *,
    initial=None,
    max_iterations: Optional[int] = None,
) -> CDSResult:
    """The scalar CDS loop: one :func:`move_delta` call per pair.

    Same contract as :func:`repro.core.cds.cds_refine` with
    ``scan="full"`` (uninstrumented).
    """
    if initial is not None:
        allocation = ChannelAllocation.rebase(allocation.database, initial)
    groups: List[List[DataItem]] = [list(group) for group in allocation.channels]
    agg_f: List[float] = [stat.frequency for stat in allocation.channel_stats]
    agg_z: List[float] = [stat.size for stat in allocation.channel_stats]
    num_channels = len(groups)
    initial_cost = allocation_cost(allocation)
    current_cost = initial_cost
    num_items = len(allocation.database)
    evaluations = 0
    moves: List[CDSMove] = []
    converged = True

    while True:
        if max_iterations is not None and len(moves) >= max_iterations:
            converged = False
            break
        best = best_move(groups, agg_f, agg_z, num_channels)
        # best_move visits every (item, destination≠origin) pair once.
        evaluations += num_items * (num_channels - 1)
        if best is None:
            break
        delta, origin, position, destination = best
        item = groups[origin].pop(position)
        groups[destination].append(item)
        agg_f[origin] -= item.frequency
        agg_z[origin] -= item.size
        agg_f[destination] += item.frequency
        agg_z[destination] += item.size
        current_cost -= delta
        moves.append(
            CDSMove(
                item_id=item.item_id,
                origin=origin,
                destination=destination,
                delta=delta,
                cost_after=current_cost,
            )
        )

    refined = allocation.replace_channels(groups, validate=False)
    return CDSResult(
        allocation=refined,
        cost=allocation_cost(refined),
        initial_cost=initial_cost,
        moves=moves,
        converged=converged,
        delta_evaluations=evaluations,
    )


# ----------------------------------------------------------------------
# Contiguous DP
# ----------------------------------------------------------------------
def _prepare(
    items: Optional[Sequence[DataItem]],
    num_groups: int,
    sums: Optional[PrefixSums],
) -> Tuple[PrefixSums, int]:
    if sums is None:
        sums = PrefixSums(items)
    n = len(sums)
    if not 1 <= num_groups <= n:
        raise InfeasibleProblemError(
            f"cannot split {n} item(s) into {num_groups} non-empty groups"
        )
    return sums, n


def contiguous_quadratic(
    items: Optional[Sequence[DataItem]],
    num_groups: int,
    *,
    sums: Optional[PrefixSums] = None,
) -> Tuple[List[Tuple[int, int]], float]:
    """The O(K·N²) textbook DP; leftmost predecessor wins ties.

    ``dp[g][i]`` is the minimal cost of splitting ``items[:i]`` into
    ``g`` groups.  Same signature and return shape as
    :func:`repro.core.partition.contiguous_optimal`.
    """
    sums, n = _prepare(items, num_groups, sums)
    infinity = math.inf
    dp = [[infinity] * (n + 1) for _ in range(num_groups + 1)]
    choice = [[0] * (n + 1) for _ in range(num_groups + 1)]
    dp[0][0] = 0.0
    for g in range(1, num_groups + 1):
        # items[:i] needs at least g items and must leave enough for
        # the remaining groups.
        for i in range(g, n - (num_groups - g) + 1):
            best_value = infinity
            best_j = g - 1
            for j in range(g - 1, i):
                if dp[g - 1][j] == infinity:
                    continue
                value = dp[g - 1][j] + sums.cost(j, i)
                if value < best_value:
                    best_value = value
                    best_j = j
            dp[g][i] = best_value
            choice[g][i] = best_j
    return _backtrack(choice, n, num_groups), dp[num_groups][n]


def _window_argmin(dp_prev, pf, pz, i: int, lo: int, hi: int):
    """Minimise ``dp_prev[j] + cost(j, i)`` over ``j in [lo, hi)``.

    Returns ``(j, value)`` with the first minimum winning — identical
    floats and tie-break to the quadratic DP's inner loop.
    """
    j = np.arange(lo, hi)
    values = dp_prev[lo:hi] + (pf[i] - pf[j]) * (pz[i] - pz[j])
    k = int(np.argmin(values))
    return lo + k, float(values[k])


def contiguous_divide_conquer(
    items: Optional[Sequence[DataItem]],
    num_groups: int,
    *,
    sums: Optional[PrefixSums] = None,
) -> Tuple[List[Tuple[int, int]], float]:
    """O(K·N log N) DP via divide-and-conquer optimisation.

    The layer recurrence ``dp_g(i) = min_j dp_{g-1}(j) + w(j, i)`` with
    ``w(j, i) = (F_i − F_j)(Z_i − Z_j)`` has monotone optimal ``j``
    because ``w`` is concave-Monge when the prefix sums are
    non-decreasing (positive frequencies and sizes guarantee that).
    Each layer is solved by recursing on the midpoint and narrowing the
    candidate window to ``[opt(lo), opt(hi)]``; each window is one
    vectorized argmin with the quadratic DP's exact floats.
    """
    sums, n = _prepare(items, num_groups, sums)
    infinity = math.inf
    pf, pz = sums.arrays()
    dp_prev = np.full(n + 1, infinity)
    dp_prev[0] = 0.0
    choice = [[0] * (n + 1) for _ in range(num_groups + 1)]
    for g in range(1, num_groups + 1):
        dp_cur = np.full(n + 1, infinity)
        i_lo, i_hi = g, n - (num_groups - g)
        # Explicit stack instead of recursion: depth is log N but large
        # catalogues should not depend on the interpreter's limit.
        stack = [(i_lo, i_hi, g - 1, i_hi - 1)]
        while stack:
            lo, hi, j_lo, j_hi = stack.pop()
            if lo > hi:
                continue
            mid = (lo + hi) // 2
            w_lo = max(j_lo, g - 1)
            w_hi = min(j_hi, mid - 1)
            best_j, best_value = _window_argmin(
                dp_prev, pf, pz, mid, w_lo, w_hi + 1
            )
            dp_cur[mid] = best_value
            choice[g][mid] = best_j
            stack.append((lo, mid - 1, j_lo, best_j))
            stack.append((mid + 1, hi, best_j, j_hi))
        dp_prev = dp_cur
    return _backtrack(choice, n, num_groups), float(dp_prev[n])


# ----------------------------------------------------------------------
# Broadcast simulation
# ----------------------------------------------------------------------
class WaitingTimeCollector:
    """Accumulates waiting-time observations from a simulation run."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._by_item: Dict[str, List[float]] = {}

    def record(self, item_id: str, waiting_time: float) -> None:
        """Record one completed request."""
        if waiting_time < 0:
            raise ValueError(
                f"waiting time cannot be negative, got {waiting_time}"
            )
        self._samples.append(waiting_time)
        self._by_item.setdefault(item_id, []).append(waiting_time)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def item_ids(self) -> Tuple[str, ...]:
        return tuple(self._by_item)

    def overall(self, *, z_value: float = 1.96) -> SummaryStatistics:
        """Summary over all requests — the empirical :math:`W_b`."""
        return summarize(self._samples, z_value=z_value)

    def for_item(
        self, item_id: str, *, z_value: float = 1.96
    ) -> Optional[SummaryStatistics]:
        """Summary for one item, or ``None`` if it was never requested."""
        samples = self._by_item.get(item_id)
        if not samples:
            return None
        return summarize(samples, z_value=z_value)


def run_broadcast_simulation(
    allocation: ChannelAllocation,
    *,
    bandwidth: float = DEFAULT_BANDWIDTH,
    bandwidths: Optional[Sequence[float]] = None,
    num_requests: int = 10_000,
    arrival_rate: float = 1.0,
    seed: int = 0,
    request_probabilities: Optional[Sequence[float]] = None,
) -> SimulationReport:
    """Event-driven :func:`repro.simulation.simulator.run_broadcast_simulation`.

    Each request of the same :meth:`RequestGenerator.sample_batch`
    stream becomes an ARRIVAL event; its handler asks the carrying
    channel for the completion time of the next full transmission and
    schedules a DELIVERY event there, whose handler records the waiting
    time.  Same parameters and report as production (uninstrumented).
    """
    if num_requests < 1:
        raise SimulationError(f"num_requests must be >= 1, got {num_requests}")
    program = BroadcastProgram(
        allocation, bandwidth=bandwidth, bandwidths=bandwidths
    )
    generator = RequestGenerator(
        allocation.database,
        arrival_rate=arrival_rate,
        seed=seed,
        request_probabilities=request_probabilities,
    )
    engine = SimulationEngine()
    collector = WaitingTimeCollector()

    def make_arrival_handler(item_id: str, arrival_time: float):
        def on_arrival() -> None:
            completion = program.channel_for(item_id).delivery_completion(
                item_id, engine.now
            )

            def on_delivery() -> None:
                collector.record(item_id, engine.now - arrival_time)

            engine.schedule_at(
                completion, on_delivery, priority=EventPriority.DELIVERY
            )

        return on_arrival

    arrivals, picks = generator.sample_batch(num_requests)
    item_ids = generator.item_ids
    for arrival_time, pick in zip(arrivals.tolist(), picks.tolist()):
        engine.schedule_at(
            arrival_time,
            make_arrival_handler(item_ids[pick], arrival_time),
            priority=EventPriority.ARRIVAL,
        )
    engine.run()
    return SimulationReport(
        measured=collector.overall(),
        analytical_waiting_time=average_waiting_time(
            allocation, bandwidth=bandwidth
        ),
        num_requests=collector.count,
        per_item={
            item_id: collector.for_item(item_id)
            for item_id in collector.item_ids
        },
    )
