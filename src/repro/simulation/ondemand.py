"""On-demand (pull) broadcast scheduling (extension; paper's ref [2]).

The paper's footnote 1 points at *heterogeneous on-demand broadcast*
(Acharya & Muthukrishnan, MobiCom '98) as the pull-based sibling of its
push-based problem.  In the pull model clients send explicit requests
uplink; the server keeps a queue of pending requests and decides, each
time a channel frees up, **which item to broadcast next**.  One
transmission satisfies every pending request for that item (broadcast
batching).

Scheduling policies implemented:

* :class:`FCFSPolicy` — serve the item whose oldest request arrived
  first;
* :class:`MRFPolicy` — Most Requests First: the item with the largest
  pending batch;
* :class:`RxWPolicy` — the classic compromise: maximise
  ``(pending requests) × (wait of the oldest request)``;
* :class:`SizeAwareRxWPolicy` — RxW normalised by transmission time
  (``R × W / (z/b)``), the natural "stretch-aware" variant for the
  *diverse* environment where item sizes differ wildly.

:func:`simulate_on_demand` runs the event-driven server and reports
mean waiting time and mean **stretch** (wait ÷ own transmission time —
the fairness metric of the on-demand literature).
:func:`compare_push_pull` sweeps the request rate and sets the measured
pull performance against the load-independent analytical `W_b` of a
push program on the same channels — exhibiting the classic crossover:
pull wins when the air is quiet, push wins under heavy load.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH, average_waiting_time
from repro.core.database import BroadcastDatabase
from repro.exceptions import SimulationError
from repro.simulation.client import RequestGenerator
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import EventPriority
from repro.simulation.metrics import SummaryStatistics, summarize

__all__ = [
    "PendingItem",
    "SchedulingPolicy",
    "FCFSPolicy",
    "MRFPolicy",
    "RxWPolicy",
    "SizeAwareRxWPolicy",
    "OnDemandReport",
    "simulate_on_demand",
    "compare_push_pull",
]


@dataclass
class PendingItem:
    """Queue state for one item with outstanding requests."""

    item_id: str
    size: float
    arrival_times: List[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.arrival_times)

    def oldest_wait(self, now: float) -> float:
        return now - self.arrival_times[0]


class SchedulingPolicy(ABC):
    """Picks which pending item a freed channel broadcasts next."""

    name: str = "abstract"

    @abstractmethod
    def priority(self, pending: PendingItem, now: float, bandwidth: float) -> float:
        """Larger = served sooner.  Ties break by item id (stable)."""

    def pick(
        self,
        queue: Dict[str, PendingItem],
        now: float,
        bandwidth: float,
    ) -> str:
        if not queue:
            raise SimulationError("cannot pick from an empty queue")
        return max(
            sorted(queue),  # stable tie-break by item id
            key=lambda item_id: self.priority(queue[item_id], now, bandwidth),
        )


class FCFSPolicy(SchedulingPolicy):
    """First come, first served (by the oldest pending request)."""

    name = "fcfs"

    def priority(self, pending: PendingItem, now: float, bandwidth: float) -> float:
        return pending.oldest_wait(now)


class MRFPolicy(SchedulingPolicy):
    """Most Requests First — maximise the satisfied batch."""

    name = "mrf"

    def priority(self, pending: PendingItem, now: float, bandwidth: float) -> float:
        return float(pending.count)


class RxWPolicy(SchedulingPolicy):
    """R × W: pending count times the oldest request's wait."""

    name = "rxw"

    def priority(self, pending: PendingItem, now: float, bandwidth: float) -> float:
        return pending.count * pending.oldest_wait(now)


class SizeAwareRxWPolicy(SchedulingPolicy):
    """R × W / (z/b): RxW per second of airtime spent.

    In a diverse environment a huge item with a modest RxW can block
    many small items; normalising by transmission time maximises
    satisfied value per airtime — the stretch-aware choice.
    """

    name = "rxw-size"

    def priority(self, pending: PendingItem, now: float, bandwidth: float) -> float:
        transmission = pending.size / bandwidth
        return pending.count * pending.oldest_wait(now) / transmission


@dataclass
class OnDemandReport:
    """Measurements of one on-demand simulation run."""

    waiting: SummaryStatistics
    stretch: SummaryStatistics
    broadcasts: int
    batched_ratio: float
    policy: str

    @property
    def mean_batch_size(self) -> float:
        return self.waiting.count / self.broadcasts if self.broadcasts else 0.0


def simulate_on_demand(
    database: BroadcastDatabase,
    *,
    policy: Optional[SchedulingPolicy] = None,
    num_channels: int = 1,
    bandwidth: float = DEFAULT_BANDWIDTH,
    num_requests: int = 5000,
    arrival_rate: float = 1.0,
    seed: int = 0,
) -> OnDemandReport:
    """Event-driven on-demand broadcast server.

    ``num_channels`` parallel broadcast units share one request queue;
    whenever a unit is idle and requests are pending, the policy picks
    an item and the unit transmits it once, satisfying every request for
    it that arrived before the transmission *started* (later arrivals
    queue for a future broadcast).
    """
    if policy is None:
        policy = RxWPolicy()
    if num_channels < 1:
        raise SimulationError(
            f"num_channels must be >= 1, got {num_channels}"
        )
    if num_requests < 1:
        raise SimulationError(
            f"num_requests must be >= 1, got {num_requests}"
        )
    if bandwidth <= 0:
        raise SimulationError(f"bandwidth must be positive, got {bandwidth}")
    generator = RequestGenerator(
        database, arrival_rate=arrival_rate, seed=seed
    )
    ids = generator.item_ids
    sizes = {item.item_id: item.size for item in database.items}

    engine = SimulationEngine()
    queue: Dict[str, PendingItem] = {}
    idle_channels = num_channels
    waits: List[float] = []
    stretches: List[float] = []
    broadcasts = 0
    batched_requests = 0

    def try_dispatch() -> None:
        nonlocal idle_channels, broadcasts, batched_requests
        while idle_channels > 0 and queue:
            item_id = policy.pick(queue, engine.now, bandwidth)
            pending = queue.pop(item_id)
            idle_channels -= 1
            broadcasts += 1
            if pending.count > 1:
                batched_requests += pending.count - 1
            transmission = sizes[item_id] / bandwidth
            completion = engine.now + transmission
            arrivals = list(pending.arrival_times)

            def on_complete(
                arrivals=arrivals, transmission=transmission
            ) -> None:
                nonlocal idle_channels
                for arrival in arrivals:
                    wait = engine.now - arrival
                    waits.append(wait)
                    stretches.append(wait / transmission)
                idle_channels += 1
                try_dispatch()

            engine.schedule_at(
                completion, on_complete, priority=EventPriority.DELIVERY
            )

    arrivals, picks = generator.sample_batch(num_requests)
    for clock, pick in zip(arrivals.tolist(), picks.tolist()):
        item_id = ids[pick]

        def on_arrival(item_id=item_id, arrival=clock) -> None:
            entry = queue.get(item_id)
            if entry is None:
                queue[item_id] = PendingItem(
                    item_id=item_id,
                    size=sizes[item_id],
                    arrival_times=[arrival],
                )
            else:
                entry.arrival_times.append(arrival)
            try_dispatch()

        engine.schedule_at(
            clock, on_arrival, priority=EventPriority.ARRIVAL
        )

    engine.run()
    if len(waits) != num_requests:
        raise SimulationError(
            f"simulation lost requests: {len(waits)} != {num_requests}"
        )
    return OnDemandReport(
        waiting=summarize(waits),
        stretch=summarize(stretches),
        broadcasts=broadcasts,
        batched_ratio=batched_requests / num_requests,
        policy=policy.name,
    )


def compare_push_pull(
    database: BroadcastDatabase,
    push_allocation: ChannelAllocation,
    *,
    rates: Sequence[float],
    num_channels: int,
    bandwidth: float = DEFAULT_BANDWIDTH,
    num_requests: int = 5000,
    policy: Optional[SchedulingPolicy] = None,
    seed: int = 0,
) -> List[Tuple[float, float, float]]:
    """Measured pull waits vs the push program's analytical `W_b`.

    Returns ``(rate, pull_mean_wait, push_wait)`` per rate.  Both sides
    get the same aggregate bandwidth (``num_channels × bandwidth``); the
    push wait is load-independent (the program broadcasts regardless of
    demand), the pull wait grows with load as batching saturates.
    """
    if not rates:
        raise SimulationError("rates cannot be empty")
    push_wait = average_waiting_time(push_allocation, bandwidth=bandwidth)
    rows: List[Tuple[float, float, float]] = []
    for index, rate in enumerate(rates):
        if rate <= 0 or not math.isfinite(rate):
            raise SimulationError(f"rates must be positive, got {rate!r}")
        report = simulate_on_demand(
            database,
            policy=policy,
            num_channels=num_channels,
            bandwidth=bandwidth,
            num_requests=num_requests,
            arrival_rate=rate,
            seed=seed + index,
        )
        rows.append((float(rate), report.waiting.mean, push_wait))
    return rows
