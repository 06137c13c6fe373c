"""Client-side caching over a broadcast program (extension).

Acharya et al.'s Broadcast Disks work (the paper's reference [1])
showed that client caches change the broadcast picture: a request that
hits the local cache costs nothing, so the *effective* waiting time
depends on the caching policy as much as on the program.  This module
adds the client cache substrate:

* :class:`ClientCache` — a size-budgeted cache over
  :class:`~repro.core.item.DataItem` objects (diverse sizes: capacity
  is in size units, not slots);
* eviction policies — :class:`LRUPolicy`, :class:`LFUPolicy` and
  :class:`PIXPolicy`.  PIX is the broadcast-aware policy from the
  Broadcast Disks papers: evict the item with the smallest ratio of
  access probability to broadcast frequency (``p / x``) — an item that
  reappears on the air quickly is cheap to refetch, so it is a poor use
  of cache space even if moderately popular;
* :func:`simulate_with_cache` — measured effective waiting time and hit
  rate of a (program, cache, policy) combination under a Poisson
  request stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH
from repro.core.item import DataItem
from repro.exceptions import SimulationError
from repro.simulation.client import RequestGenerator
from repro.simulation.metrics import SummaryStatistics, summarize
from repro.simulation.server import BroadcastProgram

__all__ = [
    "CachePolicy",
    "LRUPolicy",
    "LFUPolicy",
    "PIXPolicy",
    "ClientCache",
    "CacheReport",
    "simulate_with_cache",
]


@dataclass
class _Entry:
    item: DataItem
    last_used: float
    use_count: int


class CachePolicy(ABC):
    """Eviction policy: smaller score = evicted first."""

    name: str = "abstract"

    @abstractmethod
    def score(self, entry: _Entry) -> float:
        """Retention score of a cached entry (evict the minimum)."""

    def bind(self, program: BroadcastProgram) -> None:
        """Hook: observe the program before simulation (PIX needs it)."""


class LRUPolicy(CachePolicy):
    """Least Recently Used: evict the entry idle the longest."""

    name = "lru"

    def score(self, entry: _Entry) -> float:
        return entry.last_used


class LFUPolicy(CachePolicy):
    """Least Frequently Used: evict the entry with the fewest hits."""

    name = "lfu"

    def score(self, entry: _Entry) -> float:
        return float(entry.use_count)


class PIXPolicy(CachePolicy):
    """Broadcast Disks' P/X rule: evict the smallest ``p / x``.

    ``p`` is the item's access probability (the profile the program was
    built from) and ``x`` its broadcast frequency — here ``1 / cycle``
    of the carrying channel, so items parked on short cycles (which the
    allocator gave to hot items) are cheap to refetch and score low.
    """

    name = "pix"

    def __init__(self) -> None:
        self._cycle_of: Dict[str, float] = {}

    def bind(self, program: BroadcastProgram) -> None:
        self._cycle_of = {
            item.item_id: channel.cycle_length
            for channel in program.channels
            for item in channel.items
        }

    def score(self, entry: _Entry) -> float:
        cycle = self._cycle_of.get(entry.item.item_id)
        if cycle is None:
            raise SimulationError(
                f"PIX policy not bound for item {entry.item.item_id!r}"
            )
        broadcast_frequency = 1.0 / cycle
        return entry.item.frequency / broadcast_frequency


class ClientCache:
    """A size-budgeted item cache with a pluggable eviction policy.

    Capacity is expressed in size units; an item larger than the whole
    budget is simply never cached.
    """

    def __init__(self, capacity: float, policy: CachePolicy) -> None:
        if capacity < 0:
            raise SimulationError(
                f"capacity must be >= 0, got {capacity}"
            )
        self._capacity = float(capacity)
        self._policy = policy
        self._entries: Dict[str, _Entry] = {}
        self._used = 0.0

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def used(self) -> float:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._entries

    def touch(self, item_id: str, now: float) -> bool:
        """Record an access; returns True on a cache hit."""
        entry = self._entries.get(item_id)
        if entry is None:
            return False
        entry.last_used = now
        entry.use_count += 1
        return True

    def insert(self, item: DataItem, now: float) -> None:
        """Insert an item, evicting minimum-score entries as needed."""
        if item.size > self._capacity:
            return  # cannot ever fit
        if item.item_id in self._entries:
            self.touch(item.item_id, now)
            return
        while self._used + item.size > self._capacity and self._entries:
            victim_id = min(
                self._entries,
                key=lambda key: (
                    self._policy.score(self._entries[key]),
                    key,
                ),
            )
            self._used -= self._entries.pop(victim_id).item.size
        self._entries[item.item_id] = _Entry(
            item=item, last_used=now, use_count=1
        )
        self._used += item.size

    def cached_ids(self) -> List[str]:
        return sorted(self._entries)


@dataclass
class CacheReport:
    """Outcome of a cached-client simulation."""

    effective: SummaryStatistics
    miss_waiting: Optional[SummaryStatistics]
    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def simulate_with_cache(
    allocation: ChannelAllocation,
    *,
    capacity: float,
    policy: Optional[CachePolicy] = None,
    num_requests: int = 10_000,
    arrival_rate: float = 1.0,
    bandwidth: float = DEFAULT_BANDWIDTH,
    seed: int = 0,
) -> CacheReport:
    """Effective waiting time with a caching client.

    A request for a cached item costs zero wait (a hit); a miss pays the
    broadcast waiting time and then inserts the item.  The *effective*
    summary averages over hits and misses — the latency the user feels.
    """
    if num_requests < 1:
        raise SimulationError(
            f"num_requests must be >= 1, got {num_requests}"
        )
    database = allocation.database
    generator = RequestGenerator(
        database, arrival_rate=arrival_rate, seed=seed
    )
    program = BroadcastProgram(allocation, bandwidth=bandwidth)
    if policy is None:
        policy = LRUPolicy()
    policy.bind(program)
    cache = ClientCache(capacity, policy)
    ids = generator.item_ids

    effective: List[float] = []
    miss_waits: List[float] = []
    hits = 0
    arrivals, picks = generator.sample_batch(num_requests)
    for clock, pick in zip(arrivals.tolist(), picks.tolist()):
        item_id = ids[pick]
        if cache.touch(item_id, clock):
            hits += 1
            effective.append(0.0)
            continue
        wait = program.waiting_time(item_id, clock)
        miss_waits.append(wait)
        effective.append(wait)
        cache.insert(database[item_id], clock + wait)
    return CacheReport(
        effective=summarize(effective),
        miss_waiting=summarize(miss_waits) if miss_waits else None,
        hits=hits,
        misses=len(miss_waits),
    )
