"""Data replication across channels (extension; the paper's ref [8]).

The paper's model partitions items: each item lives on exactly one
channel.  Huang & Chen (the paper's reference [8]) study *replication* —
broadcasting a popular item on several channels at once so clients
catch it sooner.  This module adds the evaluation substrate:

* :class:`ReplicatedProgram` — a broadcast program whose channels may
  overlap; a schedule-aware client retrieves an item from whichever
  carrying channel completes a full transmission first;
* :func:`replicate_hot_items` — the classic transformation: copy the
  ``r`` hottest items onto every channel;
* :func:`simulate_replicated_program` — Monte-Carlo measurement of the
  average waiting time (the min-over-channels expectation has no clean
  closed form once cycle lengths are incommensurate).

The trade-off this exposes: replicas shorten the probe for hot items
but lengthen every carrying channel's cycle, taxing all other items.
With a strongly skewed profile a few replicas win; replicate too much
and the cycles bloat — the sweep in ``benchmarks/bench_replication.py``
shows the U-shape.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH
from repro.core.database import BroadcastDatabase
from repro.core.item import DataItem
from repro.exceptions import SimulationError
from repro.simulation.channel import BroadcastChannel
from repro.simulation.client import RequestGenerator
from repro.simulation.metrics import SummaryStatistics, summarize

__all__ = [
    "ReplicatedProgram",
    "replicate_hot_items",
    "simulate_replicated_program",
]


class ReplicatedProgram:
    """A broadcast program whose channels may carry overlapping items.

    Unlike :class:`~repro.simulation.server.BroadcastProgram`, the
    channel item lists need not partition the database — they must only
    *cover* it (every item broadcast somewhere) and stay duplicate-free
    within each channel.
    """

    def __init__(
        self,
        database: BroadcastDatabase,
        channel_items: Sequence[Sequence[DataItem]],
        *,
        bandwidth: float = DEFAULT_BANDWIDTH,
    ) -> None:
        if not channel_items:
            raise SimulationError("a program needs at least one channel")
        self._database = database
        self._channels: Tuple[BroadcastChannel, ...] = tuple(
            BroadcastChannel(index, group, bandwidth)
            for index, group in enumerate(channel_items)
        )
        carriers: Dict[str, List[int]] = {}
        for index, group in enumerate(channel_items):
            for item in group:
                if item.item_id not in database:
                    raise SimulationError(
                        f"item {item.item_id!r} is not in the database"
                    )
                carriers.setdefault(item.item_id, []).append(index)
        missing = [i for i in database.item_ids if i not in carriers]
        if missing:
            raise SimulationError(
                f"items not broadcast on any channel: {missing[:5]}"
            )
        self._carriers = carriers

    @property
    def database(self) -> BroadcastDatabase:
        return self._database

    @property
    def channels(self) -> Tuple[BroadcastChannel, ...]:
        return self._channels

    @property
    def num_channels(self) -> int:
        return len(self._channels)

    def carriers_of(self, item_id: str) -> List[int]:
        """Indices of the channels broadcasting ``item_id``."""
        try:
            return list(self._carriers[item_id])
        except KeyError:
            raise SimulationError(
                f"no channel carries item {item_id!r}"
            ) from None

    def replication_degree(self, item_id: str) -> int:
        return len(self.carriers_of(item_id))

    def total_broadcast_size(self) -> float:
        """Size units transmitted per full round of all channels —
        the bandwidth price of replication."""
        return sum(
            sum(item.size for item in channel.items)
            for channel in self._channels
        )

    def waiting_time(self, item_id: str, tune_in: float) -> float:
        """Waiting time with a schedule-aware client.

        The client tunes to whichever carrying channel completes a full
        transmission of the item first (it learned the schedules from a
        directory, cf. the indexing extension).
        """
        completions = [
            self._channels[index].delivery_completion(item_id, tune_in)
            for index in self.carriers_of(item_id)
        ]
        return min(completions) - tune_in


def replicate_hot_items(
    allocation: ChannelAllocation,
    num_replicated: int,
) -> List[List[DataItem]]:
    """Copy the ``num_replicated`` hottest items onto every channel.

    Returns per-channel item lists for :class:`ReplicatedProgram`.  The
    hot items keep their home slot and additionally appear (appended) on
    every other channel; ``num_replicated = 0`` returns the original
    partition unchanged.
    """
    if num_replicated < 0:
        raise SimulationError(
            f"num_replicated must be >= 0, got {num_replicated}"
        )
    database = allocation.database
    hot = [
        item.item_id
        for item in database.sorted_by_frequency()[:num_replicated]
    ]
    channel_lists: List[List[DataItem]] = [
        list(group) for group in allocation.channels
    ]
    for item_id in hot:
        item = database[item_id]
        home = allocation.channel_of(item_id)
        for index, group in enumerate(channel_lists):
            if index != home:
                group.append(item)
    return channel_lists


def simulate_replicated_program(
    program: ReplicatedProgram,
    *,
    num_requests: int = 10_000,
    arrival_rate: float = 1.0,
    seed: int = 0,
    request_probabilities: Optional[Sequence[float]] = None,
) -> SummaryStatistics:
    """Measured average waiting time under a Poisson request stream."""
    if num_requests < 1:
        raise SimulationError(
            f"num_requests must be >= 1, got {num_requests}"
        )
    generator = RequestGenerator(
        program.database,
        arrival_rate=arrival_rate,
        seed=seed,
        request_probabilities=request_probabilities,
    )
    ids = generator.item_ids
    arrivals, picks = generator.sample_batch(num_requests)
    return summarize(
        [
            program.waiting_time(ids[pick], clock)
            for clock, pick in zip(arrivals.tolist(), picks.tolist())
        ]
    )
