"""High-level simulation driver: validate allocations end-to-end.

:func:`run_broadcast_simulation` executes a broadcast program under a
Poisson request stream and reports the *measured* average waiting time
next to the *analytical* :math:`W_b` of Eq. (2).  The law of large
numbers says the two converge; the property-based tests assert it
within confidence bounds for arbitrary allocations.

The program is static — a fixed allocation, no re-allocation, no
client cache — so every request's waiting time is a closed-form
function of its tune-in instant and the carrying channel's cycle
geometry.  The whole stream is evaluated as a handful of numpy gathers
over the arrays of
:meth:`~repro.simulation.client.RequestGenerator.sample_batch`.

The arithmetic mirrors
:meth:`~repro.simulation.channel.BroadcastChannel.next_transmission_start`
operation for operation (same division, same ceil, same round-down
guard, same association order when adding the download time), and
summaries use exact ``math.fsum`` accumulation, so the report is
bitwise-identical to the event-driven reference
:func:`repro.verify.reference.run_broadcast_simulation` — two events
per request on :class:`~repro.simulation.engine.SimulationEngine` — for
the same seed (``oracle.simulators`` and ``tests/test_batched.py``
gate it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH, average_waiting_time
from repro.exceptions import SimulationError
from repro.simulation.client import RequestGenerator
from repro.simulation.metrics import SummaryStatistics, summarize
from repro.simulation.server import BroadcastProgram

__all__ = [
    "SimulationReport",
    "request_waiting_times",
    "run_broadcast_simulation",
]


@dataclass
class SimulationReport:
    """Outcome of one simulation run.

    Attributes
    ----------
    measured:
        Empirical waiting-time summary over all completed requests.
    analytical_waiting_time:
        The model's :math:`W_b` (Eq. 2) for the simulated allocation —
        only meaningful when all channels share one bandwidth and the
        request distribution matches the database profile.
    num_requests:
        Completed requests.
    per_item:
        Empirical summaries per item id (items never requested are
        absent).
    """

    measured: SummaryStatistics
    analytical_waiting_time: float
    num_requests: int
    per_item: Dict[str, SummaryStatistics]

    @property
    def relative_error(self) -> float:
        """``|measured − analytical| / analytical``."""
        if self.analytical_waiting_time == 0:
            raise SimulationError("analytical waiting time is zero")
        return (
            abs(self.measured.mean - self.analytical_waiting_time)
            / self.analytical_waiting_time
        )


def _program_geometry(
    program: BroadcastProgram, item_ids: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-item (cycle, slot offset, download time), in ``item_ids`` order.

    Computed straight off the allocation's index groups and the
    database's size array — no per-item objects, no per-item method
    calls.  ``np.cumsum`` over the per-slot durations is the channel's
    sequential ``elapsed += size / bandwidth`` accumulation, so every
    offset and cycle length is bit-for-bit the value
    :class:`~repro.simulation.channel.BroadcastChannel` holds.
    """
    allocation = program.allocation
    database = allocation.database
    sizes = database.sizes
    n = len(database)
    cycles = np.empty(n, dtype=np.float64)
    offsets = np.empty(n, dtype=np.float64)
    downloads = np.empty(n, dtype=np.float64)
    for channel, group in zip(
        program.channels, allocation.channel_index_groups
    ):
        slots = sizes[group] / channel.bandwidth
        starts = np.empty(len(slots) + 1, dtype=np.float64)
        starts[0] = 0.0
        np.cumsum(slots, out=starts[1:])
        cycles[group] = starts[-1]
        offsets[group] = starts[:-1]
        downloads[group] = slots
    order = np.fromiter(
        (database.index_of(item_id) for item_id in item_ids),
        dtype=np.intp,
        count=len(item_ids),
    )
    return cycles[order], offsets[order], downloads[order]


def request_waiting_times(
    program: BroadcastProgram,
    item_ids: Sequence[str],
    arrivals: np.ndarray,
    picks: np.ndarray,
) -> np.ndarray:
    """Waiting time of every request, vectorized over the whole stream.

    ``arrivals``/``picks`` are the arrays of
    :meth:`RequestGenerator.sample_batch`; ``item_ids`` maps pick
    indices to items.  Replicates the channel timing model exactly: a
    request tuning in at ``t`` waits for the start of the next *full*
    transmission of its item (slot starts at ``offset + n·cycle``) and
    then downloads it completely.
    """
    cycles, offsets, downloads = _program_geometry(program, item_ids)
    t = np.asarray(arrivals, dtype=np.float64)
    cycle = cycles[picks]
    offset = offsets[picks]
    # Same float ops as next_transmission_start: ceil of the elapsed
    # cycle fraction, then the round-down guard for the case where
    # float error lands the computed start just before the tune-in.
    elapsed_cycles = np.ceil((t - offset) / cycle)
    start = offset + elapsed_cycles * cycle
    start = np.where(t <= offset, offset, start)
    start = np.where(start < t, start + cycle, start)
    completion = start + downloads[picks]
    return completion - t


def _per_item_summaries(
    item_ids: Sequence[str], picks: np.ndarray, waits: np.ndarray
) -> Dict[str, SummaryStatistics]:
    """Summaries of the waits grouped by requested item.

    One stable sort, then contiguous slices — no per-request Python
    loop.  ``summarize`` accumulates with exact ``fsum``, so the
    grouping order does not change any statistic.
    """
    order = np.argsort(picks, kind="stable")
    sorted_picks = picks[order]
    sorted_waits = waits[order]
    bounds = np.flatnonzero(np.diff(sorted_picks)) + 1
    starts = np.concatenate(([0], bounds)).tolist()
    stops = bounds.tolist() + [len(sorted_waits)]
    return {
        item_ids[int(sorted_picks[lo])]: summarize(
            sorted_waits[lo:hi].tolist()
        )
        for lo, hi in zip(starts, stops)
    }


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
    """Simulate a broadcast program under a Poisson request stream.

    Parameters
    ----------
    allocation:
        The channel allocation to execute.
    bandwidth / bandwidths:
        Common, or per-channel, channel bandwidth.
    num_requests:
        Requests to generate; more requests tighten the match with the
        analytical model (error shrinks as ``1/√n``).
    arrival_rate:
        Poisson arrival rate λ (requests/second).  The rate does not
        bias the expectation — tune-in instants of a Poisson stream are
        uniform over the cycle in the long run (PASTA) — but a higher λ
        packs the same request count into fewer broadcast cycles.
    seed:
        RNG seed for the request stream.
    request_probabilities:
        Optional per-item request distribution override (profile
        mismatch experiments).

    Returns
    -------
    SimulationReport
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
    with obs.span(
        "sim.run",
        requests=num_requests,
        channels=allocation.num_channels,
    ) as span:
        arrivals, picks = generator.sample_batch(num_requests)
        item_ids = generator.item_ids
        waits = request_waiting_times(program, item_ids, arrivals, picks)
        if float(waits.min()) < 0:
            raise SimulationError(
                f"waiting time cannot be negative, got {float(waits.min())}"
            )
        report = SimulationReport(
            measured=summarize(waits.tolist()),
            analytical_waiting_time=average_waiting_time(
                allocation, bandwidth=bandwidth
            ),
            num_requests=int(num_requests),
            per_item=_per_item_summaries(item_ids, picks, waits),
        )
        span.update(
            requests_served=report.num_requests,
            measured_mean=report.measured.mean,
        )
        _record_simulation_metrics(report, allocation)
    return report


def _record_simulation_metrics(
    report: SimulationReport, allocation: ChannelAllocation
) -> None:
    """Bump the ``sim.*`` counters and per-channel utilization gauges.

    Utilization here is each channel's share of the served requests —
    the broadcast medium itself is always transmitting, so demand share
    is the quantity that distinguishes hot channels from cold ones.
    Gauges are per channel index; everything is computed from the
    report's per-item summaries (no per-request bookkeeping).
    """
    registry = obs.get_metrics()
    if not registry.enabled:
        return
    registry.counter("sim.runs").inc()
    registry.counter("sim.requests_served").inc(report.num_requests)
    total = report.num_requests
    if not total:
        return
    channel_of: Dict[str, int] = {}
    for channel in range(allocation.num_channels):
        for item in allocation.channel_items(channel):
            channel_of[item.item_id] = channel
    served = [0] * allocation.num_channels
    for item_id, summary in report.per_item.items():
        channel = channel_of.get(item_id)
        if channel is not None:
            served[channel] += summary.count
    for channel, count in enumerate(served):
        registry.gauge("sim.channel_utilization", channel=channel).set(
            count / total
        )
        registry.counter("sim.channel_requests", channel=channel).inc(count)
