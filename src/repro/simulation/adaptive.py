"""Adaptive broadcasting: the live service under drifting demand.

The paper generates one program from one static profile.  A deployed
server (its Figure 1) keeps collecting access patterns while interests
drift, and periodically regenerates the program.  That loop is
:class:`~repro.service.serve.BroadcastService`; this module runs it
over a :func:`~repro.workloads.trace.drifting_stream` whose *true*
popularity is known epoch by epoch, and scores each epoch against that
truth:

1. clients issue requests according to the epoch's true popularity
   (:class:`RotatingDrift`);
2. the service measures waiting times under the program on air and
   feeds every request to its decaying count-min sketch;
3. at each epoch boundary the service re-estimates the profile and —
   unless it did not move — re-allocates through its warm-start engine,
   handing the new program over at the next major-cycle boundary.

:func:`run_adaptive_simulation` adds only what the service cannot know:
the allocation's cost and the believed profile's error under the true
distribution.  Comparing it against a static program (``adapt=False``)
quantifies how much the paper's fast allocator buys operationally:
DRP-CDS is cheap enough to re-run every epoch, which a GA-based GOPT
would not be.

Extension beyond the paper (DESIGN.md §6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional, Tuple

from repro import obs
from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH, cost_under_profile
from repro.core.database import BroadcastDatabase
from repro.exceptions import SimulationError
from repro.simulation.metrics import SummaryStatistics, summarize
from repro.workloads.trace import RotatingDrift, TraceRecord, drifting_stream

__all__ = ["RotatingDrift", "EpochReport", "run_adaptive_simulation"]


@dataclass
class EpochReport:
    """Measurements of one adaptation epoch.

    ``measured`` and the provenance fields (``reallocated``,
    ``cache_hit``, ``warm_moves``, ``allocation_mode``) are those of the
    service's :class:`~repro.service.serve.ServeEpochReport` for the
    epoch; the other two are scored against the epoch's true
    distribution, with the allocation on air and the believed profile
    as they stand when the epoch closes.

    Attributes
    ----------
    epoch:
        0-based epoch index.
    measured:
        Waiting-time summary of this epoch's requests.
    cost_under_truth:
        Eq.-(3) cost of the epoch's allocation *evaluated against the
        true popularity* — the quantity the allocator would minimise if
        it knew the truth.
    profile_error:
        L1 distance between the profile the program was built from and
        the epoch's true distribution (0 = the server knew the truth).
    reallocated:
        Whether the program was regenerated before this epoch.
    cache_hit:
        True when the epoch boundary reused a previous program instead
        of searching: the estimate showed zero L1 drift, or the warm
        engine's allocation cache held the believed profile.
    warm_moves:
        CDS moves the warm-started refinement executed at the preceding
        epoch boundary (0 for cold/static/reused epochs).
    allocation_mode:
        How this epoch's program was obtained: ``"cold"``, ``"warm"``,
        ``"fallback"``, ``"cache"``, ``"reused"`` (zero-drift program
        reuse) or ``"static"`` (no adaptation requested).
    """

    epoch: int
    measured: SummaryStatistics
    cost_under_truth: float
    profile_error: float
    reallocated: bool
    cache_hit: bool = False
    warm_moves: int = 0
    allocation_mode: str = "cold"


def run_adaptive_simulation(
    database: BroadcastDatabase,
    num_channels: int,
    *,
    epochs: int = 8,
    requests_per_epoch: int = 4000,
    drift: Optional[RotatingDrift] = None,
    adapt: bool = True,
    bandwidth: float = DEFAULT_BANDWIDTH,
    seed: int = 0,
) -> List[EpochReport]:
    """Simulate epochs of drifting demand with optional re-allocation.

    Parameters
    ----------
    database:
        The catalogue with its *initial* access profile; sizes are fixed
        throughout, frequencies drift.  The first program is the cold
        DRP+CDS allocation of this profile.
    num_channels:
        Channel count K.
    epochs / requests_per_epoch:
        Simulation horizon.  An epoch lasts ``requests_per_epoch``
        seconds of stream time (one request per second, as
        :func:`~repro.workloads.trace.synthesize_trace` draws them).
    drift:
        The popularity drift model; default rotates by one rank per
        epoch.
    adapt:
        True runs a :class:`~repro.service.serve.BroadcastService` (its
        default sketch and smoothing) over the stream.  False replays
        the same stream against the first program only — the static
        baseline.
    bandwidth:
        Channel bandwidth ``b``.
    seed:
        Master seed; epoch ``e`` draws its requests with ``seed + e``.

    Returns
    -------
    list of EpochReport, one per epoch.
    """
    if epochs < 1:
        raise SimulationError(f"epochs must be >= 1, got {epochs}")
    if requests_per_epoch < 1:
        raise SimulationError(
            f"requests_per_epoch must be >= 1, got {requests_per_epoch}"
        )
    if drift is None:
        drift = RotatingDrift(
            [item.frequency for item in database.items], shift_per_epoch=1
        )
    # Imported here: the service imports repro.simulation, whose package
    # imports this module.
    from repro.service.serve import BroadcastService

    epoch_seconds = float(requests_per_epoch)
    service = BroadcastService(
        {item.item_id: item.size for item in database.items},
        num_channels,
        bandwidth=bandwidth,
        epoch_seconds=epoch_seconds,
        initial_database=database,
    )
    stream = drifting_stream(
        database,
        epochs=epochs,
        requests_per_epoch=requests_per_epoch,
        epoch_seconds=epoch_seconds,
        drift=drift,
        seed=seed,
    )
    ids = list(database.item_ids)
    scores: List[Tuple[float, float]] = []

    def score(allocation: ChannelAllocation, believed: BroadcastDatabase) -> None:
        truth = drift.probabilities(len(scores)).tolist()
        cost = cost_under_profile(allocation, dict(zip(ids, truth)))
        error = math.fsum(
            abs(item.frequency - p) for item, p in zip(believed.items, truth)
        )
        scores.append((cost, error))
        registry = obs.get_metrics()
        if registry.enabled:
            registry.gauge("adaptive.cost_under_truth").set(cost)
            registry.gauge("adaptive.profile_error").set(error)

    if not adapt:
        program = service.live.program
        reports = []
        for epoch in range(epochs):
            waits = [
                program.waiting_time(record.item_id, record.timestamp)
                for record in islice(stream, requests_per_epoch)
            ]
            score(program.allocation, database)
            cost, error = scores[-1]
            reports.append(
                EpochReport(
                    epoch=epoch,
                    measured=summarize(waits),
                    cost_under_truth=cost,
                    profile_error=error,
                    reallocated=epoch == 0,
                    allocation_mode="static",
                )
            )
        return reports

    def scored_stream() -> Iterator[TraceRecord]:
        # Epoch e closes when the service pulls epoch e+1's first record
        # (or finds the stream dry): score the state it closes with just
        # before handing that record over.
        for epoch in range(epochs):
            if epoch:
                score(service.live.allocation, service.believed)
            yield from islice(stream, requests_per_epoch)
        score(service.live.allocation, service.believed)

    return [
        EpochReport(
            epoch=served.epoch,
            measured=served.measured,
            cost_under_truth=cost,
            profile_error=error,
            reallocated=served.reallocated,
            cache_hit=served.cache_hit,
            warm_moves=served.warm_moves,
            allocation_mode=served.allocation_mode,
        )
        for served, (cost, error) in zip(service.run(scored_stream()), scores)
    ]
