"""Broadcast simulation substrate.

Validates the analytical waiting-time model end-to-end: cyclic
broadcast channels serve a Poisson client request stream
(:class:`RequestGenerator`) and the actual waiting times are measured.
The static program is simulated in closed form
(:func:`run_broadcast_simulation`); extensions whose state evolves with
the stream — client caches, on-demand queues, adaptive re-allocation —
run request by request, the on-demand server on the deterministic event
kernel (:class:`SimulationEngine`).
"""

from repro.simulation.adaptive import (
    EpochReport,
    RotatingDrift,
    run_adaptive_simulation,
)
from repro.simulation.cache import (
    CachePolicy,
    CacheReport,
    ClientCache,
    LFUPolicy,
    LRUPolicy,
    PIXPolicy,
    simulate_with_cache,
)
from repro.simulation.channel import BroadcastChannel
from repro.simulation.client import RequestGenerator
from repro.simulation.disks import (
    MultiScheduleChannel,
    broadcast_disk_schedule,
    disks_from_allocation,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import Event, EventPriority
from repro.simulation.indexing import (
    IndexedChannel,
    IndexedTiming,
    optimal_index_replication,
)
from repro.simulation.replication import (
    ReplicatedProgram,
    replicate_hot_items,
    simulate_replicated_program,
)
from repro.simulation.queries import (
    QueryRetrieval,
    retrieve_query,
    simulate_query_workload,
)
from repro.simulation.ondemand import (
    FCFSPolicy,
    MRFPolicy,
    OnDemandReport,
    RxWPolicy,
    SizeAwareRxWPolicy,
    compare_push_pull,
    simulate_on_demand,
)
from repro.simulation.metrics import SummaryStatistics, summarize
from repro.simulation.server import BroadcastProgram
from repro.simulation.simulator import (
    SimulationReport,
    request_waiting_times,
    run_broadcast_simulation,
)

__all__ = [
    "Event",
    "EventPriority",
    "SimulationEngine",
    "BroadcastChannel",
    "BroadcastProgram",
    "RequestGenerator",
    "SummaryStatistics",
    "summarize",
    "SimulationReport",
    "run_broadcast_simulation",
    "request_waiting_times",
    "RotatingDrift",
    "EpochReport",
    "run_adaptive_simulation",
    "IndexedChannel",
    "IndexedTiming",
    "optimal_index_replication",
    "QueryRetrieval",
    "retrieve_query",
    "simulate_query_workload",
    "ReplicatedProgram",
    "replicate_hot_items",
    "simulate_replicated_program",
    "CachePolicy",
    "LRUPolicy",
    "LFUPolicy",
    "PIXPolicy",
    "ClientCache",
    "CacheReport",
    "simulate_with_cache",
    "FCFSPolicy",
    "MRFPolicy",
    "RxWPolicy",
    "SizeAwareRxWPolicy",
    "OnDemandReport",
    "simulate_on_demand",
    "compare_push_pull",
    "MultiScheduleChannel",
    "broadcast_disk_schedule",
    "disks_from_allocation",
]
