"""Core of the reproduction: data model, cost model, DRP and CDS.

This subpackage implements the paper's primary contribution — the
analytical model of diverse data broadcasting (Section 2) and the
DRP/CDS channel-allocation scheme (Section 3).
"""

from repro.core.allocation import ChannelAllocation, ChannelStats
from repro.core.cds import CDSMove, CDSResult, cds_refine
from repro.core.cost import (
    DEFAULT_BANDWIDTH,
    allocation_cost,
    average_waiting_time,
    channel_costs,
    channel_waiting_time,
    group_aggregates,
    group_cost,
    item_waiting_time,
    move_delta,
    waiting_time_from_cost,
)
from repro.core.database import BroadcastDatabase
from repro.core.drp import DRPResult, DRPSnapshot, drp_allocate
from repro.core.hetero import (
    HeteroCDSResult,
    HeteroDRPCDSAllocator,
    assign_groups_to_bandwidths,
    channel_load,
    hetero_cds_refine,
    hetero_move_delta,
    hetero_waiting_time,
)
from repro.core.incremental import (
    DEFAULT_REGRESSION_GUARD,
    AllocationCache,
    CompactAllocation,
    IncrementalAllocator,
    IncrementalStats,
    WarmStartResult,
    database_fingerprint,
    insert_item,
    remove_item,
    update_frequency,
    warm_start_refine,
    workload_fingerprint,
)
from repro.core.item import DataItem
from repro.core.partition import (
    PrefixSums,
    best_split,
    best_split_in,
    contiguous_optimal,
    split_costs,
)
from repro.core.scheduler import (
    AllocationOutcome,
    Allocator,
    CDSOnlyAllocator,
    DRPAllocator,
    DRPCDSAllocator,
    available_allocators,
    make_allocator,
    register_allocator,
)

__all__ = [
    "DataItem",
    "BroadcastDatabase",
    "ChannelAllocation",
    "ChannelStats",
    "DEFAULT_BANDWIDTH",
    "group_cost",
    "group_aggregates",
    "allocation_cost",
    "channel_costs",
    "item_waiting_time",
    "channel_waiting_time",
    "average_waiting_time",
    "waiting_time_from_cost",
    "move_delta",
    "PrefixSums",
    "best_split",
    "best_split_in",
    "split_costs",
    "contiguous_optimal",
    "drp_allocate",
    "DRPResult",
    "DRPSnapshot",
    "cds_refine",
    "CDSResult",
    "CDSMove",
    "channel_load",
    "hetero_waiting_time",
    "hetero_move_delta",
    "hetero_cds_refine",
    "HeteroCDSResult",
    "HeteroDRPCDSAllocator",
    "assign_groups_to_bandwidths",
    "insert_item",
    "remove_item",
    "update_frequency",
    "DEFAULT_REGRESSION_GUARD",
    "AllocationCache",
    "CompactAllocation",
    "IncrementalAllocator",
    "IncrementalStats",
    "WarmStartResult",
    "database_fingerprint",
    "warm_start_refine",
    "workload_fingerprint",
    "Allocator",
    "AllocationOutcome",
    "DRPAllocator",
    "DRPCDSAllocator",
    "CDSOnlyAllocator",
    "register_allocator",
    "make_allocator",
    "available_allocators",
]
