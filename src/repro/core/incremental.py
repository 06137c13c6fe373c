"""Incremental program maintenance and the warm-start allocation engine.

A production catalogue changes constantly — items are published and
retired, popularity estimates move.  Rebuilding the program from
scratch is cheap with DRP-CDS, but even that is unnecessary when the
profile only drifted: near-optimal partitions are stable under small
frequency perturbations (the Kenyon–Schabanel–Young PTAS argument), so
re-seeding CDS from the previous allocation converges in a handful of
moves instead of a full rebuild.

Single-edit helpers (pure functions, pre-existing API):

* :func:`insert_item` — place a new item on the channel where the
  marginal cost increase (``F_g·z + Z_g·f + f·z``) is smallest;
* :func:`remove_item` — drop an item (merging channels if one empties);
* :func:`update_frequency` — replace one item's access frequency, then
  renormalise the whole profile (frequencies must keep summing to 1);

each followed by an optional CDS re-polish (on by default) so the
result is again a local optimum.

Warm-start engine (the adaptive loop / sweep machinery build on these):

* :func:`warm_start_refine` — one warm-started re-refinement with the
  regression guard: seed CDS from a previous grouping, compare the
  refined cost against a fresh rough-DRP estimate, and fall back to the
  cold DRP+CDS pipeline when the warm result regressed past the guard;
* :class:`IncrementalAllocator` — mutable engine holding the previous
  allocation plus its per-channel ``(F_i, Z_i)`` aggregates; accepts
  profile deltas (:meth:`~IncrementalAllocator.update_frequencies`,
  O(changed + K) aggregate maintenance) or whole drifted databases
  (:meth:`~IncrementalAllocator.reallocate`) and re-refines warm;
* :class:`AllocationCache` — bounded LRU of :class:`CompactAllocation`
  entries keyed by workload fingerprints, shared across epochs,
  replications and sweep cells;
* :func:`database_fingerprint` / :func:`workload_fingerprint` — the
  cache keys (sha256 over the exact profile, or over config digest +
  seed + N + K as manifests already compute).

When observability is enabled (:mod:`repro.obs`) the engine emits
``incremental.*`` spans and counters: ``incremental.cache_hits`` /
``cache_misses``, ``warm_starts`` / ``warm_moves``, ``cold_runs`` /
``cold_drp_splits`` and ``fallbacks`` (see docs/observability.md).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.core.allocation import ChannelAllocation
from repro.core.cds import cds_refine
from repro.core.cost import allocation_cost
from repro.core.database import BroadcastDatabase
from repro.core.drp import drp_allocate
from repro.core.item import DataItem
from repro.exceptions import (
    InfeasibleProblemError,
    InvalidAllocationError,
    InvalidDatabaseError,
)

__all__ = [
    "insert_item",
    "remove_item",
    "update_frequency",
    "DEFAULT_REGRESSION_GUARD",
    "CompactAllocation",
    "WarmStartResult",
    "warm_start_refine",
    "database_fingerprint",
    "workload_fingerprint",
    "AllocationCache",
    "IncrementalStats",
    "IncrementalAllocator",
]

#: Default regression guard: a warm-started refinement is accepted only
#: while its cost stays within ``rough DRP cost × guard``; beyond that
#: the engine falls back to the cold DRP+CDS pipeline and keeps the
#: better of the two results.  ``None`` disables the guard (and the
#: rough-DRP estimate that funds it).
DEFAULT_REGRESSION_GUARD = 1.02


def insert_item(
    allocation: ChannelAllocation,
    item: DataItem,
    *,
    repolish: bool = True,
) -> Tuple[BroadcastDatabase, ChannelAllocation]:
    """Add a new item to the catalogue and place it greedily.

    The new item's frequency is interpreted on the same scale as the
    existing profile; the returned database is renormalised so
    frequencies again sum to 1 (scaling every frequency, which rescales
    the cost function but not the relative quality of groupings).
    """
    old = allocation.database
    if item.item_id in old:
        raise InvalidDatabaseError(
            f"item {item.item_id!r} already exists; use update_frequency"
        )
    database = BroadcastDatabase(
        list(old.items) + [item], require_normalized=False
    ).normalized()
    # Greedy placement by marginal cost increase on the *old* scale —
    # renormalisation scales all frequencies equally, so the argmin is
    # unchanged.
    stats = allocation.channel_stats
    target = min(
        range(allocation.num_channels),
        key=lambda g: stats[g].frequency * item.size
        + stats[g].size * item.frequency
        + item.frequency * item.size,
    )
    groups: List[List[DataItem]] = [
        [database[member.item_id] for member in group]
        for group in allocation.channels
    ]
    groups[target].append(database[item.item_id])
    refreshed = ChannelAllocation(database, groups)
    if repolish:
        refreshed = cds_refine(refreshed).allocation
    return database, refreshed


def remove_item(
    allocation: ChannelAllocation,
    item_id: str,
    *,
    repolish: bool = True,
) -> Tuple[BroadcastDatabase, ChannelAllocation]:
    """Retire an item from the catalogue.

    If its channel empties, the channel count drops by one (an empty
    broadcast channel is a degenerate program); removing the last item
    of a single-channel program is infeasible.
    """
    old = allocation.database
    if item_id not in old:
        raise InvalidDatabaseError(f"no item {item_id!r} in the catalogue")
    remaining = [item for item in old.items if item.item_id != item_id]
    if not remaining:
        raise InfeasibleProblemError(
            "cannot remove the last item of the catalogue"
        )
    database = BroadcastDatabase(
        remaining, require_normalized=False
    ).normalized()
    groups = [
        [
            database[member.item_id]
            for member in group
            if member.item_id != item_id
        ]
        for group in allocation.channels
    ]
    groups = [group for group in groups if group]
    refreshed = ChannelAllocation(database, groups)
    if repolish:
        refreshed = cds_refine(refreshed).allocation
    return database, refreshed


def update_frequency(
    allocation: ChannelAllocation,
    item_id: str,
    frequency: float,
    *,
    repolish: bool = True,
) -> Tuple[BroadcastDatabase, ChannelAllocation]:
    """Replace one item's access frequency (then renormalise).

    The item keeps its channel initially; the optional CDS pass decides
    whether the new weight justifies moving it (or others).
    """
    old = allocation.database
    if item_id not in old:
        raise InvalidDatabaseError(f"no item {item_id!r} in the catalogue")
    if not frequency > 0:
        raise InvalidDatabaseError(
            f"frequency must be positive, got {frequency!r}"
        )
    updated = [
        DataItem(
            item.item_id,
            frequency if item.item_id == item_id else item.frequency,
            item.size,
            label=item.label,
        )
        for item in old.items
    ]
    database = BroadcastDatabase(
        updated, require_normalized=False
    ).normalized()
    groups = [
        [database[member.item_id] for member in group]
        for group in allocation.channels
    ]
    refreshed = ChannelAllocation(database, groups)
    if repolish:
        refreshed = cds_refine(refreshed).allocation
    return database, refreshed


# ----------------------------------------------------------------------
# Warm-start engine
# ----------------------------------------------------------------------
def _bump(name: str, amount: int = 1) -> None:
    """Increment an ``incremental.*`` counter when metrics are on."""
    registry = obs.get_metrics()
    if registry.enabled:
        registry.counter(name).inc(amount)


@dataclass(frozen=True)
class CompactAllocation:
    """A channel allocation as a compact item-id→channel vector.

    This is the form allocations take when cached or shipped across
    process boundaries (sweep workers receive their warm seeds as one
    of these): item ids in catalogue order plus one channel index per
    item — no :class:`DataItem` objects, no frequencies.  Rebuild a
    full allocation against any database over the same catalogue with
    :meth:`to_allocation`.
    """

    item_ids: Tuple[str, ...]
    assignment: Tuple[int, ...]
    num_channels: int
    cost: float

    @classmethod
    def from_allocation(
        cls, allocation: ChannelAllocation, *, cost: Optional[float] = None
    ) -> "CompactAllocation":
        return cls(
            item_ids=tuple(allocation.database.item_ids),
            assignment=tuple(allocation.assignment_vector()),
            num_channels=allocation.num_channels,
            cost=allocation_cost(allocation) if cost is None else cost,
        )

    def to_id_lists(self) -> List[List[str]]:
        """Per-channel item-id lists (the :func:`cds_refine` seed form)."""
        groups: List[List[str]] = [[] for _ in range(self.num_channels)]
        for item_id, channel in zip(self.item_ids, self.assignment):
            groups[channel].append(item_id)
        return groups

    def to_allocation(self, database: BroadcastDatabase) -> ChannelAllocation:
        """Rebase this grouping onto ``database`` (same catalogue ids)."""
        return ChannelAllocation.rebase(database, self.to_id_lists())

    def compatible_with(
        self, database: BroadcastDatabase, num_channels: int
    ) -> bool:
        """True when this grouping can seed a warm start for the given
        problem: same channel count and the same item-id set."""
        if self.num_channels != num_channels:
            return False
        if len(self.item_ids) != len(database):
            return False
        return all(item_id in database for item_id in self.item_ids)


@dataclass
class WarmStartResult:
    """Outcome of one warm-started (or guarded-cold) re-refinement.

    ``mode`` is ``"warm"`` (seeded CDS accepted), ``"fallback"`` (the
    regression guard tripped; the better of warm and cold was kept),
    ``"cold"`` (no usable seed — full DRP+CDS ran), or ``"cache"``
    (exact fingerprint hit; no search at all).
    """

    allocation: ChannelAllocation
    cost: float
    mode: str
    warm_moves: int = 0
    cold_moves: int = 0
    drp_splits: int = 0
    warm_cost: Optional[float] = None
    cold_estimate: Optional[float] = None

    @property
    def used_warm_result(self) -> bool:
        return self.mode in ("warm", "cache")


def _seed_id_lists(
    initial: Union[
        ChannelAllocation, CompactAllocation, Iterable[Sequence[str]]
    ],
) -> List[List[str]]:
    if isinstance(initial, ChannelAllocation):
        return initial.as_id_lists()
    if isinstance(initial, CompactAllocation):
        return initial.to_id_lists()
    return [list(ids) for ids in initial]


def _seed_compatible(
    id_lists: Sequence[Sequence[str]],
    database: BroadcastDatabase,
    num_channels: int,
) -> bool:
    if len(id_lists) != num_channels:
        return False
    total = sum(len(ids) for ids in id_lists)
    if total != len(database):
        return False
    return all(
        item_id in database for ids in id_lists for item_id in ids
    )


def _cold_pipeline(
    database: BroadcastDatabase,
    num_channels: int,
    *,
    max_iterations: Optional[int],
    scan: str = "auto",
) -> WarmStartResult:
    rough = drp_allocate(database, num_channels)
    refined = cds_refine(
        rough.allocation, max_iterations=max_iterations, scan=scan
    )
    return WarmStartResult(
        allocation=refined.allocation,
        cost=refined.cost,
        mode="cold",
        cold_moves=refined.iterations,
        drp_splits=rough.splits_evaluated,
        cold_estimate=rough.cost,
    )


def warm_start_refine(
    database: BroadcastDatabase,
    num_channels: int,
    initial: Union[
        ChannelAllocation, CompactAllocation, Iterable[Sequence[str]], None
    ],
    *,
    regression_guard: Optional[float] = DEFAULT_REGRESSION_GUARD,
    max_iterations: Optional[int] = None,
    scan: str = "auto",
) -> WarmStartResult:
    """Re-refine ``database`` warm-starting from a previous grouping.

    The seeded CDS pass early-exits as soon as no improving move exists
    (that is CDS's own convergence test — an unchanged profile costs one
    Δc scan and zero moves).  With ``regression_guard`` set, a rough DRP
    pass first provides the cold-start cost estimate; if the warm-started
    refinement lands above ``estimate × guard`` the cold pipeline runs
    from the DRP seed and the better of the two allocations wins — so a
    guarded warm start is never worse than cold beyond floating-point
    noise.  An incompatible seed (different channel count or item-id
    set) routes straight to the cold pipeline.

    ``scan`` is forwarded to every :func:`cds_refine` call —
    ``"incremental"`` composes particularly well with warm starts:
    few channels drift between epochs, so the dirty-pair index starts
    nearly converged and each of the few remaining moves re-evaluates
    only the cells it touches.

    Metrics counters bumped (when enabled): ``incremental.warm_starts``,
    ``incremental.warm_moves``, ``incremental.fallbacks``,
    ``incremental.cold_runs``, ``incremental.cold_drp_splits``.
    """
    with obs.span(
        "incremental.refine",
        items=len(database),
        channels=num_channels,
        guard=regression_guard if regression_guard is not None else 0.0,
    ) as span:
        id_lists = None if initial is None else _seed_id_lists(initial)
        if id_lists is None or not _seed_compatible(
            id_lists, database, num_channels
        ):
            result = _cold_pipeline(
                database,
                num_channels,
                max_iterations=max_iterations,
                scan=scan,
            )
            _bump("incremental.cold_runs")
            _bump("incremental.cold_drp_splits", result.drp_splits)
        elif regression_guard is None:
            seeded = ChannelAllocation.rebase(database, id_lists)
            warm = cds_refine(
                seeded, max_iterations=max_iterations, scan=scan
            )
            result = WarmStartResult(
                allocation=warm.allocation,
                cost=warm.cost,
                mode="warm",
                warm_moves=warm.iterations,
                warm_cost=warm.cost,
            )
            _bump("incremental.warm_starts")
            _bump("incremental.warm_moves", warm.iterations)
        else:
            rough = drp_allocate(database, num_channels)
            warm = cds_refine(
                rough.allocation,
                initial=id_lists,
                max_iterations=max_iterations,
                scan=scan,
            )
            _bump("incremental.warm_starts")
            _bump("incremental.warm_moves", warm.iterations)
            if warm.cost <= rough.cost * regression_guard:
                result = WarmStartResult(
                    allocation=warm.allocation,
                    cost=warm.cost,
                    mode="warm",
                    warm_moves=warm.iterations,
                    drp_splits=rough.splits_evaluated,
                    warm_cost=warm.cost,
                    cold_estimate=rough.cost,
                )
            else:
                cold = cds_refine(
                    rough.allocation, max_iterations=max_iterations, scan=scan
                )
                _bump("incremental.fallbacks")
                _bump("incremental.cold_runs")
                _bump("incremental.cold_drp_splits", rough.splits_evaluated)
                if cold.cost <= warm.cost:
                    winner, winner_cost = cold.allocation, cold.cost
                else:
                    winner, winner_cost = warm.allocation, warm.cost
                result = WarmStartResult(
                    allocation=winner,
                    cost=winner_cost,
                    mode="fallback",
                    warm_moves=warm.iterations,
                    cold_moves=cold.iterations,
                    drp_splits=rough.splits_evaluated,
                    warm_cost=warm.cost,
                    cold_estimate=rough.cost,
                )
        span.update(
            mode=result.mode,
            cost=result.cost,
            warm_moves=result.warm_moves,
            cold_moves=result.cold_moves,
        )
    return result


# ----------------------------------------------------------------------
# Workload fingerprints and the allocation cache
# ----------------------------------------------------------------------
def database_fingerprint(
    database: BroadcastDatabase,
    num_channels: int,
    *,
    algorithm: Optional[str] = None,
) -> str:
    """sha256 over the exact profile: every (id, frequency, size) plus K.

    Two databases share a fingerprint iff their catalogues are
    bit-identical, so a cache hit can return the stored allocation
    outright — its cost is exact for the keyed problem.
    """
    hasher = hashlib.sha256()
    hasher.update(f"K={num_channels};alg={algorithm or ''};".encode())
    # ``tolist()`` yields plain doubles, so ``repr`` renders each
    # feature exactly as the item objects would.
    for item_id, frequency, size in zip(
        database.item_ids,
        database.frequencies.tolist(),
        database.sizes.tolist(),
    ):
        hasher.update(f"{item_id}:{frequency!r}:{size!r};".encode())
    return hasher.hexdigest()


def workload_fingerprint(
    *,
    num_items: int,
    num_channels: int,
    seed: Optional[int] = None,
    config: Any = None,
    algorithm: Optional[str] = None,
) -> str:
    """sha256 over (config digest, seed, N, K[, algorithm]).

    The derived-workload key: experiment cells regenerate their database
    deterministically from ``config.seed_for(...)``, so the tuple that
    determines the generation fully identifies the workload — the same
    identity the run manifests record via
    :func:`repro.obs.manifest.config_digest`.
    """
    from repro.obs.manifest import config_digest

    parts = [
        f"seed={seed!r}",
        f"N={num_items}",
        f"K={num_channels}",
        f"alg={algorithm or ''}",
    ]
    if config is not None:
        parts.append(f"config={config_digest(config)}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


class AllocationCache:
    """Bounded LRU cache of :class:`CompactAllocation` entries.

    Keys are workload fingerprints (:func:`database_fingerprint` /
    :func:`workload_fingerprint`).  An exact hit returns the stored
    grouping — the adaptive loop reuses it outright when an epoch's
    believed profile recurs; sweep and replication machinery uses
    entries as warm-start seeds.  Hits and misses are tallied locally
    and on the ``incremental.cache_hits`` / ``cache_misses`` counters.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._entries: "OrderedDict[str, CompactAllocation]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[CompactAllocation]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            _bump("incremental.cache_misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        _bump("incremental.cache_hits")
        return entry

    def put(
        self,
        key: str,
        value: Union[CompactAllocation, ChannelAllocation],
        *,
        cost: Optional[float] = None,
    ) -> CompactAllocation:
        if isinstance(value, ChannelAllocation):
            value = CompactAllocation.from_allocation(value, cost=cost)
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
        return value

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


# ----------------------------------------------------------------------
# The incremental allocation engine
# ----------------------------------------------------------------------
@dataclass
class IncrementalStats:
    """Running tallies of one :class:`IncrementalAllocator`'s activity."""

    cold_runs: int = 0
    warm_runs: int = 0
    fallbacks: int = 0
    cache_hits: int = 0
    updates: int = 0
    warm_moves: int = 0
    cold_moves: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "cold_runs": self.cold_runs,
            "warm_runs": self.warm_runs,
            "fallbacks": self.fallbacks,
            "cache_hits": self.cache_hits,
            "updates": self.updates,
            "warm_moves": self.warm_moves,
            "cold_moves": self.cold_moves,
        }


class IncrementalAllocator:
    """Warm-start allocation engine with delta-maintained cost state.

    Holds the previous :class:`ChannelAllocation` together with its
    per-channel ``(F_i, Z_i)`` aggregates — the bookkeeping CDS's Δc
    formula (Eq. 4) reads — as mutable state.  Profile deltas arrive
    either as a frequency patch (:meth:`update_frequencies`, maintained
    in O(changed + K)) or as a whole drifted database
    (:meth:`reallocate`).  Either way the engine re-refines by seeding
    CDS from the previous grouping and only falls back to the full
    DRP pipeline when the regression guard trips or the problem shape
    (item-id set / channel count) changed.

    An optional :class:`AllocationCache` is consulted before any search
    — an exact profile fingerprint hit skips even the warm Δc scan.

    Not thread-safe; one engine per adaptation loop.
    """

    def __init__(
        self,
        num_channels: Optional[int] = None,
        *,
        regression_guard: Optional[float] = DEFAULT_REGRESSION_GUARD,
        max_iterations: Optional[int] = None,
        scan: str = "auto",
        cache: Optional[AllocationCache] = None,
    ) -> None:
        if regression_guard is not None and regression_guard < 1.0:
            raise ValueError(
                f"regression_guard must be >= 1.0 or None, got {regression_guard}"
            )
        self._num_channels = num_channels
        self._regression_guard = regression_guard
        self._max_iterations = max_iterations
        self._scan = scan
        self.cache = cache
        self.stats = IncrementalStats()
        self._database: Optional[BroadcastDatabase] = None
        self._allocation: Optional[ChannelAllocation] = None
        self._cost: Optional[float] = None
        self._frequency_map: Optional[Dict[str, float]] = None
        self._agg_f: List[float] = []
        self._agg_z: List[float] = []

    # -- read-only state ------------------------------------------------
    @property
    def num_channels(self) -> Optional[int]:
        return self._num_channels

    @property
    def database(self) -> Optional[BroadcastDatabase]:
        return self._database

    @property
    def allocation(self) -> Optional[ChannelAllocation]:
        return self._allocation

    @property
    def cost(self) -> Optional[float]:
        """Cost of the held allocation, from the maintained aggregates."""
        if not self._agg_f:
            return self._cost
        return sum(f * z for f, z in zip(self._agg_f, self._agg_z))

    @property
    def channel_aggregates(self) -> List[Tuple[float, float]]:
        """The maintained per-channel ``(F_i, Z_i)`` pairs."""
        return list(zip(self._agg_f, self._agg_z))

    # -- state maintenance ----------------------------------------------
    def _adopt(
        self, database: BroadcastDatabase, allocation: ChannelAllocation,
        cost: float,
    ) -> None:
        self._database = database
        self._allocation = allocation
        self._cost = cost
        self._frequency_map = None  # rebuilt lazily on the next patch
        self._agg_f = [stat.frequency for stat in allocation.channel_stats]
        self._agg_z = [stat.size for stat in allocation.channel_stats]

    def _frequencies(self) -> Dict[str, float]:
        """The held profile as an id → frequency map (lazy, cached).

        Only the frequency-patch path needs it; plain reallocate cycles
        never pay for the N-entry dict.  Built off the id/feature
        arrays, so no :class:`DataItem` objects are materialised.
        """
        if self._frequency_map is None:
            database = self._database
            self._frequency_map = dict(
                zip(database.item_ids, database.frequencies.tolist())
            )
        return self._frequency_map

    def _shape_changed(
        self, database: BroadcastDatabase, num_channels: int
    ) -> bool:
        if self._allocation is None or self._database is None:
            return True
        if num_channels != self._allocation.num_channels:
            return True
        if len(database) != len(self._database):
            return True
        return any(
            item_id not in self._database for item_id in database.item_ids
        )

    # -- entry points ---------------------------------------------------
    def reallocate(
        self,
        database: BroadcastDatabase,
        num_channels: Optional[int] = None,
    ) -> WarmStartResult:
        """(Re-)allocate for ``database``, warm when the state allows.

        The first call (or any call after N/K changed) is a cold
        DRP+CDS run that seeds the engine; subsequent calls warm-start
        from the held allocation under the regression guard.  With a
        cache attached, an exact profile fingerprint hit returns the
        cached grouping without any search.
        """
        if num_channels is None:
            num_channels = self._num_channels
        if num_channels is None:
            raise InfeasibleProblemError(
                "num_channels not set: pass it to reallocate() or the "
                "IncrementalAllocator constructor"
            )
        self._num_channels = num_channels
        with obs.span(
            "incremental.reallocate",
            items=len(database),
            channels=num_channels,
        ) as span:
            fingerprint: Optional[str] = None
            if self.cache is not None:
                fingerprint = database_fingerprint(database, num_channels)
                cached = self.cache.get(fingerprint)
                if cached is not None and cached.compatible_with(
                    database, num_channels
                ):
                    allocation = cached.to_allocation(database)
                    result = WarmStartResult(
                        allocation=allocation,
                        cost=allocation_cost(allocation),
                        mode="cache",
                    )
                    self.stats.cache_hits += 1
                    self._adopt(database, allocation, result.cost)
                    span.update(mode="cache", cost=result.cost)
                    return result
            initial = (
                None
                if self._shape_changed(database, num_channels)
                else self._allocation
            )
            result = warm_start_refine(
                database,
                num_channels,
                initial,
                regression_guard=self._regression_guard,
                max_iterations=self._max_iterations,
                scan=self._scan,
            )
            if result.mode == "cold":
                self.stats.cold_runs += 1
            elif result.mode == "fallback":
                self.stats.fallbacks += 1
            else:
                self.stats.warm_runs += 1
            self.stats.warm_moves += result.warm_moves
            self.stats.cold_moves += result.cold_moves
            self._adopt(database, result.allocation, result.cost)
            if self.cache is not None and fingerprint is not None:
                self.cache.put(fingerprint, result.allocation, cost=result.cost)
            span.update(mode=result.mode, cost=result.cost)
        return result

    def update_frequencies(
        self,
        changed: Mapping[str, float],
        *,
        refine: bool = True,
    ) -> WarmStartResult:
        """Apply a frequency patch to the held profile, then re-refine.

        The per-channel ``(F_i, Z_i)`` aggregates are maintained with
        one O(1) delta per changed item plus an O(K) renormalisation
        sweep — never an O(N·K) rebuild.  ``refine=False`` applies the
        bookkeeping only (the held grouping keeps its channel shape and
        the engine's :attr:`cost` reflects the new profile); the default
        re-runs the guarded warm refinement.
        """
        if self._allocation is None or self._database is None:
            raise InfeasibleProblemError(
                "no allocation held yet: call reallocate() first"
            )
        if not changed:
            result = WarmStartResult(
                allocation=self._allocation,
                cost=self.cost if self.cost is not None else 0.0,
                mode="cache",
            )
            self.stats.cache_hits += 1
            return result
        with obs.span(
            "incremental.update",
            changed=len(changed),
            items=len(self._database),
        ):
            allocation = self._allocation
            frequencies = self._frequencies()
            # O(changed) aggregate deltas on the un-normalised scale.
            for item_id, frequency in changed.items():
                if item_id not in frequencies:
                    raise InvalidDatabaseError(
                        f"no item {item_id!r} in the catalogue; use "
                        "insert_item for new items"
                    )
                if not frequency > 0:
                    raise InvalidDatabaseError(
                        f"frequency of {item_id!r} must be positive, "
                        f"got {frequency!r}"
                    )
                channel = allocation.channel_of(item_id)
                self._agg_f[channel] += frequency - frequencies[item_id]
                frequencies[item_id] = frequency
            # O(K) renormalisation: scaling every frequency by 1/total
            # scales every F_i identically (Z_i untouched).
            total = sum(self._agg_f)
            scale = 1.0 / total
            self._agg_f = [f * scale for f in self._agg_f]
            # Patch the changed entries in a copy of the frequency
            # array, scale elementwise (``x * scale`` is the per-item
            # multiply) and clone the database around the new array —
            # sizes, ids and labels are shared, and no DataItem is
            # materialised.
            current = np.array(self._database.frequencies)
            for item_id, frequency in changed.items():
                current[self._database.index_of(item_id)] = frequency
            database = self._database.with_frequencies(
                current * scale, require_normalized=False
            )
            refreshed = self._allocation.with_database(database)
            self._frequency_map = None
            self._database = database
            self._allocation = refreshed
            self.stats.updates += 1
        if not refine:
            cost = self.cost
            self._cost = cost
            return WarmStartResult(
                allocation=self._allocation,
                cost=cost if cost is not None else 0.0,
                mode="warm",
            )
        return self.reallocate(database, self._num_channels)
