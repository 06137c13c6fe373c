"""The cell scheduler: deterministic fan-out of a sweep grid.

The sweep grid of an :class:`~repro.experiments.config.ExperimentConfig`
is embarrassingly parallel — every (sweep value, replication, algorithm)
cell is independent, and the workload of a cell is fully determined by
``config.seed_for(value_index, replication)``.  Cells are described by
tiny :class:`CellSpec` descriptors and executed by :func:`run_cell`,
which *re-derives* the workload from the config, so only the config,
the descriptors and small :class:`CellOutcome` result records ever
cross a process pipe.

:func:`stream_outcomes` is the one scheduler behind both engines —
:func:`execute_cells` (and so
:func:`~repro.experiments.runner.run_experiment` with ``workers`` or
``warm_start``) and :func:`~repro.experiments.shards.run_shard`.  It
runs cells in waves, inline or over one process pool, and yields each
outcome in submission order as soon as it is collected:

* **Cold** runs are a single wave.  Collecting in submission order
  makes the merged rows bitwise-identical to a serial run for any
  worker count.
* **Warm** runs take two waves per sweep value, ascending: replication
  0, then the other replications.  :func:`seed_producers` is the seed
  rule — a replication > 0 cell prefers its own value's replication 0,
  and every cell falls back to the nearest smaller sweep value of the
  same (N, K) — so every seed comes from an already finished wave and
  depends on the grid, never on scheduling.  A :class:`SeedBank` holds
  the harvested replication-0 allocations; the shard fabric subclasses
  it to resolve misses from its stores.

Three more design points:

* **Workload memo** — workers keep a small per-process cache of
  generated databases keyed by :class:`WorkloadSpec`, so the cells of
  one (sweep value, replication) pair that land on the same worker
  synthesise their shared database once instead of once per algorithm.
* **Error capture** — a cell whose allocator raises returns a
  :class:`CellOutcome` carrying the error message instead of poisoning
  the pool; the merge layer records it as a
  :class:`~repro.experiments.records.CellError` and aggregates the
  surviving replications.
* **Timeouts** — ``cell_timeout`` bounds how long the scheduler waits
  for any single pooled cell result (measured from the moment the
  cell's result is awaited).  A timed-out cell degrades to a recorded
  error; the worker executing it is not interrupted, so treat the
  timeout as a liveness guard for the sweep, not a hard kill.

:func:`map_ordered` is a separate, plain ordered map whose exceptions
propagate; the optimality-gap experiment uses it.
"""

from __future__ import annotations

import os
import queue as queue_module
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import repro.baselines  # noqa: F401  (registers baseline allocators)
from repro import obs
from repro.core.cost import average_waiting_time
from repro.core.database import BroadcastDatabase
from repro.core.incremental import CompactAllocation
from repro.core.scheduler import make_allocator
from repro.experiments.config import ExperimentConfig
from repro.workloads.generator import WorkloadSpec, generate_database

__all__ = [
    "CellSpec",
    "CellOutcome",
    "WorkloadMemo",
    "WORKERS_ENV_VAR",
    "auto_workers",
    "resolve_workers",
    "build_cell_grid",
    "run_cell",
    "seed_producers",
    "SeedBank",
    "stream_outcomes",
    "execute_cells",
    "map_ordered",
]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV_VAR = "REPRO_WORKERS"

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class CellSpec:
    """Descriptor of one (sweep value, replication, algorithm) cell.

    Deliberately tiny — this is all that crosses the pipe to a worker;
    the workload itself is re-derived from the config's seed scheme.
    """

    value_index: int
    replication: int
    algorithm: str


@dataclass(frozen=True)
class CellOutcome:
    """Result of one cell: measurements on success, a message on failure.

    Exactly one of the two shapes occurs: ``error is None`` with all
    three measurements set, or ``error`` set with the measurements None.

    The observability fields ride the same pipe: ``worker_pid`` and the
    wall-clock ``started_unix``/``finished_unix`` pair let the parent
    compute queue-wait vs compute time per cell, and — when tracing /
    metrics are enabled — ``spans`` / ``metrics`` carry the worker's
    finished span payloads and counter snapshot for deterministic
    grid-order merging (all ``None`` when observability is off, so the
    descriptor stays tiny).
    """

    value_index: int
    replication: int
    algorithm: str
    cost: Optional[float] = None
    waiting_time: Optional[float] = None
    elapsed_seconds: Optional[float] = None
    error: Optional[str] = None
    worker_pid: Optional[int] = None
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    spans: Optional[Tuple[Dict[str, Any], ...]] = None
    metrics: Optional[Dict[str, Any]] = None
    #: The cell's allocation as a compact item-id→channel vector;
    #: populated only for warm-start sweeps (``collect_seed=True``), so
    #: later cells can warm-start from it.  Stripped before outcomes
    #: leave :func:`stream_outcomes` — it exists to ride the result pipe.
    seed_result: Optional[CompactAllocation] = None


class WorkloadMemo:
    """Small FIFO cache of generated databases, keyed by workload spec.

    One lives in every worker process (and one serves the inline
    ``workers=1`` path) so that the per-algorithm cells of one
    (sweep value, replication) pair generate their shared database once.
    The capacity only needs to cover the few specs a worker interleaves
    at a time; FIFO eviction keeps the memory footprint bounded for
    arbitrarily long sweeps.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._cache: Dict[WorkloadSpec, BroadcastDatabase] = {}
        self.hits = 0
        self.misses = 0

    def get(self, spec: WorkloadSpec) -> BroadcastDatabase:
        """The database for ``spec``, generated on first request."""
        database = self._cache.get(spec)
        if database is not None:
            self.hits += 1
            return database
        self.misses += 1
        database = generate_database(spec)
        if len(self._cache) >= self._max_entries:
            # FIFO eviction: drop the oldest insertion.
            self._cache.pop(next(iter(self._cache)))
        self._cache[spec] = database
        return database

    def __len__(self) -> int:
        return len(self._cache)


def auto_workers() -> int:
    """The worker count ``"auto"`` resolves to: one per *usable* CPU.

    Clamped to ``os.cpu_count()`` and, where the platform reports it,
    the process's CPU affinity mask — inside a container pinned to one
    core, ``os.cpu_count()`` reports the host's cores, and fanning a
    sweep out that wide just pays pickling overhead for a 0.9×
    "speedup".  Never below 1.
    """
    count = os.cpu_count() or 1
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # platform without affinity masks
        affinity = count
    return max(1, min(count, affinity))


def resolve_workers(
    workers: Union[int, str, None] = None,
) -> Optional[int]:
    """Normalise a worker request to ``None`` (serial) or a count >= 1.

    ``None`` defers to the ``REPRO_WORKERS`` environment variable; when
    that is unset too, the answer is ``None`` — the caller should take
    the plain serial path.  ``"auto"`` (or any count < 1) means "one
    worker per usable CPU" — see :func:`auto_workers` for the clamp.
    An explicit integer is honoured as given (oversubscription stays
    possible when deliberately requested).
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not raw:
            return None
        workers = raw
    if isinstance(workers, str):
        if workers.lower() == "auto":
            return auto_workers()
        try:
            workers = int(workers)
        except ValueError:
            raise ValueError(
                f"worker count must be an integer or 'auto', got {workers!r}"
            ) from None
    if workers < 1:
        return auto_workers()
    return int(workers)


def build_cell_grid(config: ExperimentConfig) -> List[CellSpec]:
    """Every cell of the sweep, in canonical (value, replication,
    algorithm) order — the order the serial runner visits them, and the
    order results are merged back in."""
    return [
        CellSpec(value_index=value_index, replication=replication, algorithm=algorithm)
        for value_index in range(len(config.sweep_values))
        for replication in range(config.replications)
        for algorithm in config.algorithms
    ]


def run_cell(
    config: ExperimentConfig,
    spec: CellSpec,
    memo: Optional[WorkloadMemo] = None,
    *,
    warm_seed: Optional[CompactAllocation] = None,
    collect_seed: bool = False,
) -> CellOutcome:
    """Execute one cell, capturing any failure as a recorded error.

    ``warm_seed`` — optional compact allocation from a neighbouring
    finished cell; it is handed to the allocator as a warm-start seed
    (algorithms without warm-start support ignore it).  With
    ``collect_seed`` the outcome carries the cell's own allocation in
    compact form so the scheduler can seed later cells from it.

    Emits an ``experiment.cell`` span (worker pid, sweep coordinates,
    outcome or error tag) on whatever tracer is active in the executing
    process — the parent's for serial runs, the worker's own for pooled
    runs, whose spans the parent later adopts.
    """
    started = time.time()
    with obs.span(
        "experiment.cell",
        value_index=spec.value_index,
        replication=spec.replication,
        algorithm=spec.algorithm,
        worker_pid=os.getpid(),
        warm_seeded=warm_seed is not None,
    ) as span:
        try:
            value = config.sweep_values[spec.value_index]
            point = config.point_parameters(value)
            workload = WorkloadSpec(
                num_items=point.num_items,
                skewness=point.skewness,
                diversity=point.diversity,
                seed=config.seed_for(spec.value_index, spec.replication),
            )
            database = (
                memo.get(workload) if memo is not None else generate_database(workload)
            )
            allocator = make_allocator(spec.algorithm)
            outcome = allocator.allocate(
                database, point.num_channels, initial=warm_seed
            )
            span.update(cost=outcome.cost, compute_seconds=outcome.elapsed_seconds)
            registry = obs.get_metrics()
            if registry.enabled:
                registry.counter("experiment.cells").inc()
                registry.counter(
                    "experiment.cells_by_algorithm", algorithm=spec.algorithm
                ).inc()
                registry.histogram("experiment.cell_seconds").observe(
                    outcome.elapsed_seconds
                )
                if warm_seed is not None:
                    registry.counter("experiment.warm_seeded_cells").inc()
            return CellOutcome(
                value_index=spec.value_index,
                replication=spec.replication,
                algorithm=spec.algorithm,
                cost=outcome.cost,
                waiting_time=average_waiting_time(
                    outcome.allocation, bandwidth=config.bandwidth
                ),
                elapsed_seconds=outcome.elapsed_seconds,
                worker_pid=os.getpid(),
                started_unix=started,
                finished_unix=time.time(),
                seed_result=(
                    CompactAllocation.from_allocation(
                        outcome.allocation, cost=outcome.cost
                    )
                    if collect_seed
                    else None
                ),
            )
        except Exception as exc:  # noqa: BLE001 — degrade to a recorded error
            message = f"{type(exc).__name__}: {exc}"
            span.set("error", message)
            registry = obs.get_metrics()
            if registry.enabled:
                registry.counter("experiment.cell_errors").inc()
            return CellOutcome(
                value_index=spec.value_index,
                replication=spec.replication,
                algorithm=spec.algorithm,
                error=message,
                worker_pid=os.getpid(),
                started_unix=started,
                finished_unix=time.time(),
            )


# ----------------------------------------------------------------------
# Worker-process side.  Globals are installed once per worker by the
# pool initializer; tasks then carry only a CellSpec.
# ----------------------------------------------------------------------
_WORKER_CONFIG: Optional[ExperimentConfig] = None
_WORKER_MEMO: Optional[WorkloadMemo] = None

#: How often a live worker ships its in-progress metrics snapshot.
LIVE_SHIP_INTERVAL = 0.25


def _live_shipper(channel: Any, interval: float) -> None:
    """Worker-side daemon: periodically ship the in-progress snapshot.

    The shipped snapshot is *cumulative since the worker's last cell
    drain* — a plain ``snapshot()``, never a drain — so the
    authoritative per-cell payloads are untouched and the parent can
    overlay it on the merged registry for the live view.  Any channel
    failure (the parent went away) silently ends shipping; live
    telemetry must never take a worker down.
    """
    pid = os.getpid()
    while True:
        time.sleep(interval)
        try:
            registry = obs.get_metrics()
            if registry.enabled:
                channel.put((pid, registry.snapshot()))
        except Exception:  # noqa: BLE001 — parent gone / manager shut down
            return


def _initialize_worker(
    config: ExperimentConfig,
    obs_options: Optional[Dict[str, bool]] = None,
    live_channel: Any = None,
    live_interval: float = LIVE_SHIP_INTERVAL,
) -> None:
    global _WORKER_CONFIG, _WORKER_MEMO
    import repro.baselines  # noqa: F401  (register allocators in the child)

    _WORKER_CONFIG = config
    _WORKER_MEMO = WorkloadMemo()
    # Install *fresh* observability instances matching the parent's
    # switches.  Crucial under fork: a child must not inherit (and later
    # re-ship) spans the parent already recorded.
    obs.configure(**(obs_options or {}))
    if live_channel is not None and obs.get_metrics().enabled:
        threading.Thread(
            target=_live_shipper,
            args=(live_channel, live_interval),
            name="repro-live-shipper",
            daemon=True,
        ).start()


def _run_cell_in_worker(
    spec: CellSpec,
    warm_seed: Optional[CompactAllocation] = None,
    collect_seed: bool = False,
) -> CellOutcome:
    if _WORKER_CONFIG is None:  # pragma: no cover — initializer always ran
        raise RuntimeError("worker used before initialization")
    outcome = run_cell(
        _WORKER_CONFIG,
        spec,
        _WORKER_MEMO,
        warm_seed=warm_seed,
        collect_seed=collect_seed,
    )
    # Attach this cell's observability payload to the outcome so it can
    # ride the existing result pipe; draining keeps worker memory flat.
    tracer = obs.get_tracer()
    registry = obs.get_metrics()
    if tracer.enabled or registry.enabled:
        outcome = replace(
            outcome,
            spans=tuple(tracer.drain_payload()) if tracer.enabled else None,
            metrics=registry.drain_snapshot() if registry.enabled else None,
        )
    return outcome


class _LiveCollector:
    """Parent-side drain of worker live snapshots into obs overlays.

    Active only when a live consumer (``/metrics`` server or JSONL
    stream) is running *and* metrics are enabled; otherwise ``queue``
    stays ``None`` and the pool runs exactly as before — zero extra
    processes, threads or pickling.  When active, a
    ``multiprocessing.Manager`` queue (picklable through the pool
    initializer, unlike a raw ``mp.Queue``) carries ``(pid, snapshot)``
    pairs from the worker shippers to a parent daemon thread that folds
    them into :func:`repro.obs.update_live_overlay`.  Overlays feed
    only the live view; the authoritative grid-order merge is
    untouched, so final metrics stay bitwise-identical to serial.
    """

    def __init__(self) -> None:
        self.queue: Any = None
        self._manager: Any = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def __enter__(self) -> "_LiveCollector":
        if not (obs.live_telemetry_active() and obs.get_metrics().enabled):
            return self
        import multiprocessing

        self._manager = multiprocessing.Manager()
        self.queue = self._manager.Queue()
        self._thread = threading.Thread(
            target=self._drain, name="repro-live-drain", daemon=True
        )
        self._thread.start()
        return self

    def _drain(self) -> None:
        while not self._stop.is_set():
            try:
                pid, snapshot = self.queue.get(timeout=0.2)
            except queue_module.Empty:
                continue
            except Exception:  # noqa: BLE001 — manager torn down mid-get
                return
            obs.update_live_overlay(pid, snapshot)

    def __exit__(self, *exc_info: Any) -> bool:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=2.0)
        if self._manager is not None:
            self._manager.shutdown()
        # The grid-order merge already holds everything the workers
        # produced; lingering overlays would double-count it.
        obs.clear_live_overlays()
        return False


def _collect_outcome(
    spec: CellSpec,
    future: "Any",
    *,
    cell_timeout: Optional[float],
    tracer: "Any",
    registry: "Any",
    submitted_unix: float,
) -> CellOutcome:
    """Await one worker future, degrading failures to recorded errors
    and adopting the worker's observability payload (see
    :func:`stream_outcomes`)."""
    try:
        outcome = future.result(timeout=cell_timeout)
    except _FutureTimeout:
        future.cancel()
        outcome = CellOutcome(
            value_index=spec.value_index,
            replication=spec.replication,
            algorithm=spec.algorithm,
            error=(
                f"cell timed out after {cell_timeout}s "
                "(worker not interrupted)"
            ),
        )
        tracer.instant(
            "experiment.cell_timeout",
            value_index=spec.value_index,
            replication=spec.replication,
            algorithm=spec.algorithm,
            timeout_seconds=cell_timeout,
        )
        registry.counter("experiment.cell_timeouts").inc()
    except Exception as exc:  # noqa: BLE001 — e.g. BrokenProcessPool
        outcome = CellOutcome(
            value_index=spec.value_index,
            replication=spec.replication,
            algorithm=spec.algorithm,
            error=f"{type(exc).__name__}: {exc}",
        )
        tracer.instant(
            "experiment.cell_failure",
            value_index=spec.value_index,
            replication=spec.replication,
            algorithm=spec.algorithm,
            error=outcome.error,
        )
        registry.counter("experiment.cell_errors").inc()
    else:
        # Merge the worker's observability payload, in grid
        # order (this loop), so merged traces and metrics are
        # deterministic for any completion order.  Queue wait is
        # measured by the parent: time from fan-out submission
        # until the worker actually started the cell.
        queue_wait = (
            max(0.0, outcome.started_unix - submitted_unix)
            if outcome.started_unix is not None
            else None
        )
        if queue_wait is not None:
            registry.histogram("experiment.queue_wait_seconds").observe(
                queue_wait
            )
        if outcome.spans and tracer.enabled:
            root_attributes: Dict[str, Any] = {}
            if queue_wait is not None:
                root_attributes["queue_wait_seconds"] = queue_wait
            tracer.adopt(outcome.spans, root_attributes=root_attributes)
        if outcome.metrics and registry.enabled:
            registry.merge(outcome.metrics)
            if outcome.worker_pid is not None:
                # The authoritative drain superseded whatever live
                # overlay this worker last shipped; the next periodic
                # ship (covering its next cell) restores the overlay.
                obs.clear_live_overlay(outcome.worker_pid)
        if outcome.spans is not None or outcome.metrics is not None:
            outcome = replace(outcome, spans=None, metrics=None)
    return outcome


def _shape_compatible(
    config: ExperimentConfig, producer_index: int, consumer_index: int
) -> bool:
    """Whether sweep value ``producer_index``'s allocation can seed a
    cell of sweep value ``consumer_index``: both points share (N, K).

    A replication-0 result has exactly its own point's shape, so this
    is a function of the two config points alone.
    """
    producer = config.point_parameters(config.sweep_values[producer_index])
    consumer = config.point_parameters(config.sweep_values[consumer_index])
    return (
        producer.num_channels == consumer.num_channels
        and producer.num_items == consumer.num_items
    )


def seed_producers(config: ExperimentConfig, spec: CellSpec) -> Iterator[int]:
    """The sweep values whose replication-0 result may seed ``spec``,
    most preferred first — the warm-start seed rule.

    A replication > 0 cell first takes its own value's replication 0;
    every cell then falls back to the nearest smaller sweep value of
    the same (N, K).  Sweeps over N or K leave replication-0 cells with
    no producer, so they run cold.
    """
    if spec.replication > 0:
        yield spec.value_index
    for value_index in range(spec.value_index - 1, -1, -1):
        if _shape_compatible(config, value_index, spec.value_index):
            yield value_index


class SeedBank:
    """Replication-0 allocations harvested by a warm run, plus the seed
    rule over them.

    A cell's seed is the first producer of :func:`seed_producers` whose
    result is present; a producer that errored (or is not part of this
    run) yields nothing and is skipped.  This is the in-memory source
    :func:`execute_cells` uses; the shard fabric subclasses it and
    overrides :meth:`rep0` so that a miss looks in the shard stores and
    then replays the producer cold.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self._rep0: Dict[Tuple[int, str], Optional[CompactAllocation]] = {}

    def rep0(
        self, value_index: int, algorithm: str
    ) -> Optional[CompactAllocation]:
        """The replication-0 allocation of (value, algorithm), or None."""
        return self._rep0.get((value_index, algorithm))

    def seed_for(self, spec: CellSpec) -> Optional[CompactAllocation]:
        """The warm seed handed to ``spec``'s allocator, or None (cold)."""
        for value_index in seed_producers(self.config, spec):
            seed = self.rep0(value_index, spec.algorithm)
            if seed is not None:
                return seed
        return None

    def harvest(self, spec: CellSpec, outcome: CellOutcome) -> None:
        """Bank a finished cell's seed; an errored replication 0 is
        banked as None so later lookups skip it."""
        if spec.replication > 0:
            return
        key = (spec.value_index, spec.algorithm)
        if outcome.seed_result is not None:
            self._rep0[key] = outcome.seed_result
        else:
            self._rep0.setdefault(key, None)


def _waves(cells: Sequence[CellSpec], warm: bool) -> List[List[int]]:
    """Indices into ``cells`` grouped into the scheduler's waves.

    Cold: one wave, in the given order.  Warm: sweep values ascending,
    each as two waves — replication 0, then the rest — so every edge of
    :func:`seed_producers` points at an already finished wave.
    """
    if not warm:
        return [list(range(len(cells)))]
    by_value: Dict[int, Tuple[List[int], List[int]]] = {}
    for index, spec in enumerate(cells):
        by_value.setdefault(spec.value_index, ([], []))[
            spec.replication > 0
        ].append(index)
    return [
        wave
        for value_index in sorted(by_value)
        for wave in by_value[value_index]
        if wave
    ]


def stream_outcomes(
    config: ExperimentConfig,
    cells: Sequence[CellSpec],
    *,
    workers: int,
    cell_timeout: Optional[float] = None,
    seeds: Optional[SeedBank] = None,
) -> Iterator[Tuple[int, CellOutcome]]:
    """The cell scheduler: run ``cells`` and yield ``(index, outcome)``
    pairs one at a time, in submission order.

    ``index`` points into ``cells``.  Without ``seeds`` the run is
    cold: one wave, in the given order.  With ``seeds`` it is warm (see
    :func:`_waves`): each cell is seeded by ``seeds.seed_for`` when its
    wave is submitted, and replication-0 results are harvested into
    ``seeds`` before they are yielded, with the compact allocation
    stripped from the outcome.  Results do not depend on ``workers``.

    ``workers=1`` (or a single cell) runs inline, with no timeout
    enforcement; otherwise one process pool serves every wave, worker
    observability payloads are adopted in submission order, and live
    worker snapshots reach the ``/metrics`` overlays.  Each outcome is
    yielded as soon as it is collected, so a caller that persists it
    before asking for the next loses only the cells in flight when the
    process dies.
    """
    waves = _waves(cells, seeds is not None)

    def finish(spec: CellSpec, outcome: CellOutcome) -> CellOutcome:
        if seeds is not None:
            seeds.harvest(spec, outcome)
            if outcome.seed_result is not None:
                outcome = replace(outcome, seed_result=None)
        return outcome

    def seed_args(spec: CellSpec) -> Tuple[Optional[CompactAllocation], bool]:
        if seeds is None:
            return None, False
        return seeds.seed_for(spec), spec.replication == 0

    if workers == 1 or len(cells) <= 1:
        memo = WorkloadMemo()
        for wave in waves:
            for index in wave:
                spec = cells[index]
                warm_seed, collect_seed = seed_args(spec)
                outcome = run_cell(
                    config,
                    spec,
                    memo,
                    warm_seed=warm_seed,
                    collect_seed=collect_seed,
                )
                yield index, finish(spec, outcome)
        return

    tracer = obs.get_tracer()
    registry = obs.get_metrics()
    with _LiveCollector() as live, ProcessPoolExecutor(
        max_workers=min(workers, len(cells)),
        initializer=_initialize_worker,
        initargs=(config, obs.worker_options(), live.queue),
    ) as pool:
        for wave in waves:
            submitted_unix = time.time()
            futures = [
                pool.submit(
                    _run_cell_in_worker, cells[index], *seed_args(cells[index])
                )
                for index in wave
            ]
            for index, future in zip(wave, futures):
                spec = cells[index]
                outcome = _collect_outcome(
                    spec,
                    future,
                    cell_timeout=cell_timeout,
                    tracer=tracer,
                    registry=registry,
                    submitted_unix=submitted_unix,
                )
                yield index, finish(spec, outcome)


def execute_cells(
    config: ExperimentConfig,
    cells: Sequence[CellSpec],
    *,
    workers: int = 1,
    cell_timeout: Optional[float] = None,
    warm_start: bool = False,
) -> List[CellOutcome]:
    """Run ``cells`` and return their outcomes in the given order.

    ``workers=1`` executes inline (same code path, no processes, no
    timeout enforcement); ``workers>1`` fans out over a process pool.
    The returned list is always ordered like ``cells`` regardless of
    completion order — the ordered merge that makes parallel runs
    reproduce serial results exactly.

    ``warm_start`` runs the warm waves of :func:`stream_outcomes` with
    an in-memory :class:`SeedBank`: warm-startable algorithms receive a
    finished neighbour's allocation as a compact seed.  Results may
    legitimately differ from a cold sweep (CDS converges to a different
    local optimum), but stay identical across worker counts.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cells = list(cells)
    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    for index, outcome in stream_outcomes(
        config,
        cells,
        workers=workers,
        cell_timeout=cell_timeout,
        seeds=SeedBank(config) if warm_start else None,
    ):
        outcomes[index] = outcome
    return [outcome for outcome in outcomes if outcome is not None]


def map_ordered(
    function: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    workers: Optional[int] = 1,
) -> List[_R]:
    """``[function(x) for x in items]``, optionally over a process pool.

    Results come back in input order, so a parallel map is a drop-in
    replacement for the serial comprehension wherever ``function`` is
    deterministic.  ``function`` must be picklable (module-level) and
    is responsible for its own error handling — an exception propagates,
    matching the serial semantics.  Used by the optimality-gap
    experiment; the figure sweeps use the richer :func:`execute_cells`.
    """
    items = list(items)
    if workers is None or workers <= 1 or len(items) <= 1:
        return [function(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        futures = [pool.submit(function, item) for item in items]
        return [future.result() for future in futures]
