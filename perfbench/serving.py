"""serve-steady and serve-drift: ``BroadcastService`` over a replayed trace.

Both workloads drive the ``repro serve --replay`` path: a seeded JSONL
trace on disk, read by ``replay_source`` and consumed by one service in
one closed loop (the service pulls the next record only after it has
served the previous one).  The catalogue is the same for both: Zipf(1.2)
popularity over N=2000 items on K=8 channels.

* serve-steady: stationary popularity and six long epochs, so decode,
  waiting-time lookup and sketch updates dominate and reallocation runs
  only at the five epoch closes.
* serve-drift: popularity rotates one rank per epoch over 40 short
  epochs, so warm DRP + CDS reallocation dominates and the epoch-close
  stall has enough samples for a p90.
"""

from __future__ import annotations

import gc
import json
import math
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Optional

import repro.core.incremental as incremental_module
import repro.service.serve as serve_module
from repro.core.cds import cds_refine
from repro.core.drp import drp_allocate
from repro.core.incremental import IncrementalAllocator
from repro.exceptions import ReproError
from repro.service import BroadcastService, drifting_stream, replay_source
from repro.service.serve import LiveProgram
from repro.simulation.adaptive import RotatingDrift
from repro.simulation.server import BroadcastProgram
from repro.workloads.generator import WorkloadSpec, generate_database
from repro.workloads.sketch import CountMinSketch

import spans
from common import Tally, percentile
from marks import Fastest, Marks, marking

NUM_ITEMS = 2000
NUM_CHANNELS = 8
SKEWNESS = 1.2
# One fixed catalogue; ``--seed`` draws the request stream.  A seeded
# catalogue would move the waits and the work per epoch by several
# percent from seed to seed, more than the bounds allow.
CATALOGUE_SEED = 7
# Long enough that the major broadcast cycle of this catalogue fits in
# one epoch, so every staged reallocation is promoted (one handover per
# epoch close) instead of being replaced while pending.
EPOCH_SECONDS = 600.0
# Replays per run at least.  Every interval between marks keeps its
# fastest replay (see ``marks.py``).
MIN_REPLAYS = 2
# The program loops marked at each step: CDS moves.
LOOPS = ("cds",)
# The calls of an epoch close marked on entry and return.
MARKED_CALLS = (
    (CountMinSketch, "estimate_profile"),
    (serve_module, "profile_l1_error"),
    (incremental_module, "drp_allocate"),
    (incremental_module, "cds_refine"),
    (LiveProgram, "stage"),
)
# Extra constructions per replay for the set-up median.
SETUPS_PER_REPLAY = 2


@dataclass(frozen=True)
class ServeShape:
    shift_per_epoch: int
    epochs: int
    requests_per_epoch: int
    warmup_epochs: int
    # Seconds one replay takes on a busy host.  A run makes as many
    # replays as fit in ``--seconds`` at that pace, whatever the host's
    # pace on the day: the fastest of more replays reads faster, so a
    # count that followed the pace would amplify it.
    replay_budget_s: float


SHAPES = {
    "serve-steady": ServeShape(
        shift_per_epoch=0,
        epochs=6,
        requests_per_epoch=20_000,
        warmup_epochs=1,
        replay_budget_s=4.5,
    ),
    "serve-drift": ServeShape(
        shift_per_epoch=1,
        epochs=40,
        requests_per_epoch=1_000,
        warmup_epochs=5,
        replay_budget_s=8.0,
    ),
}


@dataclass
class Replay:
    """One service constructed and run over the whole trace."""

    setup_s: float
    wall_s: float
    service: BroadcastService
    error: Optional[str]
    marks: Marks
    # Per record, the index of the mark made when the service pulled it;
    # one more entry marks the pull that found the source dry.
    pulls: array
    # The records whose pull closed an epoch.
    closes: List[int]


def catalogue():
    return generate_database(
        WorkloadSpec(num_items=NUM_ITEMS, skewness=SKEWNESS, seed=CATALOGUE_SEED)
    )


def write_trace(path: Path, shape: ServeShape, seed: int) -> Dict[str, float]:
    """Write the seeded trace as JSONL; return the catalogue's sizes."""
    database = catalogue()
    drift = RotatingDrift(
        [item.frequency for item in database.items],
        shift_per_epoch=shape.shift_per_epoch,
    )
    records = drifting_stream(
        database,
        epochs=shape.epochs,
        requests_per_epoch=shape.requests_per_epoch,
        epoch_seconds=EPOCH_SECONDS,
        drift=drift,
        seed=seed,
    )
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                json.dumps(
                    {"t": record.timestamp, "id": record.item_id},
                    separators=(",", ":"),
                )
            )
            handle.write("\n")
    return {item.item_id: item.size for item in database.items}


def _marked(
    records: Iterable,
    marks: Marks,
    pulls: array,
    closes: List[int],
    recorder: Optional[spans.SpanRecorder] = None,
) -> Iterator:
    """Yield ``records``, marking each pull and noting epoch closes.

    The service closes an epoch when it pulls the first record past the
    epoch's end, before serving it; the close lasts until the next pull.
    Epoch ends follow the service's own arithmetic: anchored at the
    first record, stepped by ``EPOCH_SECONDS``.  With a ``recorder``,
    each read is a ``trace.decode`` span and each close a
    ``serve.epoch`` span.
    """
    iterator = iter(records)
    epoch_end = math.inf
    count = 0
    while True:
        pulls.append(marks.mark())
        index = None if recorder is None else recorder.open("trace.decode")
        try:
            record = next(iterator)
        except StopIteration:
            return
        finally:
            if index is not None:
                recorder.close(index)
        timestamp = record.timestamp
        if count == 0:
            epoch_end = timestamp + EPOCH_SECONDS
        elif timestamp >= epoch_end:
            while timestamp >= epoch_end:
                epoch_end = epoch_end + EPOCH_SECONDS
            closes.append(count)
            if recorder is not None:
                with spans.span(recorder, "serve.epoch"):
                    count += 1
                    yield record
                continue
        count += 1
        yield record


def _new_service(sizes: Dict[str, float]) -> BroadcastService:
    return BroadcastService(sizes, NUM_CHANNELS, epoch_seconds=EPOCH_SECONDS)


def time_setup(sizes: Dict[str, float]) -> float:
    """Seconds to construct a service, cold initial allocation included."""
    start = perf_counter()
    _new_service(sizes)
    return perf_counter() - start


def replay(
    path: Path,
    sizes: Dict[str, float],
    *,
    recorder: Optional[spans.SpanRecorder] = None,
    limit: Optional[int] = None,
) -> Replay:
    """Construct a fresh service and serve the trace (or its first
    ``limit`` records) through it, marking pulls and CDS moves."""
    gc.collect()
    records: Iterable = replay_source(path)
    if limit is not None:
        records = islice(records, limit)
    if recorder is None:
        start = perf_counter()
        service = _new_service(sizes)
        setup_s = perf_counter() - start
    else:
        with spans.span(recorder, "serve.setup"):
            start = perf_counter()
            service = _new_service(sizes)
            setup_s = perf_counter() - start
    marks = Marks()
    pulls = array("q")
    closes: List[int] = []
    source = _marked(records, marks, pulls, closes, recorder)
    error = None
    start = perf_counter()
    index = None if recorder is None else recorder.open("serve.run")
    try:
        with marking(marks, LOOPS, MARKED_CALLS):
            service.run(source)
    except ReproError as exc:  # a bad record aborts the loop: count the rest
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if index is not None:
            recorder.close(index)
    wall_s = perf_counter() - start
    return Replay(setup_s, wall_s, service, error, marks, pulls, closes)


def _count_mode(counts, result) -> None:
    counts[f"incremental.mode.{result.mode}"] += 1


def _count_reuse(counts, drift) -> None:
    # The service reuses the current programme (no reallocate call) when
    # the estimated profile did not move at all.
    if drift == 0.0:
        counts["incremental.mode.reused"] += 1


def _count_drp(counts, result) -> None:
    counts["drp.splits"] += result.splits_evaluated


def _count_cds(counts, result) -> None:
    counts["cds.moves"] += result.iterations
    counts["cds.delta_evaluations"] += result.delta_evaluations
    counts["cds.full_scan_equivalent"] += result.full_scan_equivalent


def layer_targets() -> List[spans.Target]:
    """Every serve-path boundary the traced run wraps."""
    return [
        (CountMinSketch, "add", "sketch.add", None),
        (CountMinSketch, "estimate_profile", "sketch.estimate_profile", None),
        (BroadcastProgram, "waiting_time", "server.waiting_time", None),
        (LiveProgram, "program_for", "live.program_for", None),
        (LiveProgram, "stage", "live.stage", None),
        (IncrementalAllocator, "reallocate", "incremental.reallocate", _count_mode),
        (serve_module, "profile_l1_error", "estimator.profile_l1_error", _count_reuse),
        (incremental_module, "drp_allocate", "drp.allocate", _count_drp),
        (incremental_module, "cds_refine", "cds.refine", _count_cds),
    ]


def work_signature(service: BroadcastService) -> Dict[str, Any]:
    """Counted work the program reports itself; equal on same-seed runs."""
    return {
        "engine": service.engine.stats.as_dict(),
        "handovers": len(service.live.handovers),
        "epochs": len(service.reports),
        "modes": [report.allocation_mode for report in service.reports],
        "moves": [report.warm_moves for report in service.reports],
        "served": service.total_requests,
    }


def wait_mean(service: BroadcastService) -> float:
    """Request-weighted mean measured wait over every served epoch."""
    served = sum(report.requests for report in service.reports)
    total = sum(
        report.measured.mean * report.requests for report in service.reports
    )
    return total / served


def check_replay(run: Replay, num_records: int) -> List[str]:
    """Output checks on one replay; an empty list means it passed."""
    problems = []
    service = run.service
    if run.error is not None:
        problems.append(f"service aborted: {run.error}")
    if service.total_requests != num_records:
        problems.append(
            f"served {service.total_requests} of {num_records} requests"
        )
    for handover in service.live.handovers:
        cycles = (handover.switch_at - handover.old_activated_at) / (
            handover.old_major_cycle
        )
        if not math.isclose(cycles, round(cycles), rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"handover off a cycle boundary: {handover}")
        if handover.promoted_at < handover.switch_at:
            problems.append(f"handover promoted before its switch: {handover}")
    if len(run.closes) != len(service.reports) - 1:
        problems.append(
            f"timed {len(run.closes)} epoch closes for {len(service.reports)} epochs"
        )
    return problems


def resolved_paths() -> Dict[str, str]:
    """The DRP backend and CDS scan a cold reallocation resolves to."""
    rough = drp_allocate(catalogue(), NUM_CHANNELS)
    return {
        f"N={NUM_ITEMS},K={NUM_CHANNELS}": (
            f"drp={rough.resolved_backend},"
            f"cds={cds_refine(rough.allocation).scan_mode}"
        )
    }


class ServeWorkload:
    """One serve workload run: warm-up, timed replays, checks, metrics."""

    def __init__(self, name: str, seed: int, scratch: Path) -> None:
        self.shape = SHAPES[name]
        scratch.mkdir(parents=True, exist_ok=True)
        self.path = scratch / f"{name}-seed{seed}.jsonl"
        self.sizes = write_trace(self.path, self.shape, seed)
        self.num_records = self.shape.epochs * self.shape.requests_per_epoch
        self.tally = Tally()

    def _warm_up(self) -> None:
        """Fill caches and finish lazy set-up on the first epochs."""
        limit = self.shape.warmup_epochs * self.shape.requests_per_epoch + 1
        replay(self.path, self.sizes, limit=limit)

    def _checked(self, run: Replay) -> None:
        self.tally.add(
            self.num_records,
            self.num_records - run.service.total_requests,
            check_replay(run, self.num_records),
        )

    def _same_work(self, first: Replay, run: Replay) -> None:
        if work_signature(run.service) != work_signature(first.service):
            self.tally.fail(
                "counted work differs between same-seed replays", self.num_records
            )
        if wait_mean(run.service) != wait_mean(first.service):
            self.tally.fail(
                "measured wait differs between same-seed replays", self.num_records
            )

    def measure(self, seconds: float) -> Dict[str, float]:
        """Untraced: as many replays as fit in ``seconds`` on a busy
        host; every interval between marks keeps its fastest replay.
        Only the first replay is kept whole, so memory does not grow
        with the number of replays."""
        self._warm_up()
        setups: List[float] = []
        fastest = Fastest()
        first: Optional[Replay] = None
        replays = max(MIN_REPLAYS, int(seconds // self.shape.replay_budget_s))
        for _ in range(replays):
            setups.extend(time_setup(self.sizes) for _ in range(SETUPS_PER_REPLAY))
            run = replay(self.path, self.sizes)
            self._checked(run)
            setups.append(run.setup_s)
            if first is None:
                first = run
            else:
                self._same_work(first, run)
            same = run.pulls == first.pulls and run.closes == first.closes
            if not (fastest.add(run.marks) and same):
                self.tally.fail(
                    "same-seed replays marked different work", self.num_records
                )
                break
            del run
        cum = fastest.cumulative()
        pulls = first.pulls
        stalls = [cum[pulls[close + 1]] - cum[pulls[close]] for close in first.closes]
        self.samples = {
            "replays": fastest.repeats,
            "setups": len(setups),
            "marks": len(first.marks.times),
            "epoch_closes": len(stalls),
        }
        return {
            "setup_s": percentile(setups, 50),
            "ops_per_s": self.num_records / (cum[pulls[-1]] - cum[pulls[0]]),
            "latency_p50_ms": 1000.0 * percentile(stalls, 50),
            "latency_p90_ms": 1000.0 * percentile(stalls, 90),
            "wait_mean_s": wait_mean(first.service),
        }

    def trace(self) -> Dict[str, float]:
        """Traced: one untraced and two traced replays; per-layer counts
        must agree between the traced pair and with the program's own."""
        self._warm_up()
        plain = replay(self.path, self.sizes)
        self._checked(plain)
        recorders = [spans.SpanRecorder(), spans.SpanRecorder()]
        runs = [plain]
        for recorder in recorders:
            with spans.patched(recorder, layer_targets()):
                run = replay(self.path, self.sizes, recorder=recorder)
            self._checked(run)
            recorder.counts["serve.handovers"] = len(run.service.live.handovers)
            runs.append(run)
        for run in runs[1:]:
            self._same_work(plain, run)
        first, second = recorders
        if first.counts != second.counts:
            self.tally.fail(
                f"traced counts differ: {dict(first.counts)} vs {dict(second.counts)}",
                self.num_records,
            )
        stats = runs[1].service.engine.stats
        if first.counts["cds.moves"] != stats.warm_moves + stats.cold_moves:
            self.tally.fail(
                "traced CDS moves disagree with the engine's stats", self.num_records
            )
        self.recorder = first
        self.samples = {"replays": len(runs)}
        return {
            "obs.tracing_overhead_ratio": first.root_seconds("serve.run")
            / plain.wall_s
        }

    def provenance(self) -> Dict[str, Any]:
        return {"resolved": resolved_paths()}

    def close(self) -> None:
        self.path.unlink(missing_ok=True)
