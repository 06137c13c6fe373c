"""Request traces — the raw material of access-profile collection.

The paper's architecture (its Figure 1) has the server *collect the
access patterns of mobile users* and generate the broadcast program
from them.  The paper itself starts from given frequencies; this module
supplies the collection substrate so the loop can be closed: record the
requests clients actually issue, then estimate frequencies from the
trace (:mod:`repro.workloads.estimator`).

This is an extension beyond the paper, flagged as such in DESIGN.md.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Counter as CounterType
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)
from collections import Counter

import numpy as np

from repro.core.database import BroadcastDatabase
from repro.exceptions import SimulationError

__all__ = [
    "TraceRecord",
    "RequestTrace",
    "RotatingDrift",
    "synthesize_trace",
    "drifting_stream",
    "save_trace_jsonl",
    "load_trace_jsonl",
    "iter_trace_jsonl",
    "decode_trace_lines",
]


@dataclass(frozen=True)
class TraceRecord:
    """One observed request: who asked for what, when (uplink log)."""

    timestamp: float
    item_id: str

    def __post_init__(self) -> None:
        if not isinstance(self.item_id, str) or not self.item_id:
            raise SimulationError(
                f"item_id must be a non-empty string, got {self.item_id!r}"
            )
        if not np.isfinite(self.timestamp) or self.timestamp < 0:
            raise SimulationError(
                f"timestamp must be finite and >= 0, got {self.timestamp!r}"
            )


class RequestTrace:
    """An append-only, time-ordered log of requests.

    Records must be appended in non-decreasing timestamp order (the
    order a server observes them).  Windowed views and per-item counts
    are the operations estimators need.
    """

    def __init__(self, records: Optional[Iterable[TraceRecord]] = None) -> None:
        self._records: List[TraceRecord] = []
        self._timestamps: List[float] = []
        if records is not None:
            for record in records:
                self.append(record)

    def append(self, record: TraceRecord) -> None:
        """Append one record; timestamps must not go backwards."""
        if self._timestamps and record.timestamp < self._timestamps[-1]:
            raise SimulationError(
                f"out-of-order record at t={record.timestamp} "
                f"(last was t={self._timestamps[-1]})"
            )
        self._records.append(record)
        self._timestamps.append(record.timestamp)

    def record(self, timestamp: float, item_id: str) -> None:
        """Convenience: append a ``(timestamp, item_id)`` pair."""
        self.append(TraceRecord(timestamp=timestamp, item_id=item_id))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    @property
    def span(self) -> float:
        """Time between the first and last record (0 for < 2 records)."""
        if len(self._records) < 2:
            return 0.0
        return self._timestamps[-1] - self._timestamps[0]

    def window(self, start: float, stop: float) -> "RequestTrace":
        """Records with ``start <= timestamp < stop`` as a new trace."""
        if stop < start:
            raise SimulationError(
                f"window stop {stop} precedes start {start}"
            )
        low = bisect.bisect_left(self._timestamps, start)
        high = bisect.bisect_left(self._timestamps, stop)
        view = RequestTrace()
        for record in self._records[low:high]:
            view.append(record)
        return view

    def counts(self) -> CounterType[str]:
        """Requests per item id."""
        return Counter(record.item_id for record in self._records)

    def item_ids(self) -> List[str]:
        """Distinct item ids in first-seen order."""
        seen: Dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.item_id, None)
        return list(seen)


def synthesize_trace(
    database: BroadcastDatabase,
    num_requests: int,
    *,
    arrival_rate: float = 1.0,
    seed: int = 0,
    probabilities: Optional[Sequence[float]] = None,
) -> RequestTrace:
    """Generate a Poisson trace from a database's access profile.

    The synthetic stand-in for a production uplink log (see the
    substitution notes in DESIGN.md).  ``probabilities`` overrides the
    per-item request distribution, e.g. to emulate drifted interest.
    """
    if num_requests < 0:
        raise SimulationError(
            f"num_requests must be >= 0, got {num_requests}"
        )
    if arrival_rate <= 0:
        raise SimulationError(
            f"arrival_rate must be positive, got {arrival_rate}"
        )
    rng = np.random.default_rng(seed)
    if probabilities is None:
        weights = np.array(
            [item.frequency for item in database.items], dtype=np.float64
        )
    else:
        weights = np.asarray(probabilities, dtype=np.float64)
        if len(weights) != len(database):
            raise SimulationError(
                f"got {len(weights)} probabilities for {len(database)} items"
            )
        if np.any(weights < 0) or weights.sum() <= 0:
            raise SimulationError(
                "probabilities must be non-negative with positive sum"
            )
    weights = weights / weights.sum()
    ids = list(database.item_ids)
    gaps = rng.exponential(1.0 / arrival_rate, size=num_requests)
    picks = rng.choice(len(ids), size=num_requests, p=weights)
    trace = RequestTrace()
    clock = 0.0
    for gap, pick in zip(gaps, picks):
        clock += float(gap)
        trace.record(clock, ids[int(pick)])
    return trace


class RotatingDrift:
    """Popularity drift by rank rotation.

    Each epoch, the popularity vector rotates by ``shift_per_epoch``
    positions over the catalogue: yesterday's hot items cool down, cold
    items heat up — a simple but harsh drift model (a rotation by N/2
    eventually inverts the profile).
    """

    def __init__(
        self, base_frequencies: Sequence[float], shift_per_epoch: int = 1
    ) -> None:
        if shift_per_epoch < 0:
            raise SimulationError(
                f"shift_per_epoch must be >= 0, got {shift_per_epoch}"
            )
        self._base = np.asarray(base_frequencies, dtype=np.float64)
        if self._base.ndim != 1 or len(self._base) == 0:
            raise SimulationError("base_frequencies must be a non-empty vector")
        self._shift = shift_per_epoch

    def probabilities(self, epoch: int) -> np.ndarray:
        """The true request distribution during ``epoch`` (0-based)."""
        if epoch < 0:
            raise SimulationError(f"epoch must be >= 0, got {epoch}")
        return np.roll(self._base, epoch * self._shift)


def drifting_stream(
    database: BroadcastDatabase,
    *,
    epochs: int,
    requests_per_epoch: int,
    epoch_seconds: float = 60.0,
    drift: Optional[RotatingDrift] = None,
    seed: int = 0,
) -> Iterator[TraceRecord]:
    """A deterministic drifting request stream, epoch-aligned by design.

    Epoch ``e`` occupies stream time ``[e·S, (e+1)·S)`` and contains
    exactly ``requests_per_epoch`` requests at evenly spaced instants,
    with item picks drawn from the epoch's drifted distribution
    (``drift``, default one rank per epoch) and seeded with
    ``seed + e``.  Epoch ``e``'s first request sits at ``e·S + step``:
    exactly where a service anchored at the first request, with epoch
    length ``S``, computes its ``e``-th boundary — so every epoch of a
    :class:`~repro.service.serve.BroadcastService` run over this stream
    holds exactly ``requests_per_epoch`` requests.
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
    ids = list(database.item_ids)
    step = epoch_seconds / (requests_per_epoch + 1)
    for epoch in range(epochs):
        truth = drift.probabilities(epoch)
        weights = np.asarray(truth, dtype=np.float64)
        weights = weights / weights.sum()
        rng = np.random.default_rng(seed + epoch)
        picks = rng.choice(len(ids), size=requests_per_epoch, p=weights)
        base = epoch * epoch_seconds
        for k, pick in enumerate(picks):
            yield TraceRecord(
                timestamp=base + (k + 1) * step, item_id=ids[int(pick)]
            )


def save_trace_jsonl(
    trace: RequestTrace, path: Union[str, Path]
) -> Path:
    """Write a trace as JSON Lines — one ``{"t": ..., "id": ...}`` per row.

    The replay format consumed by ``repro serve --replay`` (and
    :func:`iter_trace_jsonl`); compact keys keep million-request logs
    manageable.
    """
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for record in trace:
            handle.write(
                json.dumps(
                    {"t": record.timestamp, "id": record.item_id},
                    separators=(",", ":"),
                )
            )
            handle.write("\n")
    return target


def decode_trace_lines(
    open_lines: Callable[[], ContextManager[Iterable[str]]],
    where: Callable[[int], str],
) -> Iterator[TraceRecord]:
    """Decode newline-delimited ``{"t": ..., "id": ...}`` JSON records.

    The one per-line decoder behind the JSONL replay reader and the
    live socket source.  ``open_lines()`` is entered on the first
    iteration and closed when decoding ends.  Blank lines are skipped;
    a line that is not a JSON object with ``t`` (timestamp) and ``id``
    (item id) keys, or whose timestamp runs backwards, raises
    :class:`SimulationError` prefixed with ``where(line_no)`` — called
    only on error, so the per-record cost carries no location
    formatting.
    """
    last: Optional[float] = None
    with open_lines() as lines:
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SimulationError(
                    f"{where(line_no)}: invalid JSON: {exc}"
                ) from exc
            if not isinstance(row, dict) or "t" not in row or "id" not in row:
                raise SimulationError(
                    f"{where(line_no)}: expected object with 't' and 'id' "
                    f"keys, got {row!r}"
                )
            record = TraceRecord(
                timestamp=float(row["t"]), item_id=str(row["id"])
            )
            if last is not None and record.timestamp < last:
                raise SimulationError(
                    f"{where(line_no)}: out-of-order record at "
                    f"t={record.timestamp} (last was t={last})"
                )
            last = record.timestamp
            yield record


def iter_trace_jsonl(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream records from a JSONL trace file, one at a time.

    O(1) memory — the live service ingests replays through this without
    materialising the whole log.  The file is opened on the first
    iteration and its lines are decoded by :func:`decode_trace_lines`;
    errors name ``path:line``.  Out-of-order timestamps are rejected
    (the file claims to be a server-observed log).
    """
    source = Path(path)
    return decode_trace_lines(
        lambda: source.open("r", encoding="utf-8"),
        lambda line_no: f"{source}:{line_no}",
    )


def load_trace_jsonl(path: Union[str, Path]) -> RequestTrace:
    """Read a whole JSONL trace file into a :class:`RequestTrace`."""
    return RequestTrace(iter_trace_jsonl(path))
