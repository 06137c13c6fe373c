"""The one access-profile estimator: a count-min sketch, O(width × depth).

The live service (:mod:`repro.service`) ingests every request through
it, and offline callers (benchmarks, tests) feed a whole
:class:`~repro.workloads.trace.RequestTrace` through
:meth:`CountMinSketch.extend`.  :class:`CountMinSketch` is the
Cormode–Muthukrishnan count-min sketch with an optional exponential
decay (half-life in stream time), an optional *conservative update*
rule that tightens over-estimates, and an optional *exact-counter
oracle* mode that additionally keeps the true per-item decayed counts
(O(items) state — for tests, benchmarks, offline traces and error
accounting, never for production scale).  In exact mode
:meth:`CountMinSketch.estimate_profile` is the classical smoothed
estimate: plain relative counts without a half-life, exponentially
decayed counts with one.  :func:`repro.workloads.estimator.estimate_database`
turns its profile into the database the allocator sees.

Guarantees (tested property-style in ``tests/test_sketch.py``):

* a point estimate **never under-estimates** the true (decayed) count —
  hash collisions only ever add mass, and the conservative update rule
  preserves the invariant;
* with width ``w`` and depth ``d``, the over-estimate of any single
  item exceeds ``(e / w) · total`` with probability at most ``e^-d``
  over the hash choice (the classical count-min bound, with ``total``
  the decayed stream mass);
* on a collision-free stream the decayed estimate matches a direct
  decayed count of the trace up to floating point (weight
  ``0.5 ** (Δt / half_life)`` relative to the newest request, same
  smoothing and normalisation as :meth:`CountMinSketch.estimate_profile`;
  the reference lives in ``tests/``).

Decay is implemented with the standard *inflation* trick so an update
stays O(depth): instead of decaying every counter at every tick, an
arrival at stream time ``t`` adds ``2 ** ((t - origin) / half_life)``
(its weight *inflated* to the sketch's origin scale) and a query at
time ``T`` deflates by ``2 ** -((T - origin) / half_life)``.  When the
inflation exponent grows past a safety bound the counters are rescaled
once (O(width × depth), amortised over ``half_life · bound`` stream
seconds) and the origin advances.

Extension beyond the paper (DESIGN.md §6); see docs/serving.md for
sizing guidance.
"""

from __future__ import annotations

import math
import zlib
from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import SimulationError
from repro.workloads.trace import RequestTrace

__all__ = ["CountMinSketch", "sketch_error_bound"]

#: Serialization schema identifier for :meth:`CountMinSketch.to_dict`.
SKETCH_SCHEMA = "repro.sketch/v1"

#: Rescale the counter matrix once the inflation exponent exceeds this
#: (2**512 is far inside float64 range, max exponent 1024, so a single
#: inflated increment can never overflow before the rescale triggers).
_RESCALE_EXPONENT = 512.0


def sketch_error_bound(width: int, total: float) -> float:
    """The classical count-min point-error bound ``(e / width) · total``.

    Any single item's over-estimate exceeds this with probability at
    most ``e^-depth`` (per query, over the random hash choice).
    """
    return math.e / width * total


class CountMinSketch:
    """A count-min sketch with exponential decay in stream time.

    Parameters
    ----------
    width:
        Counters per hash row.  The point-error bound scales as
        ``e / width`` of the total stream mass.
    depth:
        Number of independent hash rows; the error-bound failure
        probability decays as ``e^-depth``.
    half_life:
        Optional decay half-life in stream-time units (the timestamps
        fed to :meth:`add`).  ``None`` disables decay — the sketch
        counts plain occurrences and timestamps are ignored.
    conservative:
        Use the conservative-update rule: an arrival raises each of its
        ``depth`` counters only up to ``current estimate + weight``
        instead of adding to all of them.  Point estimates shrink
        (strictly fewer collisions are double-counted) while the
        never-under-estimate invariant is preserved.  Conservative
        sketches cannot be merged (the rule is not additive).
    seed:
        Seeds the per-row hash functions; two sketches merge only when
        their seeds (and shapes) match.
    exact:
        Oracle mode: additionally maintain the exact decayed count per
        distinct item id in a dict (O(items) state).  Point estimates
        then come from the exact counters — the sketch still updates,
        so :meth:`sketch_estimate` reports what the sketch alone would
        say and :meth:`max_overestimate` the realized sketch error.
    """

    def __init__(
        self,
        width: int = 1024,
        depth: int = 4,
        *,
        half_life: Optional[float] = None,
        conservative: bool = False,
        seed: int = 0,
        exact: bool = False,
    ) -> None:
        if width < 1:
            raise SimulationError(f"width must be >= 1, got {width}")
        if depth < 1:
            raise SimulationError(f"depth must be >= 1, got {depth}")
        if half_life is not None and not (
            half_life > 0 and math.isfinite(half_life)
        ):
            raise SimulationError(
                f"half_life must be positive and finite, got {half_life}"
            )
        self.width = int(width)
        self.depth = int(depth)
        self.half_life = None if half_life is None else float(half_life)
        self.conservative = bool(conservative)
        self.seed = int(seed)
        self.exact = bool(exact)
        self._rows: List[List[float]] = [
            [0.0] * self.width for _ in range(self.depth)
        ]
        # One independent crc32 stream per row, derived from the seed.
        self._row_seeds = [
            zlib.crc32(f"repro-sketch:{self.seed}:{row}".encode())
            for row in range(self.depth)
        ]
        self._origin = 0.0  # stream time the counters are scaled to
        self._last_timestamp: Optional[float] = None
        self._total = 0.0  # decayed stream mass, origin scale
        self._updates = 0
        self._rescales = 0
        self._exact_counts: Optional[Dict[str, float]] = {} if exact else None

    # -- properties ------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """Relative point-error factor ``e / width`` of the CM bound."""
        return math.e / self.width

    @property
    def delta(self) -> float:
        """Per-query bound failure probability ``e^-depth``."""
        return math.exp(-self.depth)

    @property
    def updates(self) -> int:
        """Number of :meth:`add` calls absorbed."""
        return self._updates

    @property
    def rescales(self) -> int:
        """Times the counter matrix was rescaled to contain inflation."""
        return self._rescales

    @property
    def last_timestamp(self) -> Optional[float]:
        """Stream time of the newest arrival (``None`` when empty)."""
        return self._last_timestamp

    @property
    def state_size(self) -> int:
        """Number of held counters — ``width × depth``, never O(items)
        (plus the exact dict when oracle mode is on)."""
        cells = self.width * self.depth
        if self._exact_counts is not None:
            cells += len(self._exact_counts)
        return cells

    # -- decay bookkeeping ----------------------------------------------
    def _inflation(self, timestamp: float) -> float:
        """Weight multiplier bringing ``timestamp`` to the origin scale."""
        if self.half_life is None:
            return 1.0
        return 2.0 ** ((timestamp - self._origin) / self.half_life)

    def _maybe_rescale(self, timestamp: float) -> None:
        """Advance the origin when inflation threatens float range."""
        if self.half_life is None:
            return
        exponent = (timestamp - self._origin) / self.half_life
        if exponent <= _RESCALE_EXPONENT:
            return
        scale = 2.0 ** (-exponent)
        for row in self._rows:
            for index, value in enumerate(row):
                if value:
                    row[index] = value * scale
        self._total *= scale
        if self._exact_counts is not None:
            for key in self._exact_counts:
                self._exact_counts[key] *= scale
        self._origin = timestamp
        self._rescales += 1

    def _buckets(self, item_id: str) -> List[int]:
        encoded = item_id.encode("utf-8")
        return [
            zlib.crc32(encoded, row_seed) % self.width
            for row_seed in self._row_seeds
        ]

    # -- updates ---------------------------------------------------------
    def add(
        self,
        item_id: str,
        weight: float = 1.0,
        *,
        timestamp: Optional[float] = None,
    ) -> None:
        """Absorb one arrival of ``item_id`` at stream time ``timestamp``.

        Timestamps must be non-decreasing (the order a server observes
        requests — the same contract as
        :class:`~repro.workloads.trace.RequestTrace`).  With decay
        disabled the timestamp is optional and ignored.
        """
        if not (isinstance(item_id, str) and item_id):
            raise SimulationError(
                f"item_id must be a non-empty string, got {item_id!r}"
            )
        if not (weight > 0 and math.isfinite(weight)):
            raise SimulationError(
                f"weight must be positive and finite, got {weight!r}"
            )
        if timestamp is None:
            timestamp = (
                self._last_timestamp if self._last_timestamp is not None else 0.0
            )
        if not math.isfinite(timestamp):
            raise SimulationError(f"timestamp must be finite, got {timestamp!r}")
        if (
            self._last_timestamp is not None
            and timestamp < self._last_timestamp
        ):
            raise SimulationError(
                f"out-of-order arrival at t={timestamp} "
                f"(last was t={self._last_timestamp})"
            )
        self._last_timestamp = timestamp
        self._maybe_rescale(timestamp)
        inflated = weight * self._inflation(timestamp)
        buckets = self._buckets(item_id)
        rows = self._rows
        if self.conservative:
            # Raise each counter only to (current estimate + weight):
            # the smallest update that keeps every row an upper bound.
            estimate = min(
                rows[row][bucket] for row, bucket in enumerate(buckets)
            )
            target = estimate + inflated
            for row, bucket in enumerate(buckets):
                if rows[row][bucket] < target:
                    rows[row][bucket] = target
        else:
            for row, bucket in enumerate(buckets):
                rows[row][bucket] += inflated
        self._total += inflated
        self._updates += 1
        if self._exact_counts is not None:
            self._exact_counts[item_id] = (
                self._exact_counts.get(item_id, 0.0) + inflated
            )

    def extend(self, trace: RequestTrace) -> None:
        """Absorb a whole :class:`RequestTrace` (replay convenience)."""
        for record in trace:
            self.add(record.item_id, timestamp=record.timestamp)

    # -- queries ---------------------------------------------------------
    def _deflation(self, timestamp: Optional[float]) -> float:
        if self.half_life is None:
            return 1.0
        if timestamp is None:
            timestamp = (
                self._last_timestamp if self._last_timestamp is not None else 0.0
            )
        return 2.0 ** (-(timestamp - self._origin) / self.half_life)

    def sketch_estimate(
        self, item_id: str, *, timestamp: Optional[float] = None
    ) -> float:
        """The sketch's decayed count for ``item_id`` at ``timestamp``.

        The minimum over the item's ``depth`` counters — an upper bound
        on the true decayed count, regardless of oracle mode.  The
        reference time defaults to the newest arrival (so the newest
        request has weight 1).
        """
        rows = self._rows
        raw = min(
            rows[row][bucket]
            for row, bucket in enumerate(self._buckets(item_id))
        )
        return raw * self._deflation(timestamp)

    def estimate(
        self, item_id: str, *, timestamp: Optional[float] = None
    ) -> float:
        """Decayed count for ``item_id`` — exact in oracle mode."""
        if self._exact_counts is not None:
            return self._exact_counts.get(item_id, 0.0) * self._deflation(
                timestamp
            )
        return self.sketch_estimate(item_id, timestamp=timestamp)

    def total(self, *, timestamp: Optional[float] = None) -> float:
        """Total decayed stream mass at ``timestamp``."""
        return self._total * self._deflation(timestamp)

    def error_bound(self, *, timestamp: Optional[float] = None) -> float:
        """``(e / width) · total`` at ``timestamp`` — the CM point bound."""
        return sketch_error_bound(self.width, self.total(timestamp=timestamp))

    def max_overestimate(self, *, timestamp: Optional[float] = None) -> float:
        """Largest realized sketch-vs-exact gap (oracle mode only)."""
        if self._exact_counts is None:
            raise SimulationError(
                "max_overestimate requires exact oracle mode "
                "(CountMinSketch(..., exact=True))"
            )
        worst = 0.0
        for item_id, true_count in self._exact_counts.items():
            gap = self.sketch_estimate(
                item_id, timestamp=timestamp
            ) - true_count * self._deflation(timestamp)
            if gap > worst:
                worst = gap
        return worst

    def estimate_profile(
        self,
        catalogue: Sequence[str],
        *,
        smoothing: float = 1.0,
        timestamp: Optional[float] = None,
    ) -> Dict[str, float]:
        """Smoothed, normalised frequency per catalogue item id.

        Each item gets ``(count + smoothing) / (Σ counts + smoothing ·
        |catalogue|)``, summing to 1 over the catalogue.  With
        ``smoothing = 0`` an item the stream never touched (and that no
        collision inflated) gets frequency 0 — which the allocation
        model rejects; see the smoothing notes in
        :mod:`repro.workloads.estimator`.  In exact mode a counted item
        outside the catalogue is an error (its mass would silently
        leave the normalisation); a plain sketch cannot tell.
        """
        if not catalogue:
            raise SimulationError("catalogue cannot be empty")
        known = set(catalogue)
        if len(known) != len(catalogue):
            raise SimulationError("catalogue contains duplicate item ids")
        if self._exact_counts is not None:
            foreign = sorted(set(self._exact_counts) - known)
            if foreign:
                raise SimulationError(
                    f"the stream references items outside the catalogue: "
                    f"{foreign[:5]}"
                )
        if smoothing < 0:
            raise SimulationError(
                f"smoothing must be >= 0, got {smoothing}"
            )
        counts = {
            item_id: self.estimate(item_id, timestamp=timestamp)
            for item_id in catalogue
        }
        total = math.fsum(counts.values()) + smoothing * len(catalogue)
        if total <= 0:
            raise SimulationError(
                "cannot estimate from an empty sketch with zero smoothing"
            )
        return {
            item_id: (count + smoothing) / total
            for item_id, count in counts.items()
        }

    # -- merge / serialization ------------------------------------------
    def merge(self, other: "CountMinSketch") -> None:
        """Fold ``other``'s counters into this sketch (distributed shards).

        Requires identical shape, seed and half-life; counter matrices
        are brought to a common origin scale and added cell-wise, so
        the merged sketch estimates the concatenated stream (and still
        never under-estimates).  Conservative sketches refuse to merge:
        the conservative update is not additive, so cell-wise addition
        would no longer describe any single-stream sketch.
        """
        if not isinstance(other, CountMinSketch):
            raise SimulationError(
                f"can only merge CountMinSketch, got {type(other).__name__}"
            )
        if (
            self.width != other.width
            or self.depth != other.depth
            or self.seed != other.seed
            or self.half_life != other.half_life
        ):
            raise SimulationError(
                "sketch shapes differ: merge requires identical "
                "width/depth/seed/half_life"
            )
        if self.conservative or other.conservative:
            raise SimulationError(
                "conservative sketches cannot be merged (the update rule "
                "is not additive)"
            )
        # Bring both to the later origin so deflation factors agree.
        if other._last_timestamp is not None:
            if (
                self._last_timestamp is None
                or other._last_timestamp > self._last_timestamp
            ):
                self._last_timestamp = other._last_timestamp
        if self.half_life is None:
            scale = 1.0
        else:
            if other._origin > self._origin:
                # Rescale self onto other's (later) origin first.
                shift = 2.0 ** (
                    -(other._origin - self._origin) / self.half_life
                )
                for row in self._rows:
                    for index, value in enumerate(row):
                        if value:
                            row[index] = value * shift
                self._total *= shift
                if self._exact_counts is not None:
                    for key in self._exact_counts:
                        self._exact_counts[key] *= shift
                self._origin = other._origin
            scale = 2.0 ** (
                -(self._origin - other._origin) / self.half_life
            )
        for mine, theirs in zip(self._rows, other._rows):
            for index, value in enumerate(theirs):
                if value:
                    mine[index] += value * scale
        self._total += other._total * scale
        self._updates += other._updates
        if self._exact_counts is not None and other._exact_counts is not None:
            for key, value in other._exact_counts.items():
                self._exact_counts[key] = (
                    self._exact_counts.get(key, 0.0) + value * scale
                )
        elif self._exact_counts is not None:
            # The other side lost the exact view; ours is now stale too.
            self._exact_counts = None
            self.exact = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (round-trips through :meth:`from_dict`)."""
        return {
            "schema": SKETCH_SCHEMA,
            "width": self.width,
            "depth": self.depth,
            "half_life": self.half_life,
            "conservative": self.conservative,
            "seed": self.seed,
            "exact": self.exact,
            "rows": [list(row) for row in self._rows],
            "origin": self._origin,
            "last_timestamp": self._last_timestamp,
            "total": self._total,
            "updates": self._updates,
            "rescales": self._rescales,
            "exact_counts": (
                dict(self._exact_counts)
                if self._exact_counts is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CountMinSketch":
        if payload.get("schema") != SKETCH_SCHEMA:
            raise SimulationError(
                f"unknown sketch schema {payload.get('schema')!r} "
                f"(expected {SKETCH_SCHEMA!r})"
            )
        sketch = cls(
            payload["width"],
            payload["depth"],
            half_life=payload["half_life"],
            conservative=payload["conservative"],
            seed=payload["seed"],
            exact=payload["exact"],
        )
        rows = payload["rows"]
        if len(rows) != sketch.depth or any(
            len(row) != sketch.width for row in rows
        ):
            raise SimulationError("sketch rows do not match width/depth")
        sketch._rows = [[float(v) for v in row] for row in rows]
        sketch._origin = float(payload["origin"])
        sketch._last_timestamp = (
            None
            if payload["last_timestamp"] is None
            else float(payload["last_timestamp"])
        )
        sketch._total = float(payload["total"])
        sketch._updates = int(payload["updates"])
        sketch._rescales = int(payload["rescales"])
        exact_counts = payload.get("exact_counts")
        sketch._exact_counts = (
            None
            if exact_counts is None
            else {str(k): float(v) for k, v in exact_counts.items()}
        )
        if sketch._exact_counts is None:
            sketch.exact = False
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        decay = (
            f", half_life={self.half_life:g}" if self.half_life else ""
        )
        return (
            f"CountMinSketch({self.width}x{self.depth}{decay}, "
            f"updates={self._updates})"
        )
