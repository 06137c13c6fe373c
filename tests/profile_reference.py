"""An independent decayed-count profile, the reference for sketch parity.

A direct walk over the trace: a request at time ``t`` weighs
``exp(-ln 2 · (T - t) / half_life)`` at the trace's last timestamp
``T`` (the newest request weighs 1), and each catalogue item gets
``(weight + smoothing) / (Σ weights + smoothing · |catalogue|)``.  It
shares no code with :class:`repro.workloads.sketch.CountMinSketch`,
whose inflation/deflation bookkeeping it checks.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.workloads.trace import RequestTrace


def decayed_profile(
    trace: RequestTrace,
    catalogue: Sequence[str],
    *,
    half_life: float,
    smoothing: float = 1.0,
) -> Dict[str, float]:
    """Decay-weighted, smoothed frequency per catalogue item id."""
    weights: Dict[str, float] = {item_id: 0.0 for item_id in catalogue}
    if len(trace):
        reference = trace[len(trace) - 1].timestamp
        rate = math.log(2.0) / half_life
        for record in trace:
            weights[record.item_id] += math.exp(
                -rate * (reference - record.timestamp)
            )
    total = math.fsum(weights.values()) + smoothing * len(catalogue)
    return {
        item_id: (weight + smoothing) / total
        for item_id, weight in weights.items()
    }
