"""Fine-grained timing of repeated identical work.

An untraced run appends a timestamp (a mark) at a fixed sequence of
points: each record the service pulls, each call into an allocator, and
each step of the program's own loops -- a CDS move, a partition-DP
layer, a GOPT generation.  The loop steps are marked through the
progress hook those loops already poll (``obs.heartbeat``, which returns
``None`` while the program's telemetry is off, as it stays here), so no
``src/`` file changes and a mark costs one clock read.

Two repeats of the same work make the same sequence of marks.  Each
interval between neighbouring marks keeps its fastest repeat.  The
intervals are mostly tens to hundreds of microseconds, much shorter than
the stretches in which a shared CPU runs slow (another tenant on the
sibling hyperthread, a preempted vCPU), so one repeat of most intervals
falls in a quiet moment if the run has any.  A unit of work (an epoch
close, a figure point) is then the sum of its intervals' fastest times,
which is steadier than the unit's own fastest repeat.  When the host
stays busy for a whole run, every figure of that run still reads slow.
"""

from __future__ import annotations

from array import array
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Any, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro import obs

import spans


class Marks:
    """Timestamps of one repeat; also a stand-in heartbeat for the
    program's loops."""

    def __init__(self) -> None:
        self.times = array("d")

    def mark(self) -> int:
        """Mark now; return the mark's index."""
        self.times.append(perf_counter())
        return len(self.times) - 1

    def beat(self, **_values: float) -> None:
        self.times.append(perf_counter())

    flush = beat


def marked(marks: Marks, function: Any) -> Any:
    """``function`` with a mark on entry and on return."""
    append = marks.times.append

    def wrapper(*args, **kwargs):
        append(perf_counter())
        try:
            return function(*args, **kwargs)
        finally:
            append(perf_counter())

    return wrapper


@contextmanager
def marking(
    marks: Marks,
    loops: Sequence[str],
    calls: Sequence[Tuple[Any, str]] = (),
) -> Iterator[None]:
    """Until the block exits, mark each step of the named heartbeat
    ``loops`` and each call of the ``(owner, attribute)`` functions."""

    def heartbeat(name: str, **_options: Any) -> Optional[Marks]:
        return marks if name in loops else None

    with ExitStack() as stack:
        stack.enter_context(spans.replaced(obs, "heartbeat", heartbeat))
        for owner, attribute in calls:
            original = getattr(owner, attribute)
            stack.enter_context(
                spans.replaced(owner, attribute, marked(marks, original))
            )
        yield


class Fastest:
    """Each interval's fastest time over the repeats added so far."""

    def __init__(self) -> None:
        self.best: Optional[np.ndarray] = None
        self.repeats = 0

    def add(self, marks: Marks) -> bool:
        """Fold in one repeat; False if it made a different number of
        marks than the first, that is, did different work."""
        intervals = np.diff(np.frombuffer(marks.times))
        if self.best is None:
            self.best = intervals
        elif len(intervals) != len(self.best):
            return False
        else:
            np.minimum(self.best, intervals, out=self.best)
        self.repeats += 1
        return True

    def cumulative(self) -> np.ndarray:
        """Time at each mark from the first: ``cum[b] - cum[a]`` times
        the work from mark ``a`` to mark ``b``."""
        return np.concatenate(([0.0], np.cumsum(self.best)))
