"""In-memory span recording around calls into the program's layers.

Only the traced run uses this.  A :class:`SpanRecorder` keeps one row
per span (name, start, end, parent) in flat arrays, so a replay of
100k requests with four per-request layers costs a few tens of MB.
:func:`patched` swaps the named attributes of classes and modules for
timing wrappers for the duration of a ``with`` block and restores them
afterwards; the program's own code is never edited.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``observe(counts, result)`` turns a wrapped call's return value into
#: counted work (moves, splits, modes) at the boundary where it happens.
Observer = Callable[[Counter, Any], None]
#: ``(owner, attribute, span name, observer or None)``.
Target = Tuple[Any, str, str, Optional[Observer]]


class SpanRecorder:
    """Spans and counts recorded from the benchmark's side of each call."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack: List[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        """End span ``index`` and any descendant still open.

        A span left open by an exception (or by a source generator that
        is never resumed) ends with its ancestor, so parents always
        cover their children.
        """
        now = perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.ends[top] = now
            if top == index:
                return

    def summary(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, inclusive seconds, self seconds)``.

        Self time is a span's duration minus its children's durations;
        spans nest on one thread, so children never overlap.
        """
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[index]
        totals: Dict[str, List[float]] = {}
        for name, duration, child in zip(self.names, durations, covered):
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child
        return {name: (int(c), i, s) for name, (c, i, s) in totals.items()}

    def root_seconds(self, name: str) -> float:
        """Total duration of the top-level spans called ``name``."""
        return sum(
            end - start
            for span_name, start, end, parent in zip(
                self.names, self.starts, self.ends, self.parents
            )
            if parent < 0 and span_name == name
        )


@contextmanager
def span(recorder: SpanRecorder, name: str) -> Iterator[None]:
    index = recorder.open(name)
    try:
        yield
    finally:
        recorder.close(index)


def traced(
    recorder: SpanRecorder,
    name: str,
    function: Callable,
    observe: Optional[Observer] = None,
) -> Callable:
    """``function`` wrapped in a span; ``observe`` sees its result."""
    open_span, close_span, counts = recorder.open, recorder.close, recorder.counts

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = open_span(name)
        try:
            result = function(*args, **kwargs)
        finally:
            close_span(index)
        if observe is not None:
            observe(counts, result)
        return result

    return wrapper


@contextmanager
def replaced(owner: Any, attribute: str, replacement: Any) -> Iterator[None]:
    """Set ``owner.attribute`` to ``replacement`` until the block exits."""
    original = getattr(owner, attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


@contextmanager
def patched(recorder: SpanRecorder, targets: Sequence[Target]) -> Iterator[None]:
    """Wrap every target attribute in a span until the block exits."""
    with ExitStack() as stack:
        for owner, attribute, name, observe in targets:
            original = getattr(owner, attribute)
            stack.enter_context(
                replaced(owner, attribute, traced(recorder, name, original, observe))
            )
        yield
