"""Optimal one-dimensional partitioning of benefit-ratio-ordered items.

DRP reduces the two-dimensional grouping problem to a one-dimensional
partitioning problem over the sequence of items sorted by benefit ratio
(paper, Section 3.1).  This module implements:

* :func:`best_split` — Procedure ``Partition(D_x)`` of the paper: the
  single split point minimising ``cost(left) + cost(right)`` for a given
  sequence, found in O(N) with prefix sums;
* :func:`best_split_in` — the same scan over a half-open range of a
  *shared* :class:`PrefixSums`, so callers that repeatedly split
  sub-ranges of one ordered sequence (DRP) pay O(N) prefix-sum
  construction once instead of per call;
* :func:`split_costs` — the full cost profile over all split points
  (useful for tests and diagnostics);
* :func:`contiguous_optimal` — the *optimal* K-way contiguous partition
  of a sequence via dynamic programming.  DRP's recursive bisection
  searches a subset of contiguous partitions; this DP yields the best
  contiguous partition outright and is used as a strong baseline and as
  an ablation reference.  It runs SMAWK row minima per DP layer,
  O(K·N) — valid because the range cost ``w(j, i) = (F_i − F_j)(Z_i −
  Z_j)`` is concave-Monge over non-decreasing prefix sums, which makes
  the optimal predecessor monotone in ``i``.  The O(K·N²) textbook DP
  and the O(K·N log N) monotone-window DP it is checked against live
  in :mod:`repro.verify.reference`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core import kernels
from repro.core.item import DataItem
from repro.exceptions import InfeasibleProblemError

__all__ = [
    "PrefixSums",
    "best_split",
    "best_split_in",
    "split_costs",
    "contiguous_optimal",
]


class PrefixSums:
    """Prefix sums of frequency and size over an item sequence.

    For a sequence ``d_1 .. d_N``, provides the aggregates of any
    contiguous slice ``d_i .. d_j`` in O(1), which turns Procedure
    ``Partition`` into a linear scan and the contiguous DP into O(K·N²).
    """

    __slots__ = ("_freq", "_size", "_arrays")

    def __init__(self, items: Sequence[DataItem]) -> None:
        freq = [0.0] * (len(items) + 1)
        size = [0.0] * (len(items) + 1)
        for index, item in enumerate(items):
            freq[index + 1] = freq[index] + item.frequency
            size[index + 1] = size[index] + item.size
        self._freq = freq
        self._size = size
        self._arrays = None

    @classmethod
    def from_arrays(cls, frequencies, sizes) -> "PrefixSums":
        """Prefix sums straight from feature arrays — no item objects.

        ``np.cumsum`` (``add.accumulate``) runs strictly sequentially,
        so the prefix floats are bit-for-bit the ones the per-item
        constructor accumulates.  Scalar accessors index plain Python
        floats (``tolist()``), so nothing downstream (heap priorities,
        JSON reports) ever sees a ``np.float64``.
        """
        n = len(frequencies)
        pf = np.empty(n + 1, dtype=np.float64)
        pz = np.empty(n + 1, dtype=np.float64)
        pf[0] = 0.0
        pz[0] = 0.0
        np.cumsum(frequencies, out=pf[1:])
        np.cumsum(sizes, out=pz[1:])
        self = object.__new__(cls)
        self._freq = pf.tolist()
        self._size = pz.tolist()
        pf.setflags(write=False)
        pz.setflags(write=False)
        self._arrays = (pf, pz)
        return self

    def __len__(self) -> int:
        return len(self._freq) - 1

    def frequency(self, start: int, stop: int) -> float:
        """Aggregate frequency of the half-open slice ``[start, stop)``."""
        return self._freq[stop] - self._freq[start]

    def size(self, start: int, stop: int) -> float:
        """Aggregate size of the half-open slice ``[start, stop)``."""
        return self._size[stop] - self._size[start]

    def cost(self, start: int, stop: int) -> float:
        """Cost :math:`F \\cdot Z` of the half-open slice ``[start, stop)``."""
        return self.frequency(start, stop) * self.size(start, stop)

    def arrays(self):
        """The prefix sums as a cached ``(freq, size)`` numpy array pair.

        The arrays hold exactly the floats of the scalar lists (no
        re-accumulation), so vectorized kernels reading them reproduce
        the scalar arithmetic bit-for-bit.
        """
        if self._arrays is None:
            self._arrays = (
                np.asarray(self._freq, dtype=np.float64),
                np.asarray(self._size, dtype=np.float64),
            )
        return self._arrays


def best_split_in(
    sums: PrefixSums,
    start: int,
    stop: int,
) -> Tuple[int, float]:
    """Best split of the range ``[start, stop)`` of a shared prefix sum.

    Range-based core of Procedure ``Partition``: scans every cut point
    of the half-open range using the already-built ``sums``, avoiding
    the O(N) slice-and-rebuild that a per-call :class:`PrefixSums`
    would cost.  The scan is one vectorized pass
    (:func:`~repro.core.kernels.best_split_range_numpy`).

    Returns
    -------
    (offset, cost):
        ``offset`` is relative to ``start`` with ``1 <= offset <
        stop - start``: the left part is ``[start, start + offset)``,
        the right part ``[start + offset, stop)``.  ``cost`` is the
        minimised ``cost(left) + cost(right)``.  Among ties the
        smallest offset wins.

    Raises
    ------
    InfeasibleProblemError
        If the range holds fewer than two items (nothing to split).
    """
    if stop - start < 2:
        raise InfeasibleProblemError(
            f"cannot split a sequence of {stop - start} item(s)"
        )
    pf, pz = sums.arrays()
    return kernels.best_split_range_numpy(pf, pz, start, stop)


def best_split(items: Sequence[DataItem]) -> Tuple[int, float]:
    """Find the split minimising ``cost(left) + cost(right)``.

    This is Procedure ``Partition(D_x)`` of the paper.  The input should
    already be sorted by benefit ratio in descending order (the function
    itself works for any order; DRP guarantees the order).

    Returns
    -------
    (p, cost):
        ``p`` is the split index with ``1 <= p < len(items)``: the left
        part is ``items[:p]``, the right part ``items[p:]``.  ``cost`` is
        the minimised ``cost(left) + cost(right)``.  Among ties the
        smallest ``p`` is returned, making the procedure deterministic.

    Raises
    ------
    InfeasibleProblemError
        If the sequence has fewer than two items (nothing to split).
    """
    if len(items) < 2:
        raise InfeasibleProblemError(
            f"cannot split a sequence of {len(items)} item(s)"
        )
    return best_split_in(PrefixSums(items), 0, len(items))


def split_costs(items: Sequence[DataItem]) -> List[float]:
    """Cost of every split point: entry ``p-1`` is the cost of split ``p``.

    Exposed mainly for tests and for visualising how sharply the optimum
    is located; :func:`best_split` is the production entry point.
    """
    if len(items) < 2:
        raise InfeasibleProblemError(
            f"cannot split a sequence of {len(items)} item(s)"
        )
    sums = PrefixSums(items)
    n = len(items)
    return [sums.cost(0, p) + sums.cost(p, n) for p in range(1, n)]


def contiguous_optimal(
    items: Optional[Sequence[DataItem]],
    num_groups: int,
    *,
    sums: Optional[PrefixSums] = None,
) -> Tuple[List[Tuple[int, int]], float]:
    """Optimal K-way contiguous partition by dynamic programming.

    Partitions the (already ordered) sequence into exactly ``num_groups``
    non-empty contiguous runs minimising :math:`\\sum_g F_g Z_g`.

    Parameters
    ----------
    items:
        The ordered item sequence.
    num_groups:
        The group count ``K``; must satisfy ``1 <= K <= len(items)``.
    sums:
        Optional pre-built :class:`PrefixSums` over the ordered
        sequence.  When given, ``items`` may be ``None`` — the
        array-resident entry point used by the SoA hot paths
        (``PrefixSums.from_arrays`` + ``sums=``) so a million-item DP
        never materialises :class:`DataItem` objects.

    Returns
    -------
    (boundaries, cost):
        ``boundaries`` is a list of ``(start, stop)`` half-open index
        pairs covering ``range(len(items))`` in order; ``cost`` is the
        minimal total cost.

    Raises
    ------
    InfeasibleProblemError
        If ``num_groups`` is not in ``[1, len(items)]``.

    Notes
    -----
    DRP explores only the partitions reachable by recursive bisection,
    so ``contiguous_optimal cost <= DRP cost`` always holds for the
    same item order — a property the test suite asserts.  The costs
    are bitwise those of the quadratic and monotone-window DPs in
    :mod:`repro.verify.reference` (the ``oracle.dp-methods`` check):
    every method evaluates the identical candidate expression, and the
    totally monotone candidate matrix keeps the optimum inside every
    restricted search.
    """
    n = len(sums) if sums is not None else len(items)
    if not 1 <= num_groups <= n:
        raise InfeasibleProblemError(
            f"cannot split {n} item(s) into {num_groups} non-empty groups"
        )
    with obs.span(
        "partition.contiguous_optimal", items=n, groups=num_groups
    ) as span:
        if sums is None:
            sums = PrefixSums(items)
        hb = obs.heartbeat("dp", rates=("rows_solved",))
        choice, total, cells, evaluations = _dp_smawk(
            sums, n, num_groups, heartbeat=hb
        )
        if hb is not None:
            hb.flush(
                layers=num_groups, rows_solved=cells, evaluations=evaluations
            )
        boundaries = _backtrack(choice, n, num_groups)
        span.update(cost=total, dp_cells=cells, dp_evaluations=evaluations)
        registry = obs.get_metrics()
        if registry.enabled:
            registry.counter("dp.runs").inc()
            registry.counter("dp.cells").inc(cells)
            registry.counter("dp.evaluations").inc(evaluations)
    return boundaries, total


def _backtrack(
    choice: List[List[int]], n: int, num_groups: int
) -> List[Tuple[int, int]]:
    """Backtrack a DP's predecessor table into ``(start, stop)`` runs."""
    boundaries: List[Tuple[int, int]] = []
    stop = n
    for g in range(num_groups, 0, -1):
        start = choice[g][stop]
        boundaries.append((start, stop))
        stop = start
    boundaries.reverse()
    return boundaries


def _dp_smawk(
    sums: PrefixSums, n: int, num_groups: int, *, heartbeat=None
) -> Tuple[List[List[int]], float, int, int]:
    """O(K·N) DP via SMAWK row-minima per layer.

    The layer recurrence ``dp_g(i) = min_j dp_{g-1}(j) + w(j, i)`` is a
    row-minima problem over the matrix ``M[i][j] = dp_{g-1}(j) +
    (F_i − F_j)(Z_i − Z_j)`` with ``j < i`` and the upper-right
    staircase (``j >= i``) padded with ``+inf``.  ``w`` is
    concave-Monge over non-decreasing prefix sums, so ``M`` is totally
    monotone and SMAWK finds every row minimum with O(rows + cols)
    candidate evaluations per layer.

    Exactness of the *values*: SMAWK only ever compares true matrix
    entries — every ``dp_g(i)`` it reports is the minimum of the same
    candidate floats the quadratic reference scans, computed by the
    identical expression, so the costs agree bit-for-bit.  Among equal
    minima the *choice* of predecessor may differ from the reference's
    leftmost-``j`` rule; boundaries are therefore validated by the cost
    they realise, not by position.

    Works on the plain-float prefix lists (indexing a Python list of
    floats is markedly faster than boxing ``np.float64`` scalars).
    """
    infinity = math.inf
    pf = sums._freq
    pz = sums._size
    dp_prev: List[float] = [infinity] * (n + 1)
    dp_prev[0] = 0.0
    choice = [[0] * (n + 1) for _ in range(num_groups + 1)]
    cells = 0
    evaluations = 0
    feature_arrays = None  # (pf, pz) as ndarrays, built once when needed
    for g in range(1, num_groups + 1):
        dp_cur: List[float] = [infinity] * (n + 1)
        i_lo, i_hi = g, n - (num_groups - g)
        if g == 1:
            # Only j = 0 is reachable: dp_1(i) = 0.0 + w(0, i), written
            # with the exact expression the reference evaluates.
            base = dp_prev[0]
            f0 = pf[0]
            z0 = pz[0]
            for i in range(i_lo, i_hi + 1):
                dp_cur[i] = base + (pf[i] - f0) * (pz[i] - z0)
            cells += i_hi - i_lo + 1
            evaluations += i_hi - i_lo + 1
        else:
            rows = list(range(i_lo, i_hi + 1))
            # Layer g-1's feasible states are exactly [g-1, i_hi - 1],
            # so every column holds a finite dp_prev and the only +inf
            # entries are the staircase pad — an all-right suffix per
            # row, which preserves total monotonicity.
            cols = list(range(g - 1, i_hi))
            argmin = [0] * (n + 1)
            scratch = [0] * (n + 1)
            if len(rows) >= _SMAWK_VECTOR_ROWS:
                if feature_arrays is None:
                    feature_arrays = (
                        np.asarray(pf, dtype=np.float64),
                        np.asarray(pz, dtype=np.float64),
                    )
                arrays = feature_arrays + (
                    np.asarray(dp_prev, dtype=np.float64),
                )
            else:
                arrays = None
            evaluations += _smawk_solve(
                rows, cols, pf, pz, dp_prev, argmin, scratch, arrays
            )
            choice_g = choice[g]
            for i in rows:
                j = argmin[i]
                dp_cur[i] = dp_prev[j] + (pf[i] - pf[j]) * (pz[i] - pz[j])
                choice_g[i] = j
            cells += len(rows)
            evaluations += len(rows)
        dp_prev = dp_cur
        if heartbeat is not None:
            heartbeat.beat(layers=g, rows_solved=cells, evaluations=evaluations)
    return choice, dp_prev[n], cells, evaluations


#: Levels with at least this many rows interpolate through the numpy
#: segment-argmin path; smaller levels stay on the scalar scan.
_SMAWK_VECTOR_ROWS = 2048


def _smawk_solve(
    rows: List[int],
    cols: List[int],
    pf: List[float],
    pz: List[float],
    prev: List[float],
    result: List[int],
    pos: List[int],
    arrays=None,
) -> int:
    """Row minima of the implicit DP matrix, written into ``result``.

    ``result[row]`` is the argmin column, leftmost kept on ties (strict
    ``<`` comparisons throughout).  The matrix entry at ``(i, j)`` is
    ``prev[j] + (pf[i] − pf[j]) · (pz[i] − pz[j])`` for ``j < i`` and
    ``+inf`` on the staircase ``j ≥ i`` — the staircase never wins a
    strict comparison, so it is handled by guards instead of computed
    sentinels (columns are increasing, so the pad is a per-row suffix
    and the guards are loop exits).

    Hot-path notes: the arithmetic is inlined (a per-entry closure call
    would cost more than the DP itself at a million rows per layer),
    the survivor stack's length is tracked in a plain int, and
    ``result``/``pos`` are flat lists indexed by row/column id rather
    than dicts — ``pos`` is a scratch buffer shared across recursion
    levels, safe because each level writes its own columns before
    reading them and children are done with it by then.  Returns the
    number of matrix entries actually evaluated; recursion depth is
    ``log2(len(rows))``.
    """
    if not rows:
        return 0
    evaluations = 0
    num_rows = len(rows)
    # REDUCE: discard columns that cannot be any row's minimum, keeping
    # at most len(rows) survivors.
    stack: List[int] = []
    push = stack.append
    pop = stack.pop
    depth = 0
    for col in cols:
        base = prev[col]
        fj = pf[col]
        zj = pz[col]
        while depth:
            row = rows[depth - 1]
            if col >= row:
                break
            top = stack[depth - 1]
            fi = pf[row]
            zi = pz[row]
            evaluations += 2
            if base + (fi - fj) * (zi - zj) < (
                prev[top] + (fi - pf[top]) * (zi - pz[top])
            ):
                pop()
                depth -= 1
            else:
                break
        if depth < num_rows:
            push(col)
            depth += 1
    cols = stack
    # Recurse on the odd-indexed rows against the surviving columns.
    evaluations += _smawk_solve(
        rows[1::2], cols, pf, pz, prev, result, pos, arrays
    )
    # INTERPOLATE: each even row's minimum lies between its neighbours'
    # minima (total monotonicity), so scan only that window.
    for k, col in enumerate(cols):
        pos[col] = k
    last = len(cols) - 1
    if arrays is not None and num_rows >= _SMAWK_VECTOR_ROWS:
        return evaluations + _interpolate_vectorized(
            rows, cols, pos, result, arrays, last
        )
    start = 0
    for r in range(0, num_rows, 2):
        row = rows[r]
        stop = pos[result[rows[r + 1]]] if r + 1 < num_rows else last
        fi = pf[row]
        zi = pz[row]
        best_col = cols[start]
        if best_col < row:
            best_value = prev[best_col] + (fi - pf[best_col]) * (
                zi - pz[best_col]
            )
            evaluations += 1
        else:
            best_value = math.inf
        for k in range(start + 1, stop + 1):
            col = cols[k]
            if col >= row:
                # Columns are increasing: the rest of the window is
                # staircase +inf and can never strictly win.
                break
            value = prev[col] + (fi - pf[col]) * (zi - pz[col])
            evaluations += 1
            if value < best_value:
                best_value = value
                best_col = col
        result[row] = best_col
        if r + 1 < num_rows:
            start = pos[result[rows[r + 1]]]
    return evaluations


def _interpolate_vectorized(
    rows: List[int],
    cols: List[int],
    pos: List[int],
    result: List[int],
    arrays,
    last: int,
) -> int:
    """The INTERPOLATE phase as one batched segment-argmin.

    Bitwise-identical to the scalar scan: every window entry is the
    same ``prev[j] + (pf[i] − pf[j]) · (pz[i] − pz[j])`` float (numpy
    elementwise float64 ops match the scalar expression operation for
    operation), staircase entries are forced to ``+inf`` so they never
    win, and ties keep the leftmost window position — the scalar
    loop's strict ``<`` rule — by taking the first index equal to the
    segment minimum.  An all-``+inf`` window degenerates to its first
    position in both implementations.
    """
    pf_a, pz_a, prev_a = arrays
    num_rows = len(rows)
    cols_a = np.asarray(cols, dtype=np.intp)
    even = np.asarray(rows[0::2], dtype=np.intp)
    # Window [start, stop] per even row, chained through the odd rows'
    # already-solved minima exactly as the scalar loop chains `start`.
    stops_list = [pos[result[row]] for row in rows[1::2]]
    if num_rows % 2:
        stops_list.append(last)
    stops = np.asarray(stops_list, dtype=np.intp)
    starts = np.empty_like(stops)
    starts[0] = 0
    starts[1:] = stops[:-1]
    counts = stops - starts + 1
    offsets = np.cumsum(counts) - counts
    total = int(counts.sum())
    flat = (
        np.arange(total, dtype=np.intp)
        - np.repeat(offsets, counts)
        + np.repeat(starts, counts)
    )
    j = cols_a[flat]
    i = np.repeat(even, counts)
    values = prev_a[j] + (pf_a[i] - pf_a[j]) * (pz_a[i] - pz_a[j])
    values[j >= i] = math.inf
    minima = np.minimum.reduceat(values, offsets)
    candidates = np.where(
        values == np.repeat(minima, counts),
        np.arange(total, dtype=np.intp),
        total,
    )
    first = np.minimum.reduceat(candidates, offsets)
    best = cols_a[flat[first]]
    for t, row in enumerate(rows[0::2]):
        result[row] = int(best[t])
    return total
