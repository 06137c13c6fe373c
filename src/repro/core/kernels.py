"""Vectorized hot-path kernels backing the core algorithms.

The cost-model hot paths — CDS's per-(item, destination) Δc scan,
Procedure ``Partition``'s split scan and the contiguous DP's candidate
minimisation — run as numpy kernels that compute the *same IEEE-754
floats* as the paper's scalar loops: every kernel applies the identical
sequence of elementwise operations, so the scalar references in
:mod:`repro.verify.reference` agree with them bit-for-bit and the
differential oracles in :mod:`repro.verify` gate that contract.

Tie-break contract
------------------
All kernels preserve the scalar loops' "first maximum / first minimum
wins" determinism: ``np.argmax`` / ``np.argmin`` return the first
occurrence of the extremum, which is exactly what a strict ``>`` /
``<`` comparison loop selects.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ReproError

#: The core has no JIT path; the constant stays for callers that record
#: it in benchmark provenance.
HAS_NUMBA = False

__all__ = [
    "HAS_NUMBA",
    "SCAN_MODES",
    "CDS_INCREMENTAL_SCAN_CROSSOVER",
    "resolve_scan",
    "cds_best_move",
    "CDSPairIndex",
    "best_split_range_numpy",
]

#: Recognised CDS Δc scan modes.
SCAN_MODES = ("auto", "full", "incremental")

#: ``scan="auto"`` switches to the dirty-pair incremental scan once one
#: full best-move scan costs at least this many Δc pair evaluations
#: (``N·(K−1)``).  Below it the K×K index bookkeeping costs more than
#: the rescans it saves; above it every executed move drops from
#: O(N·K) to O(N + K²) evaluations.
CDS_INCREMENTAL_SCAN_CROSSOVER = 1 << 20

#: Thread cap for the chunked cold Δc scan (numpy releases the GIL in
#: the blocked elementwise work, so threads scale on real cores and
#: degrade to the serial path on one).
CDS_SCAN_MAX_WORKERS = 8


def resolve_scan(scan: str, num_items: int, num_channels: int) -> str:
    """Map a CDS ``scan`` keyword to a concrete scan mode.

    Returns ``"full"`` or ``"incremental"``.  ``"auto"`` picks the
    incremental scan once a single full best-move scan costs at least
    :data:`CDS_INCREMENTAL_SCAN_CROSSOVER` pair evaluations — both
    modes execute the bitwise-identical move sequence, so the choice is
    purely a cost trade.

    Raises
    ------
    ReproError
        If ``scan`` is unknown.
    """
    if scan not in SCAN_MODES:
        raise ReproError(
            f"unknown scan mode {scan!r}; choose from {SCAN_MODES}"
        )
    if scan == "auto":
        if (
            num_channels >= 3
            and num_items * (num_channels - 1)
            >= CDS_INCREMENTAL_SCAN_CROSSOVER
        ):
            return "incremental"
        return "full"
    return scan


# ----------------------------------------------------------------------
# CDS — broadcasted Δc matrix
# ----------------------------------------------------------------------
#: Element budget for one Δc chunk (float64 block ≈ 32 MiB).  Above
#: ``N·K`` elements the full broadcast matrix would dominate peak RSS
#: (1 GiB at N=10⁶, K=128), so the scan switches to row blocks.
CDS_DELTA_CHUNK_ELEMENTS = 1 << 22


def cds_best_move(
    freq,
    size,
    order,
    group_of,
    agg_f,
    agg_z,
    epsilon: float,
    *,
    chunk_elements: int = CDS_DELTA_CHUNK_ELEMENTS,
) -> Optional[Tuple[float, int, int]]:
    """Best single CDS move (see ``reference.best_move``).

    Evaluates Eq. (4), ``Δc = f⊗(Z_p − Z_q) + z⊗(F_p − F_q) − 2fz``,
    for every (item, destination) pair, in row blocks of at most
    ``chunk_elements`` matrix entries so peak RSS stays bounded; below
    the budget the whole N×K matrix is one block.  ``order`` is the
    flat item-index array in scan order (origin-major,
    position-minor), so the row-major argmax of each block and the
    strict ``>`` that combines blocks reproduce the scalar scan's
    tie-break exactly (first strict maximum in origin → position →
    destination order wins).

    Returns ``(delta, rank, destination)`` — ``rank`` indexes into
    ``order`` — or ``None`` when no move beats ``epsilon``.
    """
    n = len(order)
    num_channels = agg_f.shape[0]
    rows = max(1, chunk_elements // max(1, num_channels))
    best = -np.inf
    best_rank = -1
    best_destination = -1
    for start in range(0, n, rows):
        sel = order[start : start + rows]
        f = freq[sel]
        z = size[sel]
        origin = group_of[sel]
        origin_f = agg_f[origin]
        origin_z = agg_z[origin]
        delta = (
            f[:, None] * (origin_z[:, None] - agg_z[None, :])
            + z[:, None] * (origin_f[:, None] - agg_f[None, :])
            - (2.0 * f * z)[:, None]
        )
        # A move to the item's own channel is not a move; mask it out.
        delta[np.arange(len(sel)), origin] = -np.inf
        flat = int(np.argmax(delta))
        rank, destination = divmod(flat, num_channels)
        value = float(delta[rank, destination])
        if value > best:
            best = value
            best_rank = start + rank
            best_destination = destination
    if best_rank < 0 or not best > epsilon:
        return None
    return best, best_rank, best_destination


# ----------------------------------------------------------------------
# CDS — dirty-pair incremental best-move index
# ----------------------------------------------------------------------
class CDSPairIndex:
    """K×K best-move index over ordered channel pairs, dirty-pair updated.

    Cell ``(p, q)`` caches the best Eq. (4) delta among items of channel
    ``p`` moving to channel ``q``, together with the winning item's
    *position* in ``p``'s group list (the tie-break coordinate of the
    scalar scan).  A move ``o → d`` only changes the ``(F, Z)``
    aggregates of ``o`` and ``d``, so exactly the cells with origin or
    destination in ``{o, d}`` go stale: :meth:`apply_move` recomputes
    rows ``o`` and ``d`` (one ``|group|×K`` pass each) and columns ``o``
    and ``d`` (one ``|group|``-vector pass per other group), leaving the
    remaining ``(K−2)²`` cells untouched — their cached deltas are the
    floats a fresh full scan would recompute, because every input to
    the elementwise Δc expression (item features and both aggregates)
    is unchanged.  Per-move work drops from ``O(N·K)`` pair evaluations
    to ``O(N + K²)``.

    The index shares — does not copy — the refine loop's mutable state:
    ``groups`` (per-channel lists of catalogue indices) and the
    ``agg_f`` / ``agg_z`` aggregate arrays.  Call :meth:`apply_move`
    after the loop has executed a move and updated that state.

    Tie-break contract: :meth:`best_move` returns the same winner as
    the full scan's first strict maximum in (origin, position,
    destination) scan order.  Per cell, ``np.argmax`` over the group's
    position-ordered delta vector keeps the lowest position; across
    cells the selection minimises ``(origin, position, destination)``
    lexicographically among delta ties.

    The cold scan (:meth:`rebuild`) is chunked over item ranges — the
    same ``chunk_elements`` budget as the blocked full scan — and
    optionally fans the read-only chunk evaluations out over a thread
    pool; chunks merge left to right under strict ``>``, so the
    leftmost tie survives no matter the thread schedule.
    """

    def __init__(
        self,
        freq,
        size,
        groups: List[List[int]],
        agg_f,
        agg_z,
        *,
        workers: Optional[int] = None,
        chunk_elements: int = CDS_DELTA_CHUNK_ELEMENTS,
    ) -> None:
        self.freq = freq
        self.size = size
        # (2·f)·z per item, the exact association of the scan kernels;
        # the per-cell gathers below then read the identical floats.
        self.two_fz = 2.0 * freq * size
        self.groups = groups
        self.agg_f = agg_f
        self.agg_z = agg_z
        self.num_channels = int(agg_f.shape[0])
        self.chunk_elements = int(chunk_elements)
        if workers is None:
            workers = min(os.cpu_count() or 1, CDS_SCAN_MAX_WORKERS)
        self.workers = max(1, int(workers))
        k = self.num_channels
        self.best_delta = np.full((k, k), -np.inf, dtype=np.float64)
        self.best_pos = np.full((k, k), -1, dtype=np.intp)
        #: Measured Δc pair evaluations (the masked own-channel column
        #: is never counted, matching the scalar scan's loop).
        self.evaluations = 0
        self.rebuild()

    # -- cell evaluation -------------------------------------------------
    def _scan_chunk(self, origin: int, members) -> Tuple[object, object]:
        """Per-destination best ``(Δc, local position)`` for a slice of
        one origin group (``members`` in position order)."""
        f = self.freq[members]
        z = self.size[members]
        tfz = self.two_fz[members]
        dz = self.agg_z[origin] - self.agg_z
        df = self.agg_f[origin] - self.agg_f
        delta = f[:, None] * dz[None, :] + z[:, None] * df[None, :] - tfz[:, None]
        # A move to the item's own channel is not a move; mask it out.
        delta[:, origin] = -np.inf
        pos = np.argmax(delta, axis=0)
        vals = delta[pos, np.arange(self.num_channels)]
        return vals, pos

    def _row_chunks(self, origin: int):
        """(start, member-array) slices of one group under the budget."""
        members = self.groups[origin]
        rows = max(1, self.chunk_elements // max(1, self.num_channels))
        return [
            (start, np.asarray(members[start: start + rows], dtype=np.intp))
            for start in range(0, len(members), rows)
        ]

    def _merge_row(self, origin: int, chunks, outcomes) -> None:
        """Fold chunk bests into row ``origin``, leftmost tie winning.

        ``chunks`` are in ascending position order and the fold keeps
        the incumbent on exact ties (strict ``>``), so the merged
        winner per cell is the lowest-position maximum — deterministic
        for any chunking and any thread completion order.
        """
        k = self.num_channels
        row_vals = np.full(k, -np.inf, dtype=np.float64)
        row_pos = np.full(k, -1, dtype=np.intp)
        for (start, members), (vals, pos) in zip(chunks, outcomes):
            better = vals > row_vals
            row_vals[better] = vals[better]
            row_pos[better] = start + pos[better]
            self.evaluations += len(members) * (k - 1)
        self.best_delta[origin] = row_vals
        self.best_pos[origin] = row_pos

    # -- maintenance -----------------------------------------------------
    def rebuild(self) -> None:
        """Cold scan: recompute every cell from the current state."""
        tasks = [
            (origin, chunk)
            for origin in range(self.num_channels)
            for chunk in self._row_chunks(origin)
        ]
        if self.workers > 1 and len(tasks) > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                outcomes = list(
                    pool.map(
                        lambda task: self._scan_chunk(task[0], task[1][1]),
                        tasks,
                    )
                )
        else:
            outcomes = [
                self._scan_chunk(origin, chunk[1]) for origin, chunk in tasks
            ]
        by_origin: List[List] = [[] for _ in range(self.num_channels)]
        results: List[List] = [[] for _ in range(self.num_channels)]
        for (origin, chunk), outcome in zip(tasks, outcomes):
            by_origin[origin].append(chunk)
            results[origin].append(outcome)
        for origin in range(self.num_channels):
            self._merge_row(origin, by_origin[origin], results[origin])

    def _refresh_row(self, origin: int) -> None:
        chunks = self._row_chunks(origin)
        outcomes = [self._scan_chunk(origin, members) for _, members in chunks]
        self._merge_row(origin, chunks, outcomes)

    def apply_move(self, origin: int, destination: int) -> None:
        """Recompute every cell a move ``origin → destination`` dirtied.

        Rows ``origin`` and ``destination`` (their group membership and
        aggregates changed) and columns ``origin`` and ``destination``
        of every other group (their destination aggregates changed).
        All other cells keep bitwise-valid cached deltas.
        """
        self._refresh_row(origin)
        self._refresh_row(destination)
        for group, members in enumerate(self.groups):
            if group == origin or group == destination:
                continue
            if not members:  # pragma: no cover - channels never empty
                self.best_delta[group, origin] = -np.inf
                self.best_delta[group, destination] = -np.inf
                continue
            m = np.asarray(members, dtype=np.intp)
            f = self.freq[m]
            z = self.size[m]
            tfz = self.two_fz[m]
            for dest in (origin, destination):
                delta = (
                    f * (self.agg_z[group] - self.agg_z[dest])
                    + z * (self.agg_f[group] - self.agg_f[dest])
                    - tfz
                )
                pos = int(np.argmax(delta))
                self.best_delta[group, dest] = delta[pos]
                self.best_pos[group, dest] = pos
                self.evaluations += len(members)

    # -- selection -------------------------------------------------------
    def best_move(
        self, epsilon: float
    ) -> Optional[Tuple[float, int, int, int]]:
        """Global argmax over the index, full-scan tie-break preserved.

        Returns ``(delta, origin, position_in_origin, destination)`` —
        the same tuple shape as the scalar ``reference.best_move`` — or ``None``
        when no cell beats ``epsilon``.  The first row achieving the
        maximum wins (lowest origin); within it the cell with the
        lowest cached position wins, and among equal positions (the
        same item) the lowest destination — ``(origin, position,
        destination)`` lexicographic, exactly the full scan's order.
        """
        row_best = self.best_delta.max(axis=1)
        origin = int(np.argmax(row_best))
        best = float(row_best[origin])
        if not best > epsilon:
            return None
        row = self.best_delta[origin]
        ties = np.flatnonzero(row == best)
        destination = int(ties[np.argmin(self.best_pos[origin, ties])])
        position = int(self.best_pos[origin, destination])
        return best, origin, position, destination


# ----------------------------------------------------------------------
# Partition — range-based split scan over shared prefix sums
# ----------------------------------------------------------------------
def best_split_range_numpy(pf, pz, start: int, stop: int) -> Tuple[int, float]:
    """Vectorized split scan over the half-open range ``[start, stop)``.

    ``pf`` / ``pz`` are the shared prefix-sum arrays (length N+1).
    Returns ``(offset, cost)`` with ``1 <= offset < stop - start``; the
    first minimum wins, matching the scalar strict-``<`` scan.
    """
    cut = np.arange(start + 1, stop)
    left = (pf[cut] - pf[start]) * (pz[cut] - pz[start])
    right = (pf[stop] - pf[cut]) * (pz[stop] - pz[cut])
    total = left + right
    index = int(np.argmin(total))
    return index + 1, float(total[index])
