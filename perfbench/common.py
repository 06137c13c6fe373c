"""Pieces every workload shares: percentiles, failure accounting, the
Tables 2-4 golden check."""

from __future__ import annotations

import statistics
from typing import List, Sequence


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation); 50 is the median."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


class Tally:
    """Ops attempted and failed, and every failed check's message.

    An op is a served request, a sweep cell or the paper example.  An op
    that fails a check counts as failed even if the program returned
    normally.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, attempted: int, failed: int, problems: Sequence[str]) -> None:
        """Book ``attempted`` ops; all of them fail if any check failed."""
        self.attempted += attempted
        self.failed += attempted if problems else failed
        self.problems.extend(problems)

    def fail(self, problem: str, ops: int = 1) -> None:
        """A check across already-booked ops failed: ``ops`` of them fail."""
        self.failed = min(self.attempted, self.failed + ops)
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def check_paper_example(tally: Tally) -> None:
    """The paper's worked example (Tables 2-4) still lands on its CDS cost.

    One op: the CDS cost must read 22.29 at two decimals.
    """
    from repro.core.cds import cds_refine
    from repro.core.drp import drp_allocate
    from repro.workloads.paper_profile import (
        PAPER_CDS_COST,
        PAPER_NUM_CHANNELS,
        paper_database,
    )

    rough = drp_allocate(
        paper_database(), PAPER_NUM_CHANNELS, split_policy="max-reduction"
    )
    refined = cds_refine(rough.allocation)
    problems = []
    if round(refined.cost, 2) != PAPER_CDS_COST:
        problems.append(
            f"paper example CDS cost {refined.cost:.4f} != {PAPER_CDS_COST}"
        )
    tally.add(1, 0, problems)
