"""Measurement collection for broadcast simulations.

:func:`summarize` reduces a waiting-time sample to its mean, deviation
and normal-theory confidence interval — the quantities the validation
suite compares against the analytical :math:`W_b`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

__all__ = ["SummaryStatistics", "summarize"]


@dataclass(frozen=True)
class SummaryStatistics:
    """Mean / deviation / CI summary of a sample.

    ``ci_halfwidth`` is the half-width of the normal-approximation
    confidence interval at the z-value supplied to ``summarize`` (1.96
    ⇒ 95%).  For samples of size < 2 the deviation and half-width are 0.
    """

    count: int
    mean: float
    std: float
    ci_halfwidth: float
    minimum: float
    maximum: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_halfwidth

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_halfwidth

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the confidence interval."""
        return self.ci_low <= value <= self.ci_high


def summarize(samples: List[float], *, z_value: float = 1.96) -> SummaryStatistics:
    """Summarise a non-empty sample list."""
    count = len(samples)
    if count == 0:
        raise ValueError("cannot summarise an empty sample")
    mean = math.fsum(samples) / count
    if count > 1:
        variance = math.fsum((x - mean) ** 2 for x in samples) / (count - 1)
        std = math.sqrt(variance)
        halfwidth = z_value * std / math.sqrt(count)
    else:
        std = 0.0
        halfwidth = 0.0
    return SummaryStatistics(
        count=count,
        mean=mean,
        std=std,
        ci_halfwidth=halfwidth,
        minimum=min(samples),
        maximum=max(samples),
    )
