"""Summary statistics for the evaluation harness.

The paper reports averages with 90% confidence intervals of the mean
(Figs. 9 and 9d); this module provides exactly that plus the usual
descriptive summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Descriptive summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0


def mean(values: Sequence[float]) -> float:
    # len() instead of truthiness: numpy arrays raise "truth value of
    # an array is ambiguous" under `not values`.
    if len(values) == 0:
        raise ValueError("mean of an empty sample is undefined")
    return sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Unbiased (n-1) standard deviation; 0.0 for samples of size 1."""
    n = len(values)
    if n == 0:
        raise ValueError("std of an empty sample is undefined")
    if n == 1:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))


def confidence_interval(values: Sequence[float],
                        confidence: float = 0.90):
    """Student-t confidence interval of the mean.

    Returns ``(low, high)``; degenerate samples (n <= 1 or zero
    variance) collapse to the mean.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    m = mean(values)
    s = sample_std(values)
    if n <= 1 or s == 0.0:
        return (m, m)
    # Imported here: scipy.stats costs ~70 MB and ~0.7 s, paid by every
    # ``import repro`` when this sits at module level.
    from scipy import stats

    t = stats.t.ppf(0.5 + confidence / 2.0, df=n - 1)
    half = t * s / math.sqrt(n)
    return (m - half, m + half)


def summarize(values: Sequence[float],
              confidence: float = 0.90) -> Summary:
    """Full descriptive summary with a CI of the mean."""
    if len(values) == 0:
        raise ValueError("cannot summarize an empty sample")
    low, high = confidence_interval(values, confidence)
    return Summary(
        count=len(values),
        mean=float(mean(values)),
        std=float(sample_std(values)),
        minimum=float(min(values)),
        maximum=float(max(values)),
        ci_low=float(low),
        ci_high=float(high),
        confidence=confidence,
    )
