"""Statistics for experiment aggregation.

The paper averages 20 repetitions per configuration and reports 95 %
confidence intervals (Figs. 3 & 4 error bars) and "statistically similar"
judgements (§IV-C).  This module provides those: t-based confidence
intervals, Welch's t-test, and a small summary container.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MeanWithCI",
    "mean_confidence_interval",
    "welch_ttest",
    "statistically_similar",
    "summarize",
]


@dataclass(frozen=True)
class MeanWithCI:
    """A sample mean with its symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f} (n={self.n})"


def mean_confidence_interval(
    values: Sequence[float] | np.ndarray, confidence: float = 0.95
) -> MeanWithCI:
    """Sample mean with a t-distribution confidence interval.

    With a single observation the half-width is 0 (no spread information),
    matching how single-run smoke configurations are reported.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarise zero values")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1); got {confidence}")
    mean = float(arr.mean())
    if arr.size == 1:
        return MeanWithCI(mean, 0.0, confidence, 1)
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    if sem == 0.0:
        return MeanWithCI(mean, 0.0, confidence, int(arr.size))
    # Imported here, not at module load: scipy.stats is most of the cost of
    # importing repro, and single-repeat runs never reach this line.
    from scipy import stats as scipy_stats

    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return MeanWithCI(mean, t_crit * sem, confidence, int(arr.size))


def welch_ttest(
    a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray
) -> tuple[float, float]:
    """Welch's unequal-variance t-test. Returns ``(statistic, p_value)``."""
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("Welch's t-test needs at least two observations per sample")
    from scipy import stats as scipy_stats

    result = scipy_stats.ttest_ind(a, b, equal_var=False)
    return float(result.statistic), float(result.pvalue)


def statistically_similar(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    alpha: float = 0.05,
) -> bool:
    """True when the two samples are *not* significantly different.

    This is the paper's §IV-C notion of "statistically similar" AD between
    combined-fault and single-fault configurations.  Degenerate identical
    zero-variance samples compare as similar.
    """
    a_arr = np.asarray(list(a), dtype=np.float64)
    b_arr = np.asarray(list(b), dtype=np.float64)
    if a_arr.std() == 0.0 and b_arr.std() == 0.0:
        return bool(np.isclose(a_arr.mean(), b_arr.mean()))
    _, p_value = welch_ttest(a_arr, b_arr)
    return p_value >= alpha


def summarize(values: Sequence[float] | np.ndarray) -> dict[str, float]:
    """Mean/std/min/max dictionary for report payloads."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarise zero values")
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "max": float(arr.max()),
        "n": int(arr.size),
    }
