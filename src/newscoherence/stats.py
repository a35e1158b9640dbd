"""Group comparison of coherence scores: summary statistics, Welch's t-test, histograms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from scipy import stats as sps

if TYPE_CHECKING:  # coherence imports corpus, which imports mean_sd from here
    from .coherence import CoherenceScore

__all__ = [
    "StatsError",
    "GroupStats",
    "TTestResult",
    "ComparisonSummary",
    "Histogram",
    "mean_sd",
    "welch_t_test",
    "percent_difference",
    "build_histogram",
    "compare",
]


class StatsError(Exception):
    """Raised for empty or too-small samples and invalid histogram specs."""


@dataclass
class GroupStats:
    n: int
    mean: float
    sd: float


@dataclass
class TTestResult:
    t: float
    dof: float
    p_two_tailed: float
    log10_p: float
    degenerate: bool = False


@dataclass
class ComparisonSummary:
    fake: GroupStats
    legitimate: GroupStats
    percent_difference: float
    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    log10_p: float
    excluded_fake: int = 0
    excluded_legitimate: int = 0


@dataclass
class Histogram:
    lower: float
    upper: float
    bucket_count: int
    edges: list[float]
    percentages: dict[str, list[float]]
    counts: dict[str, list[int]]
    clamped_below: dict[str, int]
    clamped_above: dict[str, int]


def mean_sd(values: list[float], sample: bool = False) -> tuple[float, float]:
    """Arithmetic mean and SD; population SD (divisor n) unless `sample`."""
    if not values:
        raise StatsError("mean_sd of an empty list")
    n = len(values)
    mean = sum(values) / n
    if n == 1 or min(values) == max(values):
        return mean, 0.0
    ss = sum((v - mean) ** 2 for v in values)
    return mean, math.sqrt(ss / (n - 1 if sample else n))


def welch_t_test(a: list[float], b: list[float], pooled: bool = False) -> TTestResult:
    """Two-tailed t-test for a difference of means.

    Default is Welch's unequal-variance statistic with the Welch-Satterthwaite
    degrees of freedom; `pooled` selects the classic equal-variance Student t.
    The tail probability is evaluated in log space so p-values down to 1e-300
    keep full precision.
    """
    n1, n2 = len(a), len(b)
    if n1 < 2 or n2 < 2:
        raise StatsError("each sample needs at least 2 values")
    m1 = sum(a) / n1
    m2 = sum(b) / n2
    v1 = sum((x - m1) ** 2 for x in a) / (n1 - 1)
    v2 = sum((x - m2) ** 2 for x in b) / (n2 - 1)

    if v1 == 0.0 and v2 == 0.0:
        if m1 == m2:
            return TTestResult(t=0.0, dof=float(n1 + n2 - 2), p_two_tailed=1.0,
                               log10_p=0.0, degenerate=True)
        t_inf = math.inf if m1 > m2 else -math.inf
        return TTestResult(t=t_inf, dof=float(n1 + n2 - 2), p_two_tailed=0.0,
                           log10_p=-math.inf, degenerate=True)

    if pooled:
        sp2 = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)
        se = math.sqrt(sp2 * (1.0 / n1 + 1.0 / n2))
        dof = float(n1 + n2 - 2)
    else:
        q1, q2 = v1 / n1, v2 / n2
        se = math.sqrt(q1 + q2)
        # Welch-Satterthwaite, computed on the ratios q_i/(q1+q2) so tiny
        # variances cannot underflow the denominator.
        r1, r2 = q1 / (q1 + q2), q2 / (q1 + q2)
        dof = 1.0 / (r1**2 / (n1 - 1) + r2**2 / (n2 - 1))
    t = (m1 - m2) / se

    log_p = math.log(2.0) + sps.t.logsf(abs(t), dof)
    p = min(1.0, math.exp(log_p))
    return TTestResult(t=t, dof=dof, p_two_tailed=p, log10_p=log_p / math.log(10.0))


def percent_difference(mean_fake: float, mean_legit: float) -> float:
    """(mean_legit - mean_fake) / mean_fake * 100."""
    if mean_fake == 0.0:
        raise StatsError("percent_difference with zero fake mean")
    return (mean_legit - mean_fake) / mean_fake * 100.0


def build_histogram(
    scores_by_label: dict[str, list[float]],
    lower: float,
    upper: float,
    bucket_count: int,
) -> Histogram:
    """Equal-width buckets, half-open except the last (closed), with edge clamping.

    Values below `lower` count into bucket 0 and values above `upper` into the
    last bucket; per-label counts are normalized to percentages. Empty label
    groups are omitted.
    """
    if not (lower < upper):
        raise StatsError("histogram requires lower < upper")
    if bucket_count < 1:
        raise StatsError("histogram requires at least one bucket")
    width = (upper - lower) / bucket_count
    edges = [lower + i * width for i in range(bucket_count)] + [upper]

    percentages: dict[str, list[float]] = {}
    counts: dict[str, list[int]] = {}
    below: dict[str, int] = {}
    above: dict[str, int] = {}
    for label, values in scores_by_label.items():
        if not values:
            continue
        buckets = [0] * bucket_count
        n_below = n_above = 0
        for v in values:
            if v < lower:
                buckets[0] += 1
                n_below += 1
            elif v > upper:
                buckets[-1] += 1
                n_above += 1
            elif v == upper:
                buckets[-1] += 1
            else:
                idx = int((v - lower) / width)
                buckets[min(idx, bucket_count - 1)] += 1
        n = len(values)
        counts[label] = buckets
        percentages[label] = [100.0 * c / n for c in buckets]
        below[label] = n_below
        above[label] = n_above

    return Histogram(
        lower=lower,
        upper=upper,
        bucket_count=bucket_count,
        edges=edges,
        percentages=percentages,
        counts=counts,
        clamped_below=below,
        clamped_above=above,
    )


def compare(
    fake_scores: list[CoherenceScore],
    legit_scores: list[CoherenceScore],
    sample_sd: bool = False,
    pooled: bool = False,
) -> ComparisonSummary:
    """Full comparison row: per-label mean/SD, percent difference, two-tailed t-test.

    Only ok-status scores are consumed; undefined ones are counted as excluded.
    """
    fake_vals = [s.value for s in fake_scores if s.ok]
    legit_vals = [s.value for s in legit_scores if s.ok]
    if len(fake_vals) < 2 or len(legit_vals) < 2:
        raise StatsError("each label needs at least 2 ok scores to compare")
    fm, fsd = mean_sd(fake_vals, sample_sd)
    lm, lsd = mean_sd(legit_vals, sample_sd)
    ttest = welch_t_test(fake_vals, legit_vals, pooled=pooled)
    return ComparisonSummary(
        fake=GroupStats(n=len(fake_vals), mean=fm, sd=fsd),
        legitimate=GroupStats(n=len(legit_vals), mean=lm, sd=lsd),
        percent_difference=percent_difference(fm, lm),
        t_statistic=ttest.t,
        degrees_of_freedom=ttest.dof,
        p_value=ttest.p_two_tailed,
        log10_p=ttest.log10_p,
        excluded_fake=len(fake_scores) - len(fake_vals),
        excluded_legitimate=len(legit_scores) - len(legit_vals),
    )
