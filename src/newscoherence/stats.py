"""Group comparison of coherence scores: summary statistics, Welch's t-test, histograms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

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


def _mean_variance(values: list[float], ddof: int) -> tuple[float, float]:
    """Mean and variance (divisor n - `ddof`) of a non-empty sample. A constant
    sample has its value as mean and variance exactly 0, whatever sum() rounds to."""
    n = len(values)
    if n == 1 or min(values) == max(values):
        return float(values[0]), 0.0
    mean = sum(values) / n
    return mean, sum((v - mean) ** 2 for v in values) / (n - ddof)


def mean_sd(values: list[float], sample: bool = False) -> tuple[float, float]:
    """Arithmetic mean and SD; population SD (divisor n) unless `sample`."""
    if not values:
        raise StatsError("mean_sd of an empty list")
    mean, variance = _mean_variance(values, 1 if sample else 0)
    return mean, math.sqrt(variance)


def welch_t_test(a: list[float], b: list[float], pooled: bool = False) -> TTestResult:
    """Two-tailed t-test for a difference of means.

    Default is Welch's unequal-variance statistic with the Welch-Satterthwaite
    degrees of freedom; `pooled` selects the classic equal-variance Student t.
    p is one continued fraction in log space (`_log_p_two_tailed`), so `log10_p`
    stays finite and precise where p underflows.
    """
    n1, n2 = len(a), len(b)
    if n1 < 2 or n2 < 2:
        raise StatsError("each sample needs at least 2 values")
    m1, v1 = _mean_variance(a, 1)
    m2, v2 = _mean_variance(b, 1)
    q1, q2 = v1 / n1, v2 / n2
    sp2 = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)  # the pooled variance
    se2 = sp2 * (1.0 / n1 + 1.0 / n2) if pooled else q1 + q2  # the squared standard error
    # Both variances 0, or so small that the squared standard error underflows.
    degenerate = se2 == 0.0
    dof = float(n1 + n2 - 2)
    if degenerate:  # t is 0 or infinite, and p 1 or 0
        t = 0.0 if m1 == m2 else math.copysign(math.inf, m1 - m2)
    else:
        t = (m1 - m2) / math.sqrt(se2)
    if not (pooled or degenerate):
        # Welch-Satterthwaite, computed on the ratios q_i/(q1+q2) so tiny
        # variances cannot underflow the denominator.
        r1, r2 = q1 / se2, q2 / se2
        dof = 1.0 / (r1**2 / (n1 - 1) + r2**2 / (n2 - 1))
    log_p = _log_p_two_tailed(t, dof)
    p = min(1.0, math.exp(log_p))
    return TTestResult(t=t, dof=dof, p_two_tailed=p, log10_p=log_p / math.log(10.0),
                       degenerate=degenerate)


def _log_p_two_tailed(t: float, dof: float) -> float:
    """ln P(|T| >= |t|) for Student's t with `dof` degrees of freedom.

    That is I_x(a, b), a = dof/2, b = 1/2, x = dof/(dof + t^2): x^a (1-x)^b / (a B(a, b))
    times a continued fraction (modified Lentz), in log space. For |t| < 1 it is
    1 - I_{1-x}(b, a), whose fraction converges fast, and p > 0.3 keeps the subtraction
    precise. p is within 2e-11 relative of mpmath for dof <= 1e5 (1.4e-9 at 1e7).
    """
    a, b, r = dof / 2.0, 0.5, abs(t) / math.sqrt(dof)
    if r == 0.0:  # t = 0, or so small that p rounds to 1
        return 0.0
    # ln x = -ln(1 + r^2) and ln(1 - x) = ln x + ln r^2, without cancellation or overflow.
    if r < 1.0:
        log_x = -math.log1p(r * r)
        log_1mx = log_x + 2.0 * math.log(r)
    else:
        log_1mx = -math.log1p(1.0 / (r * r))
        log_x = log_1mx - 2.0 * math.log(r)
    if abs(t) < 1.0:
        a, b, log_x, log_1mx = b, a, log_1mx, log_x
    x = math.exp(log_x)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    frac = d
    for m in range(1, 100_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            frac *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    log_i = a * log_x + b * log_1mx - math.log(a) - _log_beta_half(dof / 2.0) + math.log(frac)
    return log_i if abs(t) >= 1.0 else math.log1p(-math.exp(log_i))


def _log_beta_half(a: float) -> float:
    """ln B(a, 1/2). From a = 15 on, ln(Gamma(a + 1/2) / Gamma(a)) comes from its
    asymptotic series: lgamma(a) - lgamma(a + 1/2) would cancel digits of lgamma(a)."""
    if a < 15.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    z = 1.0 / (a * a)
    series = 1 / 8 - z * (1 / 192 - z * (1 / 640 - z * (17 / 14336 - z * 31 / 18432)))
    return 0.5 * math.log(math.pi / a) + series / a


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
    if width == 0.0:
        raise StatsError("histogram bucket width underflows to 0")
    edges = [lower + i * width for i in range(bucket_count)] + [upper]
    hist = Histogram(lower, upper, bucket_count, edges, percentages={}, counts={},
                     clamped_below={}, clamped_above={})
    for label, values in scores_by_label.items():
        if not values:
            continue
        buckets = [0] * bucket_count
        for v in values:
            buckets[0 if v < lower else -1 if v >= upper
                    else min(int((v - lower) / width), bucket_count - 1)] += 1
        hist.counts[label] = buckets
        hist.percentages[label] = [100.0 * c / len(values) for c in buckets]
        hist.clamped_below[label] = sum(v < lower for v in values)
        hist.clamped_above[label] = sum(v > upper for v in values)
    return hist


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
