from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newscoherence.coherence import CoherenceScore
from newscoherence.stats import (
    StatsError,
    build_histogram,
    compare,
    mean_sd,
    percent_difference,
    welch_t_test,
)
from newscoherence.stats import _log_beta_half, _log_p_two_tailed


def _score(value, ok=True, doc_id="d"):
    if ok:
        return CoherenceScore(doc_id, "embedding", value, 3, 3, "ok")
    return CoherenceScore(doc_id, "embedding", float("nan"), 1, 0, "undefined")


class TestMeanSd:
    def test_basic_population(self):
        mean, sd = mean_sd([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert sd == pytest.approx(0.81650, abs=5e-6)

    def test_singleton(self):
        assert mean_sd([5.0]) == (5.0, 0.0)

    def test_constant(self):
        mean, sd = mean_sd([3.3] * 7)
        assert sd == 0.0

    def test_sample_convention(self):
        _, sd = mean_sd([1.0, 2.0, 3.0], sample=True)
        assert sd == pytest.approx(1.0)

    def test_empty(self):
        with pytest.raises(StatsError):
            mean_sd([])


# Reference values computed once with mpmath (50-digit Welch t / regularized
# incomplete beta) and frozen: (a, b) -> (t, dof, p_two_tailed, log10_p).
WELCH_REFERENCE = {
    "basic": (
        [1, 2, 3, 4, 5],
        [2, 3, 4, 5, 6],
        (-1.0, 8.0, 0.34659350708733425, -0.46017957740558352),
    ),
    "small_uneven": (
        [0.1, 0.2, 0.15, 0.17],
        [0.3, 0.28, 0.33],
        (-5.8057198501756356, 4.8806893504197967, 0.0023164617023694956,
         -2.6351748755113711),
    ),
    "unequal_var": (
        [10.1, 10.3, 9.8, 10.0, 10.2, 9.9, 10.4, 10.1],
        [12.0, 8.5, 11.2, 9.0, 13.1],
        (-0.74941957943066724, 4.0519785254220524, 0.49477059397024263,
         -0.30559611998867441),
    ),
    "near_equal": (
        [1.0, 1.1, 0.9, 1.05, 0.95, 1.02],
        [1.01, 1.12, 0.91, 1.06, 0.96, 1.0],
        (-0.15931324696929153, 9.9873899840444696, 0.87659775493043309,
         -0.057199645959692461),
    ),
    "extreme": (
        [0.5 + 0.004 * ((i * 37) % 100) / 100 for i in range(60)],
        [0.52 + 0.004 * ((i * 53) % 100) / 100 for i in range(60)],
        (-93.148963147714886, 117.9883823237958, 2.5602567787601686e-112,
         -111.59171647531075),
    ),
}


class TestWelch:
    @pytest.mark.parametrize("name", sorted(WELCH_REFERENCE))
    def test_matches_pinned_reference(self, name):
        a, b, (t, dof, p, log10_p) = WELCH_REFERENCE[name]
        got = welch_t_test([float(x) for x in a], [float(x) for x in b])
        assert got.t == pytest.approx(t, rel=1e-9)
        assert got.dof == pytest.approx(dof, rel=1e-9)
        assert got.p_two_tailed == pytest.approx(p, rel=1e-9)
        assert got.log10_p == pytest.approx(log10_p, abs=0.01)

    def test_identical_samples(self):
        a = [1.0, 2.0, 3.0]
        got = welch_t_test(a, list(a))
        assert got.t == 0.0
        assert got.p_two_tailed == 1.0

    def test_too_small(self):
        with pytest.raises(StatsError):
            welch_t_test([1.0], [1.0, 2.0])

    def test_degenerate_equal_constants(self):
        # sum([0.1] * 3) / 3 rounds away from 0.1: a constant sample is still constant.
        for a, b in [([2.0, 2.0], [2.0, 2.0]), ([0.1] * 3, [0.1] * 3)]:
            got = welch_t_test(a, b)
            assert got.degenerate and got.dof == len(a) + len(b) - 2
            assert got.t == 0.0 and got.p_two_tailed == 1.0 and got.log10_p == 0.0

    def test_degenerate_unequal_constants(self):
        for a, b in [([2.0, 2.0], [3.0, 3.0]), ([0.1] * 3, [0.2] * 3)]:
            got = welch_t_test(a, b)
            assert got.degenerate and got.dof == len(a) + len(b) - 2
            assert got.p_two_tailed == 0.0 and got.log10_p == -math.inf
            assert got.t == -math.inf

    def test_underflowing_standard_error_is_degenerate(self):
        """The fake variance is 5e-324, but its share of the squared standard error,
        Welch or pooled, rounds to 0: t is infinite, not a division by zero."""
        a, b = [0.0, 0.0, 0.0, 4e-162], [0.5] * 6
        for pooled in (False, True):
            got = welch_t_test(a, b, pooled=pooled)
            assert got.degenerate and got.dof == len(a) + len(b) - 2
            assert got.t == -math.inf and got.p_two_tailed == 0.0

    def test_log_p_past_float_underflow(self):
        # mpmath, 50 digits: log10 I_x(256, 1/2) at x = 512 / (512 + 220^2).
        assert _log_p_two_tailed(220.0, 512.0) / math.log(10) == pytest.approx(
            -508.368, abs=0.01)
        assert _log_p_two_tailed(-220.0, 512.0) == _log_p_two_tailed(220.0, 512.0)

    def test_log_p_at_extreme_t(self):
        assert _log_p_two_tailed(5e-324, 4.0) == 0.0
        assert _log_p_two_tailed(math.inf, 4.0) == -math.inf
        assert _log_p_two_tailed(1e200, 4.0) == pytest.approx(-1840.2763149260085, rel=1e-12)  # mpmath

    def test_separated_samples_give_finite_log_p(self):
        import mpmath

        a = [1.0 + 0.001 * i for i in range(300)]
        b = [0.001 * i for i in range(300)]
        got = welch_t_test(a, b)
        assert got.p_two_tailed == 0.0
        with mpmath.workdps(50):
            t, dof = mpmath.mpf(got.t), mpmath.mpf(got.dof)
            p = mpmath.betainc(dof / 2, mpmath.mpf(1) / 2, 0, dof / (dof + t * t),
                               regularized=True)
            want = float(mpmath.log10(p))
        assert want < -308
        assert got.log10_p == pytest.approx(want, abs=0.01)

    def test_log_p_matches_mpmath_on_a_grid(self):
        import mpmath

        rng = random.Random(11)
        # dof up to 1e5 (ISOT-sized samples); t around the switch at |t| = 1 and t^2 = 3.
        dofs = [1.0, 2.0, 3.5, 10.0, 44_000.0, 1e5] + [10 ** rng.uniform(0, 5) for _ in range(10)]
        ts = ([0.0, 1e-9, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 3**0.5 - 1e-3, 3**0.5, 3**0.5 + 1e-3,
               5.0, 20.0, 40.0]
              + [rng.uniform(0.9, 1.1) for _ in range(5)] + [rng.uniform(0, 40) for _ in range(5)])
        with mpmath.workdps(50):
            for dof in dofs:
                for t in ts:
                    got = _log_p_two_tailed(t, dof)
                    d, tt = mpmath.mpf(dof), mpmath.mpf(t)
                    p = mpmath.betainc(d / 2, mpmath.mpf(1) / 2, 0, d / (d + tt * tt),
                                       regularized=True)
                    if p > mpmath.mpf("1e-300"):
                        assert math.exp(got) == pytest.approx(float(p), rel=1e-10, abs=0), (t, dof)
                    else:
                        assert got / math.log(10) == pytest.approx(
                            float(mpmath.log10(p)), abs=1e-6), (t, dof)

    @pytest.mark.parametrize("a", [14.9, 15.0, 30.0, 2e4, 5e5])  # lgamma below 15, series above
    def test_log_beta_half_matches_mpmath(self, a):
        import mpmath

        with mpmath.workdps(50):
            want = float(mpmath.log(mpmath.beta(mpmath.mpf(a), mpmath.mpf(1) / 2)))
        assert _log_beta_half(a) == pytest.approx(want, rel=0, abs=1e-14)

    def test_pooled_variant(self):
        a, b = [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0, 5.0, 6.0]
        got = welch_t_test(a, b, pooled=True)
        assert got.dof == 8.0
        assert got.t == pytest.approx(-1.0)

    sample = st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=20
    )

    @given(sample, sample)
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry(self, a, b):
        r1 = welch_t_test(a, b)
        r2 = welch_t_test(b, a)
        assert r1.t == pytest.approx(-r2.t, abs=1e-12)
        assert r1.p_two_tailed == pytest.approx(r2.p_two_tailed, abs=1e-12)

    @given(st.floats(min_value=2, max_value=200),
           st.lists(st.floats(min_value=0, max_value=50), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_p_decreasing_in_abs_t(self, dof, ts):
        ps = [math.exp(_log_p_two_tailed(t, dof)) for t in sorted(set(ts))]
        assert all(p1 >= p2 - 1e-15 for p1, p2 in zip(ps, ps[1:]))


TABLE2_MEANS = [
    # (fake mean, legitimate mean, printed difference in %)
    (0.546518, 0.567870, 3.91),
    (0.999218, 0.999474, 0.03),
    (0.277454, 0.286689, 3.33),
    (0.468907, 0.506322, 7.98),
    (0.995245, 0.997276, 0.20),
    (0.307874, 0.318574, 3.48),
]


class TestPercentDifference:
    @pytest.mark.parametrize("fake,legit,expected", TABLE2_MEANS)
    def test_published_mean_pairs(self, fake, legit, expected):
        assert round(percent_difference(fake, legit), 2) == expected

    def test_equal_means(self):
        assert percent_difference(0.4, 0.4) == 0.0

    def test_zero_denominator(self):
        with pytest.raises(StatsError):
            percent_difference(0.0, 0.5)


class TestBuildHistogram:
    def test_clamping_fixture(self):
        hist = build_histogram({"fake": [0.2, 0.45, 0.55, 0.95]}, 0.4, 0.6, 2)
        assert hist.percentages["fake"] == [50.0, 50.0]
        assert hist.clamped_below["fake"] == 1
        assert hist.clamped_above["fake"] == 1

    def test_single_score(self):
        hist = build_histogram({"fake": [0.31]}, 0.0, 1.0, 10)
        assert sum(hist.percentages["fake"]) == pytest.approx(100.0)
        assert hist.counts["fake"][3] == 1

    def test_upper_bound_closed(self):
        hist = build_histogram({"fake": [1.0]}, 0.0, 1.0, 4)
        assert hist.counts["fake"][-1] == 1

    def test_interior_half_open(self):
        hist = build_histogram({"fake": [0.5]}, 0.0, 1.0, 2)
        assert hist.counts["fake"] == [0, 1]

    def test_invalid_spec(self):
        with pytest.raises(StatsError):
            build_histogram({"fake": [0.5]}, 1.0, 0.0, 2)
        with pytest.raises(StatsError):
            build_histogram({"fake": [0.5]}, 0.0, 1.0, 0)
        with pytest.raises(StatsError, match="width"):
            build_histogram({"fake": [0.0]}, 0.0, 1e-323, 100_000)

    def test_empty_label_omitted(self):
        hist = build_histogram({"fake": [0.5], "legitimate": []}, 0.0, 1.0, 2)
        assert "legitimate" not in hist.percentages

    @given(st.lists(st.floats(min_value=-2, max_value=3, allow_nan=False),
                    min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_percentages_sum_and_count_conservation(self, values):
        hist = build_histogram({"x": values}, 0.0, 1.0, 7)
        assert sum(hist.percentages["x"]) == pytest.approx(100.0, abs=1e-9)
        assert sum(hist.counts["x"]) == len(values)


class TestCompare:
    def test_percent_difference_row(self):
        fake = [_score(0.5, doc_id="f1"), _score(0.5, doc_id="f2")]
        legit = [_score(0.6, doc_id="l1"), _score(0.6 + 1e-9, doc_id="l2")]
        summary = compare(fake, legit)
        assert summary.percent_difference == pytest.approx(20.0, abs=1e-5)

    def test_identical_groups(self):
        group = [_score(0.4), _score(0.5), _score(0.6)]
        summary = compare(group, list(group))
        assert summary.percent_difference == 0.0
        assert summary.p_value == 1.0

    def test_undefined_scores_excluded(self):
        fake = [_score(0.5), _score(0.6), _score(0, ok=False)]
        legit = [_score(0.7), _score(0.8)]
        summary = compare(fake, legit)
        assert summary.fake.n == 2
        assert summary.excluded_fake == 1
        assert summary.excluded_legitimate == 0

    def test_insufficient(self):
        with pytest.raises(StatsError):
            compare([_score(0.5)], [_score(0.6), _score(0.7)])
