import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats as scipy_stats

from pncvalence import stats
from pncvalence.errors import ConvergenceError, ValidationError
from pncvalence.stats import (average_ranks, fisher_f_sf, pearson, spearman,
                              student_t_sf)


def brute_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def brute_ranks(values):
    # rank by counting, averaging over equal values
    return [(sum(1 for o in values if o < v)
             + (sum(1 for o in values if o == v) + 1) / 2) for v in values]


class TestPearson:
    def test_perfect_correlation(self):
        res = pearson([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0])
        assert res.coefficient == pytest.approx(1.0, abs=1e-15)
        assert res.method == "pearson"
        assert res.n == 4

    def test_perfect_anticorrelation(self):
        res = pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert res.coefficient == pytest.approx(-1.0, abs=1e-15)

    def test_against_bruteforce_randomized(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(2, 12)
            x = [rng.uniform(-10, 10) for _ in range(n)]
            y = [rng.uniform(-10, 10) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert pearson(x, y).coefficient == pytest.approx(
                brute_pearson(x, y), abs=1e-12)

    def test_p_value_matches_scipy(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(4, 30)
            x = [rng.gauss(0, 1) for _ in range(n)]
            y = [a * 0.5 + rng.gauss(0, 1) for a in x]
            res = pearson(x, y)
            ref_r, ref_p = scipy_stats.pearsonr(x, y)
            assert res.coefficient == pytest.approx(ref_r, abs=1e-12)
            assert res.p_value == pytest.approx(ref_p, rel=1e-9, abs=1e-12)

    def test_n_below_three_has_no_p_value(self):
        res = pearson([1.0, 2.0], [5.0, 9.0])
        assert res.p_value is None
        assert abs(res.coefficient) == pytest.approx(1.0)

    def test_constant_input_is_undefined(self):
        for x, y in (([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
                     ([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])):
            res = pearson(x, y)
            assert res.coefficient is None and res.p_value is None
            assert res.n == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        # one pair is no mismatch: its coefficient is undefined
        res = pearson([1.0], [2.0])
        assert res.coefficient is None and res.p_value is None
        assert res.n == 1

    @given(st.lists(st.tuples(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100)), min_size=3, max_size=12))
    @settings(max_examples=80)
    def test_coefficient_bounded(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        res = pearson(x, y)
        if res.coefficient is None:
            assert res.p_value is None
            return
        assert -1.0 <= res.coefficient <= 1.0
        if res.p_value is not None:
            assert 0.0 <= res.p_value <= 1.0


class TestRanks:
    def test_simple(self):
        assert average_ranks([10.0, 20.0, 30.0]) == [1.0, 2.0, 3.0]

    def test_ties_get_midranks(self):
        assert average_ranks([1.0, 2.0, 2.0, 3.0]) == [1.0, 2.5, 2.5, 4.0]
        assert average_ranks([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_matches_counting_definition(self, values):
        assert average_ranks(values) == pytest.approx(brute_ranks(values))


class TestSpearman:
    def test_monotone_is_one(self):
        res = spearman([1.0, 5.0, 9.0, 10.0], [2.0, 20.0, 30.0, 31.0])
        assert res.coefficient == pytest.approx(1.0)
        assert res.method == "spearman"

    def test_with_ties_matches_scipy(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(3, 12)
            x = [float(rng.randint(0, 4)) for _ in range(n)]
            y = [float(rng.randint(0, 4)) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            res = spearman(x, y)
            ref = scipy_stats.spearmanr(x, y).statistic
            assert res.coefficient == pytest.approx(ref, abs=1e-12)

    def test_equals_pearson_of_bruteforce_ranks(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 12)
            x = [float(rng.randint(0, 5)) for _ in range(n)]
            y = [rng.uniform(-3, 3) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            expect = brute_pearson(brute_ranks(x), brute_ranks(y))
            assert spearman(x, y).coefficient == pytest.approx(expect, abs=1e-12)

    def test_all_tied_is_undefined(self):
        res = spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert res.coefficient is None and res.p_value is None


class TestStudentTSf:
    def test_zero_statistic_is_one(self):
        for df in (1, 2, 5, 30):
            assert student_t_sf(0.0, df) == pytest.approx(1.0)

    def test_symmetry_in_sign(self):
        assert student_t_sf(2.5, 7) == student_t_sf(-2.5, 7)

    def test_against_numeric_integration(self):
        # two-sided tail mass from direct integration of the density
        def pdf(x, df):
            c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi)
                                            * math.gamma(df / 2))
            return c * (1 + x * x / df) ** (-(df + 1) / 2)

        points = [(t, df) for df in (1, 2, 5, 10, 30)
                  for t in (0.25, 1.0, 2.0, 4.0)]
        assert len(points) == 20
        for t, df in points:
            tail, _err = integrate.quad(pdf, t, math.inf, args=(df,))
            assert student_t_sf(t, df) == pytest.approx(2 * tail, abs=1e-6)

    def test_against_scipy(self):
        for t in (0.1, 0.7, 1.3, 2.2, 3.7, 6.0):
            for df in (1, 3, 8, 25, 120):
                assert student_t_sf(t, df) == pytest.approx(
                    2 * scipy_stats.t.sf(t, df), rel=1e-10)

    def test_infinite_statistic(self):
        assert student_t_sf(math.inf, 4) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            student_t_sf(math.nan, 4)
        with pytest.raises(ValidationError):
            student_t_sf(1.0, 0)


class TestFisherFSf:
    def test_against_scipy(self):
        for f in (0.2, 0.9, 1.7, 3.5, 10.0):
            for df1, df2 in ((1, 4), (2, 10), (5, 3), (7, 60)):
                assert fisher_f_sf(f, df1, df2) == pytest.approx(
                    scipy_stats.f.sf(f, df1, df2), rel=1e-10, abs=1e-14)

    def test_nonpositive_statistic(self):
        assert fisher_f_sf(0.0, 3, 5) == 1.0
        assert fisher_f_sf(-2.0, 3, 5) == 1.0

    def test_infinite_statistic(self):
        assert fisher_f_sf(math.inf, 3, 5) == 0.0

    def test_invalid_dfs(self):
        with pytest.raises(ValidationError):
            fisher_f_sf(1.0, 0, 5)
        with pytest.raises(ValidationError):
            fisher_f_sf(1.0, 3, -1)


class TestClosedFormTails:
    """Tails whose incomplete beta has a closed form, checked without a
    reference library."""

    STATISTICS = (1e-6, 0.01, 0.3, 1.0, 2.5, 9.0, 40.0, 1e3, 1e8)

    @pytest.mark.parametrize("t", STATISTICS)
    def test_t_with_one_degree_of_freedom(self, t):
        assert student_t_sf(t, 1) == pytest.approx(
            2 / math.pi * math.atan(1 / t), rel=1e-12)

    @pytest.mark.parametrize("t", STATISTICS)
    def test_t_with_two_degrees_of_freedom(self, t):
        # 1 - t / sqrt(2 + t^2), written without the cancellation
        root = math.sqrt(2 + t * t)
        assert student_t_sf(t, 2) == pytest.approx(
            2 / (root * (root + t)), rel=1e-12)

    @pytest.mark.parametrize("d2", (1, 2, 7, 30, 282, 400))
    @pytest.mark.parametrize("f", (1e-3, 0.5, 2.0, 30.0, 700.0, 6100.0))
    def test_f_with_two_numerator_degrees_of_freedom(self, f, d2):
        assert fisher_f_sf(f, 2, d2) == pytest.approx(
            (d2 / (d2 + 2 * f)) ** (d2 / 2), rel=1e-12)

    def test_deep_tail_keeps_its_digits(self):
        p = fisher_f_sf(6100.0, 2, 400)
        assert 1e-300 < p < 1e-299
        assert p == pytest.approx((400 / 12600) ** 200, rel=1e-12)
        # 1.12469252490834e-306 by mpmath at 50 digits
        assert fisher_f_sf(2601.89, 20, 282) == pytest.approx(
            1.12469252490834e-306, rel=1e-12)

    def test_statistic_beyond_the_float_range(self):
        assert fisher_f_sf(1e308, 2, 5) == 0.0  # 2 * f overflows
        assert fisher_f_sf(1e-320, 2, 5) == 1.0

    def test_fraction_that_does_not_converge_raises(self, monkeypatch):
        monkeypatch.setattr(stats, "_MAX_TERMS", 1)
        with pytest.raises(ConvergenceError):
            fisher_f_sf(1.0, 40, 40)
