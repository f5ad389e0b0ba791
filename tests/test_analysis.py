import numpy as np
import pytest
from numpy.testing import assert_allclose

from compredict.analysis import (
    DegenerateVarianceError,
    FitResult,
    bonferroni,
    cohens_d,
    confidence_interval,
    nested_f_test,
    trend_cascade,
    welch_anova,
    welch_t_test,
    wls_polyfit,
)

from oracles import mp_f_sf, mp_t_cdf, mp_t_quantile, mp_wls_polyfit, mp_weighted_rss


# ---------------------------------------------------------------------------
# distribution functions, through the tests and the interval that use them

DF_GRID = [1, 2, 3, 5, 10, 25, 50, 120, 200]
STAT_GRID = [0.0, 0.1, 0.5, 1.0, 2.0, 4.26, 10.0, 25.0, 50.0]


def welch_t_at(x, df):
    """welch_t_test with statistic x on df degrees of freedom: df + 1 values
    against a constant pair, which adds nothing to the standard error."""
    a = np.arange(df + 1.0)
    return welch_t_test(a, np.full(2, a.mean() - x * np.sqrt(np.var(a, ddof=1) / a.size)))


def nested_f_at(x, df1, df2):
    """nested_f_test with statistic x on (df1, df2) degrees of freedom."""
    n_points = df1 + df2 + 1
    return nested_f_test(_fit_stub(0, 1.0 + x * df1 / df2, n_points), _fit_stub(df1, 1.0, n_points))


def welch_anova_at(x, df1):
    """welch_anova with statistic x across df1 + 1 groups of three values:
    shifting one group by s scales the statistic by s**2."""

    def groups(s):
        return [[-1.0, 0.0, 1.0]] * df1 + [[s - 1.0, s, s + 1.0]]

    return welch_anova(groups(np.sqrt(x / welch_anova(groups(1.0)).statistic)))


def t_quantiles(level, df):
    """The t quantiles at 0.5 - level/2 and 0.5 + level/2 on df degrees of
    freedom, read back from confidence_interval on df + 1 values of mean 0."""
    values = np.arange(df + 1.0) - df / 2.0
    low, high = confidence_interval(values, level)
    scale = np.std(values, ddof=1) / np.sqrt(values.size)
    return low / scale, high / scale


def t_tail_error(result):
    """|p - P(|T| >= |t|)| of a t-test result, against the mpmath oracle."""
    return abs(result.p_value - float(2 * (1 - mp_t_cdf(abs(result.statistic), result.df1))))


def f_tail_error(result):
    """|p - P(F >= f)| of an F-test result, against the mpmath oracle."""
    return abs(result.p_value - float(mp_f_sf(result.statistic, result.df1, result.df2)))


def test_t_sf_matches_high_precision_beta_oracle():
    worst = 0.0
    for df in DF_GRID:
        for x in STAT_GRID:
            for sign in (1.0, -1.0):
                worst = max(worst, t_tail_error(welch_t_at(sign * x, df)))
    assert worst < 1e-10


def test_f_sf_matches_high_precision_beta_oracle():
    worst = 0.0
    for df1 in DF_GRID:
        for x in STAT_GRID:
            worst = max(worst, f_tail_error(welch_anova_at(x, df1)))
            for df2 in DF_GRID:
                worst = max(worst, f_tail_error(nested_f_at(x, df1, df2)))
    assert worst < 1e-10


def test_t_quantile_frozen_value_and_inverse():
    # t quantile at 97.5% with 9 degrees of freedom
    low, high = t_quantiles(0.95, 9)
    assert_allclose(high, float(mp_t_quantile(0.975, 9)), rtol=1e-10)
    assert_allclose(high, 2.2621571628, rtol=1e-9)
    assert low == -high
    for q in (0.6, 0.9, 0.995):
        for df in (3, 9, 100):
            low, high = t_quantiles(2 * q - 1, df)
            assert_allclose(float(mp_t_cdf(high, df)), q, rtol=1e-10)
            assert_allclose(float(mp_t_cdf(low, df)), 1 - q, rtol=1e-10)


# ---------------------------------------------------------------------------
# weighted least squares


def test_wls_exact_quadratic_fit():
    ts = [125.0, 250.0, 375.0, 500.0, 625.0]
    levels = [(t, [2.0 + 3.0 * t * t] * 4) for t in ts]
    fit = wls_polyfit(levels, degree=2)
    assert_allclose(fit.coefficients, [2.0, 0.0, 3.0], rtol=1e-9, atol=1e-9)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.degenerate_weights  # zero variance at every level, flagged


def test_wls_matches_high_precision_normal_equations():
    rng = np.random.default_rng(3)
    ts = [125.0, 250.0, 375.0, 500.0, 625.0]
    levels = []
    for t in ts:
        base = 1e-3 + 2e-5 * t + 3e-8 * t * t
        levels.append((t, list(base * (1.0 + 0.05 * rng.normal(size=8)))))
    fit = wls_polyfit(levels, degree=1)
    assert fit.r_squared < 1.0

    ts_all, ys_all, ws_all = [], [], []
    for t, values in levels:
        w = 1.0 / np.var(values, ddof=1)
        for y in values:
            ts_all.append(t)
            ys_all.append(y)
            ws_all.append(w)
    oracle_coef = mp_wls_polyfit(ts_all, ys_all, ws_all, degree=1)
    assert_allclose(fit.coefficients, [float(c) for c in oracle_coef], rtol=1e-9)
    oracle_wrss = float(mp_weighted_rss(ts_all, ys_all, ws_all, oracle_coef))
    assert_allclose(fit.wrss, oracle_wrss, rtol=1e-9)


def test_wls_single_value_per_level_reduces_to_ols():
    ts = [125.0, 250.0, 375.0, 500.0, 625.0]
    rng = np.random.default_rng(5)
    ys = [0.01 * t + rng.normal() for t in ts]
    fit = wls_polyfit([(t, [y]) for t, y in zip(ts, ys)], degree=1)
    assert fit.degenerate_weights
    ols = np.polynomial.polynomial.polyfit(ts, ys, 1)
    assert_allclose(fit.coefficients, ols, rtol=1e-9)


def test_wls_rejects_too_high_degree():
    levels = [(125.0, [1.0, 2.0]), (250.0, [2.0, 3.0])]
    with pytest.raises(ValueError):
        wls_polyfit(levels, degree=2)


def test_wls_weights_are_inverse_level_variance():
    levels = [(1.0, [0.0, 2.0]), (2.0, [0.0, 4.0]), (3.0, [0.0, 8.0])]
    fit = wls_polyfit(levels, degree=1)
    # polyfit's w multiplies the residuals, so w = 1/sd weighs squares by 1/var;
    # weighing squares by 1/sd instead would give [-0.4615, 1.3846]
    t, y = np.repeat([1.0, 2.0, 3.0], 2), np.array([0.0, 2.0, 0.0, 4.0, 0.0, 8.0])
    sd = np.repeat([np.std(v, ddof=1) for _, v in levels], 2)
    assert_allclose(fit.coefficients, np.polynomial.polynomial.polyfit(t, y, 1, w=1 / sd), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# nested F-tests


def _fit_stub(degree, wrss, n_points):
    return FitResult(
        degree=degree,
        coefficients=np.zeros(degree + 1),
        r_squared=0.0,
        wrss=wrss,
        n_points=n_points,
    )


def test_nested_f_frozen_p_value():
    # F = 4.26 on (1, 48): reduced wrss 52.26, full wrss 48 with n = 51
    result = nested_f_test(_fit_stub(1, 52.26, 51), _fit_stub(2, 48.0, 51))
    assert_allclose(result.statistic, 4.26, rtol=1e-12)
    assert (result.df1, result.df2) == (1, 48)
    assert_allclose(result.p_value, 0.04444799755, rtol=1e-8)


def test_nested_f_perfect_full_fit():
    result = nested_f_test(_fit_stub(1, 5.0, 40), _fit_stub(2, 0.0, 40))
    assert result.perfect_fit
    assert result.p_value == 0.0


def test_nested_f_identical_residuals():
    result = nested_f_test(_fit_stub(1, 5.0, 40), _fit_stub(2, 5.0, 40))
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_nested_f_requires_nested_models():
    with pytest.raises(ValueError):
        nested_f_test(_fit_stub(2, 5.0, 40), _fit_stub(2, 4.0, 40))
    with pytest.raises(ValueError):
        nested_f_test(_fit_stub(1, 5.0, 40), _fit_stub(2, 4.0, 30))


def test_trend_cascade_selects_expected_degrees():
    ts = [125.0, 250.0, 375.0, 500.0, 625.0]
    rng = np.random.default_rng(11)

    def levels_for(fn, scale):
        return [(t, list(fn(t) + scale * rng.normal(size=10))) for t in ts]

    linear = trend_cascade(levels_for(lambda t: 0.02 * t, 0.5))
    assert linear.selected_degree == 1
    assert linear.quadratic_vs_linear is not None

    quadratic = trend_cascade(levels_for(lambda t: 1e-4 * t * t, 0.5))
    assert quadratic.selected_degree == 2
    assert quadratic.cubic_vs_quadratic.p_value > 0.05

    cubic = trend_cascade(levels_for(lambda t: 1e-6 * t**3, 0.5))
    assert cubic.selected_degree == 3
    # the cascade stops after rejecting the cubic null
    assert cubic.quadratic_vs_linear is None


# ---------------------------------------------------------------------------
# Welch tests, effect sizes, intervals


def test_welch_t_frozen_example():
    result = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert result.statistic == pytest.approx(-1.0, rel=1e-12)
    assert result.df1 == pytest.approx(8.0, rel=1e-12) and result.df2 is None
    assert result.p_value == pytest.approx(0.3466, abs=5e-4)
    assert result.p_value == pytest.approx(0.3465935071, rel=1e-8)


def test_welch_t_identical_samples():
    result = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.statistic == 0.0
    assert result.p_value == pytest.approx(1.0)


def test_welch_t_separated_samples():
    result = welch_t_test(np.zeros(10) + [0.01 * i for i in range(10)], 100.0 + np.arange(10))
    assert result.p_value < 1e-6


def test_welch_t_is_antisymmetric():
    a = [1.0, 2.5, 3.0, 4.8]
    b = [2.0, 3.5, 5.0]
    fwd = welch_t_test(a, b)
    rev = welch_t_test(b, a)
    assert fwd.statistic == pytest.approx(-rev.statistic, rel=1e-14)
    assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-14)
    assert fwd.df1 == pytest.approx(rev.df1, rel=1e-14)


def test_welch_t_degenerate_variance():
    with pytest.raises(DegenerateVarianceError):
        welch_t_test([1.0, 1.0, 1.0], [2.0, 2.0])


def test_welch_anova_frozen_example():
    result = welch_anova([[1, 2, 3, 4], [2, 3, 4, 5], [10, 11, 12, 13]])
    assert result.statistic == pytest.approx(52.56, rel=1e-12)
    assert result.df1 == 2
    assert result.df2 == pytest.approx(6.0, rel=1e-12)
    assert result.p_value == pytest.approx(1.5742621e-4, rel=1e-7)
    assert result.p_value < 0.001


def test_welch_anova_identical_groups():
    group = [1.0, 2.0, 3.0, 4.0]
    result = welch_anova([group, list(group), list(group)])
    assert result.statistic == pytest.approx(0.0, abs=1e-28)
    assert result.p_value == pytest.approx(1.0)


def test_welch_anova_two_groups_equals_t_squared():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [2.0, 3.0, 4.0, 5.0, 7.0]
    anova = welch_anova([a, b])
    ttest = welch_t_test(a, b)
    assert anova.statistic == pytest.approx(ttest.statistic**2, rel=1e-12)
    assert anova.df2 == pytest.approx(ttest.df1, rel=1e-12)
    assert anova.p_value == pytest.approx(ttest.p_value, rel=1e-10)


def test_welch_anova_rejects_degenerate_group():
    with pytest.raises(DegenerateVarianceError):
        welch_anova([[1.0, 1.0, 1.0], [2.0, 3.0, 4.0]])
    with pytest.raises(ValueError):
        welch_anova([[1.0, 2.0]])


def test_scale_invariance_of_tests():
    rng = np.random.default_rng(13)
    a = rng.normal(size=9)
    b = rng.normal(loc=0.7, size=9)
    c = rng.normal(loc=1.1, size=9)
    base_t = welch_t_test(a, b)
    base_f = welch_anova([a, b, c])
    base_d = cohens_d(a, b)
    for scale in (1e-6, 3.7, 1e6):
        scaled_t = welch_t_test(scale * a, scale * b)
        assert scaled_t.statistic == pytest.approx(base_t.statistic, rel=1e-12)
        assert scaled_t.p_value == pytest.approx(base_t.p_value, rel=1e-12)
        scaled_f = welch_anova([scale * a, scale * b, scale * c])
        assert scaled_f.statistic == pytest.approx(base_f.statistic, rel=1e-12)
        assert scaled_f.p_value == pytest.approx(base_f.p_value, rel=1e-12)
        assert cohens_d(scale * a, scale * b) == pytest.approx(base_d, rel=1e-12)


def test_bonferroni_examples():
    assert bonferroni([0.01], 3) == [pytest.approx(0.03)]
    assert bonferroni([0.5], 3) == [1.0]
    assert bonferroni([0.004], 6) == [pytest.approx(0.024)]
    assert np.isnan(bonferroni([float("nan")], 3)[0])  # not min(1, nan) = 1.0
    with pytest.raises(ValueError):
        bonferroni([0.1, 0.2, 0.3], 2)


def test_bonferroni_monotone_and_dominates_raw():
    ps = [0.001, 0.01, 0.04, 0.2, 0.9]
    adjusted = bonferroni(ps, 5)
    assert all(adj >= p for adj, p in zip(adjusted, ps))
    assert adjusted == sorted(adjusted)


def test_cohens_d_identical_samples():
    assert cohens_d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_cohens_d_unit_effect():
    half = np.sqrt(0.9)
    spread = np.array([half] * 5 + [-half] * 5)  # sample SD exactly 1
    a = spread + 1.0
    b = spread.copy()
    assert abs(cohens_d(a, b) - 1.0) <= 1e-12


def test_cohens_d_variants_and_errors():
    # the df-weighted pooled SD, which for unequal group sizes is not the
    # plain mean of the two variances
    a = [1.0, 2.0, 3.0, 4.0]
    b = [2.0, 2.5, 5.0]
    spread = (3 * np.var(a, ddof=1) + 2 * np.var(b, ddof=1)) / 5
    assert cohens_d(a, b) == pytest.approx((np.mean(a) - np.mean(b)) / np.sqrt(spread), rel=1e-12)
    with pytest.raises(DegenerateVarianceError):
        cohens_d([1.0, 1.0], [1.0, 1.0])


def test_confidence_interval_frozen_width():
    # n=10, mean 0, sample SD exactly 1
    half = np.sqrt(0.9)
    values = [half] * 5 + [-half] * 5
    low, high = confidence_interval(values, level=0.95)
    assert_allclose(high, 0.715356905971, rtol=1e-9)
    assert_allclose(low, -high, atol=1e-15)
    assert_allclose(high, 0.7154, atol=5e-5)


def test_confidence_interval_degenerate_and_nesting():
    low, high = confidence_interval([2.5, 2.5, 2.5, 2.5])
    assert low == high == pytest.approx(2.5)
    values = [1.0, 2.0, 4.0, 4.5, 5.0]
    lo95, hi95 = confidence_interval(values, level=0.95)
    lo99, hi99 = confidence_interval(values, level=0.99)
    assert lo99 < lo95 < hi95 < hi99
    with pytest.raises(ValueError):
        confidence_interval([1.0])
