"""Trend fits and group comparisons for metric-vs-horizon data.

Weighted least squares handles the unequal variance across horizon lengths
(weights are reciprocal per-level sample variances); nested F-tests compare
polynomial degrees, and a cubic -> quadratic -> linear cascade picks the
lowest degree the data supports. Profiles are compared per horizon length
with Welch's ANOVA, Welch's t-tests under a Bonferroni correction, and
Cohen's d effect sizes. Every test returns a `TestResult` of one shape:
statistic, df1, df2 (None for a t-test) and p-value.

The t and F tail probabilities and the t quantile come from
`scipy.special` (`stdtr`, `fdtrc`, `stdtrit`). It is imported in the four
functions that call it, on the first statistic: the import costs ~23 MiB and
~0.18 s, so commands that compute no statistics (`preprocess`, `predict`,
`synth`) and the forked trial loaders never pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateVarianceError(ValueError):
    """A variance-based test received data with no variance."""


# ---------------------------------------------------------------------------
# weighted least squares and nested model comparison

ZERO_VARIANCE_EPS = 1e-12  # stands in for the variance of a level with none


@dataclass(frozen=True)
class FitResult:
    """Weighted polynomial fit of metric values against horizon length.

    Coefficients are lowest order first, with the horizon regressor in
    milliseconds. wrss is the weighted residual sum of squares behind
    r_squared.
    """

    degree: int
    coefficients: np.ndarray
    r_squared: float
    wrss: float = 0.0
    n_points: int = 0
    degenerate_weights: bool = False


def wls_polyfit(levels, degree: int) -> FitResult:
    """Fit a degree-`degree` polynomial to (horizon, values) levels.

    levels is a sequence of (t, values) pairs, one per horizon length; every
    observation at level t gets weight 1/var(values at t). A zero-variance
    level falls back to weight 1/ZERO_VARIANCE_EPS and flags the result.
    Levels are stacked in ascending t, so the fit does not depend on their order.
    """
    levels = sorted(((float(t), np.asarray(v, dtype=float)) for t, v in levels), key=lambda level: level[0])
    if len(levels) <= degree:
        raise ValueError(
            f"degree {degree} needs more than {degree} distinct levels, got {len(levels)}"
        )
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")

    degenerate = False
    ts, ys, ws = [], [], []
    for t, values in levels:
        if values.size < 1:
            raise ValueError(f"level {t} has no values")
        var = float(np.var(values, ddof=1)) if values.size > 1 else 0.0
        if var <= 0.0:
            var = ZERO_VARIANCE_EPS
            degenerate = True
        ts.append(np.full(values.size, t))
        ys.append(values)
        ws.append(np.full(values.size, 1.0 / var))
    t_all = np.concatenate(ts)
    y_all = np.concatenate(ys)
    w_all = np.concatenate(ws)

    design = np.vander(t_all, degree + 1, increasing=True)
    sw = np.sqrt(w_all)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], y_all * sw, rcond=None)

    residuals = y_all - design @ coef
    wrss = float(np.sum(w_all * residuals**2))
    mean_w = float(np.sum(w_all * y_all) / np.sum(w_all))
    wtss = float(np.sum(w_all * (y_all - mean_w) ** 2))
    if wtss > 0.0:
        r_squared = 1.0 - wrss / wtss
    else:
        r_squared = 1.0 if wrss <= 0.0 else 0.0
    return FitResult(
        degree=degree,
        coefficients=coef,
        r_squared=float(r_squared),
        wrss=wrss,
        n_points=int(y_all.size),
        degenerate_weights=degenerate,
    )


@dataclass(frozen=True)
class TestResult:
    """Outcome of one statistical test: its statistic, its degrees of
    freedom (df2 is the F denominator's, None for a t-test) and its p-value."""

    statistic: float
    df1: float
    df2: float | None
    p_value: float
    perfect_fit: bool = False


def nested_f_test(fit_reduced: FitResult, fit_full: FitResult) -> TestResult:
    """F-test of whether the fuller polynomial improves on the reduced one.

    Both fits must come from the same observations and weights. Equal
    residual sums give F = 0, p = 1; a perfectly fitting full model (with a
    worse reduced one) reports p = 0 and sets perfect_fit.
    """
    from scipy import special

    n = fit_full.n_points
    p_r = fit_reduced.degree + 1
    p_f = fit_full.degree + 1
    if p_f <= p_r:
        raise ValueError(f"full model must have more parameters ({p_f} <= {p_r})")
    if fit_reduced.n_points != fit_full.n_points:
        raise ValueError("fits compare different numbers of observations")
    if n <= p_f:
        raise ValueError(f"need more observations ({n}) than parameters ({p_f})")

    df1, df2 = float(p_f - p_r), float(n - p_f)
    drop = fit_reduced.wrss - fit_full.wrss
    # guard tiny negative/zero differences from float round-off
    if drop <= max(1e-12 * fit_reduced.wrss, 0.0):
        return TestResult(statistic=0.0, df1=df1, df2=df2, p_value=1.0)
    if fit_full.wrss <= 0.0:
        return TestResult(statistic=float("inf"), df1=df1, df2=df2, p_value=0.0, perfect_fit=True)
    stat = (drop / df1) / (fit_full.wrss / df2)
    return TestResult(statistic=float(stat), df1=df1, df2=df2, p_value=float(special.fdtrc(df1, df2, stat)))


@dataclass(frozen=True)
class TrendCascade:
    """Model selection mirroring the cubic -> quadratic -> linear cascade."""

    fits: dict[int, FitResult]
    cubic_vs_quadratic: TestResult
    quadratic_vs_linear: TestResult | None
    selected_degree: int


def trend_cascade(levels, alpha: float = 0.05) -> TrendCascade:
    """Fit degrees 1..3 and select the lowest degree the F-tests support.

    The cubic-vs-quadratic test runs first; only when its null survives is
    quadratic-vs-linear tested (rejecting selects the quadratic, otherwise
    the line).
    """
    fits = {d: wls_polyfit(levels, d) for d in (1, 2, 3)}
    cubic_test = nested_f_test(fits[2], fits[3])
    if cubic_test.p_value <= alpha:
        return TrendCascade(fits, cubic_test, None, selected_degree=3)
    quad_test = nested_f_test(fits[1], fits[2])
    selected = 2 if quad_test.p_value <= alpha else 1
    return TrendCascade(fits, cubic_test, quad_test, selected_degree=selected)


# ---------------------------------------------------------------------------
# group comparisons


def _clean_group(values, name: str, min_size: int = 2) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < min_size:
        raise ValueError(f"{name} needs at least {min_size} values, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def welch_t_test(a, b) -> TestResult:
    """Two-sided Welch's t-test with Welch-Satterthwaite degrees of freedom."""
    from scipy import special

    a = _clean_group(a, "a")
    b = _clean_group(b, "b")
    var_a = float(np.var(a, ddof=1))
    var_b = float(np.var(b, ddof=1))
    if var_a == 0.0 and var_b == 0.0:
        raise DegenerateVarianceError("both samples have zero variance")
    se_a = var_a / a.size
    se_b = var_b / b.size
    stat = (float(np.mean(a)) - float(np.mean(b))) / np.sqrt(se_a + se_b)
    df = (se_a + se_b) ** 2 / (se_a**2 / (a.size - 1) + se_b**2 / (b.size - 1))
    return TestResult(statistic=float(stat), df1=float(df), df2=None, p_value=float(2.0 * special.stdtr(df, -abs(stat))))


def welch_anova(groups) -> TestResult:
    """One-way Welch's ANOVA across two or more groups.

    Uses weights n/s^2, the Welch correction in the denominator, and the
    Welch-Satterthwaite denominator degrees of freedom. With two groups the
    p-value equals the two-sided Welch t-test on the same data.
    """
    from scipy import special

    cleaned = [_clean_group(g, f"group {i}") for i, g in enumerate(groups)]
    k = len(cleaned)
    if k < 2:
        raise ValueError(f"need at least 2 groups, got {k}")
    n = np.array([g.size for g in cleaned], dtype=float)
    means = np.array([np.mean(g) for g in cleaned])
    variances = np.array([np.var(g, ddof=1) for g in cleaned])
    if np.any(variances == 0.0):
        bad = int(np.argmin(variances))
        raise DegenerateVarianceError(f"group {bad} has zero variance")
    w = n / variances
    w_total = w.sum()
    mean_w = float((w * means).sum() / w_total)
    between = float((w * (means - mean_w) ** 2).sum() / (k - 1))
    spread = float((((1.0 - w / w_total) ** 2) / (n - 1.0)).sum() / (k**2 - 1.0))
    stat = between / (1.0 + 2.0 * (k - 2.0) * spread)
    df2 = 1.0 / (3.0 * spread)
    return TestResult(statistic=float(stat), df1=float(k - 1), df2=df2, p_value=float(special.fdtrc(k - 1, df2, stat)))


def bonferroni(p_values, m: int) -> list[float]:
    """Familywise-corrected p-values: min(1, m * p) for a family of m tests; NaN stays NaN."""
    p_values = list(p_values)
    if m < len(p_values):
        raise ValueError(f"family size {m} is smaller than the {len(p_values)} tests given")
    return [float(np.minimum(1.0, m * float(p))) for p in p_values]


def cohens_d(a, b) -> float:
    """Standardized mean difference over the df-weighted pooled standard
    deviation, the convention reported alongside Welch tests."""
    a = _clean_group(a, "a")
    b = _clean_group(b, "b")
    var_a = float(np.var(a, ddof=1))
    var_b = float(np.var(b, ddof=1))
    denom2 = ((a.size - 1) * var_a + (b.size - 1) * var_b) / (a.size + b.size - 2)
    if denom2 <= 0.0:
        raise DegenerateVarianceError("pooled variance is zero")
    return float((np.mean(a) - np.mean(b)) / np.sqrt(denom2))


def confidence_interval(values, level: float = 0.95) -> tuple[float, float]:
    """t-based confidence interval for the mean: mean +/- t * s / sqrt(n)."""
    from scipy import special

    values = _clean_group(values, "values")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1))
    half = special.stdtrit(values.size - 1, 0.5 + level / 2.0) * sd / np.sqrt(values.size)
    return (float(mean - half), float(mean + half))
