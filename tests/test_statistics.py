"""compute_statistics on hand-built metric rows: which tests it runs, which
notes it leaves, and how it corrects each family of pairwise p-values."""

from dataclasses import replace

import numpy as np

from compredict import analysis, pipeline
from compredict.analysis import cohens_d, confidence_interval, welch_anova, welch_t_test
from compredict.io import DEFAULTS
from compredict.metrics import MetricSummary
from compredict.pipeline import METRIC_NAMES, LevelRow, StatRow, compute_statistics

SUBJECTS = ("s0", "s1", "s2", "s3")
HORIZONS = (125.0, 250.0, 375.0, 500.0)
PROFILES = ("zero", "const", "cubic", "oracle")
CONFIG = replace(DEFAULTS, horizons_ms=HORIZONS, profiles=PROFILES)


def spread_values(offset):
    """(profile, horizon) -> one ae value per subject, in SUBJECTS order:
    profile k sits k * offset above zero, with noise between subjects."""
    rng = np.random.default_rng(3)
    return {
        (p, t): (k * offset + t / 1000.0 + rng.normal(0.0, 0.05, len(SUBJECTS))).tolist()
        for k, p in enumerate(PROFILES)
        for t in HORIZONS
    }


def metric_rows(ae):
    """A row per subject and (profile, horizon) key of ae, subjects in reverse
    order; me is twice ae and there are no direction accuracies."""
    return [
        MetricSummary(subject, profile, t_ms, value, 2.0 * value, None, None)
        for (profile, t_ms), values in ae.items()
        for subject, value in reversed(list(zip(SUBJECTS, values)))
    ]


def test_compute_statistics_notes_too_few_subjects_and_levels():
    ae = spread_values(0.1)
    alone = [r for r in metric_rows(ae) if r.subject_id == "s0"]
    assert compute_statistics(alone, CONFIG) == (
        [],
        [],
        [],
        ["insufficient subjects for inference (n < 2); statistics skipped"],
    )

    # oracle at 500 ms has one subject, so no level there; const at 125 ms has three
    ae[("oracle", 500.0)] = ae[("oracle", 500.0)][:1]
    ae[("const", 125.0)] = ae[("const", 125.0)][:3]
    fits, levels, stats, notes = compute_statistics(metric_rows(ae), CONFIG)
    assert notes == [
        f"{m}/{p}: too few horizon levels for trend fits"
        for m in METRIC_NAMES
        for p in PROFILES
        if m in ("ada", "mda") or p == "oracle"
    ]
    assert {(r.metric, r.profile) for r in fits} == {(m, p) for m in ("ae", "me") for p in PROFILES[:3]}
    assert [(r.metric, r.profile, r.horizon_ms, r.n) for r in levels] == [
        (m, p, t, 3 if (p, t) == ("const", 125.0) else 4)
        for m in ("ae", "me")
        for p in PROFILES
        for t in HORIZONS
        if (p, t) != ("oracle", 500.0)
    ]
    values = ae[("cubic", 250.0)]
    assert LevelRow("ae", "cubic", 250.0, float(np.mean(values)), *confidence_interval(values), 4) in levels
    trends = [r.comparison for r in stats if r.horizon_ms is None and r.metric == "ae"]
    assert trends[0] == "zero:cubic-vs-quadratic" and not any(c.startswith("oracle:") for c in trends)


def test_compute_statistics_gates_pairwise_tests_on_the_anova():
    ae = spread_values(0.02)
    ae[("zero", 250.0)] = [1.0] * len(SUBJECTS)  # no variance: a degenerate ANOVA at 250 ms
    rows = metric_rows(ae)
    p_value = welch_anova([ae[(p, 125.0)] for p in PROFILES]).p_value
    assert 0.0 < p_value < 1.0
    for alpha, pairs in ((float(np.nextafter(p_value, 0.0)), 0), (p_value, 6)):
        _, _, stats, _ = compute_statistics(rows, replace(CONFIG, alpha=alpha))
        at_125 = [r for r in stats if r.metric == "ae" and r.horizon_ms == 125.0]
        assert at_125[0].comparison == "anova" and at_125[0].p_value == p_value
        assert len(at_125) == 1 + pairs
        assert [r for r in stats if r.metric == "ae" and r.horizon_ms == 250.0] == [
            StatRow("ae", 250.0, "anova", None, None, None, None, note="group 0 has zero variance")
        ]


def test_compute_statistics_runs_no_pairwise_tests_after_a_nan_anova():
    # zero's squared deviations overflow, so both ANOVAs (ae, and me at twice
    # ae) have a NaN statistic and p-value: no main effect to follow up
    ae = {("zero", 125.0): [1e200, -1e200, 3e199], ("const", 125.0): [1.0, 2.0, 3.5], ("cubic", 125.0): [1.5, 2.5, 2.0]}
    config = replace(CONFIG, horizons_ms=(125.0,), profiles=("zero", "const", "cubic"))
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, stats, _ = compute_statistics(metric_rows(ae), config)
    assert [(r.metric, r.comparison) for r in stats] == [("ae", "anova"), ("me", "anova")]
    assert all(np.isnan(r.statistic) and np.isnan(r.p_value) for r in stats)


def pairwise_row(ae, t_ms, a, b, m):
    test = welch_t_test(ae[(a, t_ms)], ae[(b, t_ms)])
    return StatRow(
        "ae",
        t_ms,
        f"{a}-{b}",
        test.statistic,
        test.df1,
        test.df2,
        test.p_value,
        adjusted_p=min(1.0, m * test.p_value),
        effect_size=cohens_d(ae[(a, t_ms)], ae[(b, t_ms)]),
    )


def test_compute_statistics_corrects_each_pairwise_family_on_its_own(monkeypatch):
    # every ANOVA passes, so zero and const, both without variance at 250 ms,
    # reach a pairwise test
    monkeypatch.setattr(pipeline, "welch_anova", lambda groups: analysis.TestResult(5.0, 3.0, 6.0, 1e-4))
    ae = spread_values(1.0)
    ae[("zero", 250.0)], ae[("const", 250.0)] = [1.0] * len(SUBJECTS), [2.0] * len(SUBJECTS)
    # at 375 ms only zero and oracle have two subjects: one oracle pair, no plain pair
    ae[("const", 375.0)], ae[("cubic", 375.0)] = ae[("const", 375.0)][:1], ae[("cubic", 375.0)][:1]
    _, _, stats, _ = compute_statistics(metric_rows(ae), CONFIG)

    anova = [StatRow("ae", t, "anova", 5.0, 3.0, 6.0, 1e-4) for t in (250.0, 375.0)]
    # m is each family's own size, the untested zero-const pair included
    plain_250, oracle_250, oracle_375 = 3, 3, 1
    assert [r for r in stats if r.metric == "ae" and r.horizon_ms in (250.0, 375.0)] == [
        anova[0],
        StatRow("ae", 250.0, "zero-const", None, None, None, None, note="both samples have zero variance"),
        pairwise_row(ae, 250.0, "zero", "cubic", plain_250),
        pairwise_row(ae, 250.0, "const", "cubic", plain_250),
        pairwise_row(ae, 250.0, "oracle", "zero", oracle_250),
        pairwise_row(ae, 250.0, "oracle", "const", oracle_250),
        pairwise_row(ae, 250.0, "oracle", "cubic", oracle_250),
        anova[1],
        pairwise_row(ae, 375.0, "oracle", "zero", oracle_375),
    ]
