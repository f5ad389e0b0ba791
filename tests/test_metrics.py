import numpy as np
import pytest

from compredict.metrics import (
    AggregationError,
    Tally,
    average_direction_accuracy,
    average_error,
    max_error,
    min_direction_accuracy,
    pooled_average_error,
    summarize,
)
from compredict.prediction import sweep_errors
from compredict.profiles import HorizonSpec, ProfileKind
from compredict.synth import SyntheticSpec, make_trial

from oracles import expected_me


def tally(values):
    """A trial's per-horizon values as the metrics take them."""
    return Tally(float(np.sum(values)), len(values))


def _means(grouped_series):
    """{activity: {repeat: [per-sample error series]}} reduced to what the
    metrics take: per trial, a tally of its per-horizon mean errors."""
    return {
        activity: {r: tally([np.mean(s) for s in series]) for r, series in repeats.items()}
        for activity, repeats in grouped_series.items()
    }


def _maxima(grouped_series):
    """The same series reduced to each trial's max error."""
    return {
        activity: {r: max(float(np.max(s)) for s in series) for r, series in repeats.items()}
        for activity, repeats in grouped_series.items()
    }


def _tallies(grouped_scores):
    """{activity: {repeat: per-horizon scores}} as per-trial tallies."""
    return {activity: {r: tally(v) for r, v in repeats.items()} for activity, repeats in grouped_scores.items()}


def test_average_error_single_horizon():
    grouped = {"walk": {0: [np.array([0.0, 1e-3, 2e-3])]}}
    assert average_error(_means(grouped)) == pytest.approx(1e-3, rel=1e-12)


def test_average_error_weighs_activities_equally():
    # activity means 1 mm and 3 mm with very different horizon counts
    grouped = {
        "short": {0: [np.array([1e-3])]},
        "long": {0: [np.array([3e-3])] * 50},
    }
    assert average_error(_means(grouped)) == pytest.approx(2e-3, rel=1e-12)
    # a pooled mean is dominated by the long activity instead
    assert pooled_average_error(_means(grouped)) == pytest.approx((1e-3 + 50 * 3e-3) / 51, rel=1e-12)


def test_average_error_all_zero():
    grouped = {"a": {0: [np.zeros(5), np.zeros(7)], 1: [np.zeros(3)]}}
    assert average_error(_means(grouped)) == 0.0


def test_max_error_over_everything():
    grouped = {
        "a": {0: [np.array([0.0, 1e-3, 2e-3]), np.array([0.0, 5e-3, 1e-3])]},
    }
    assert max_error(_maxima(grouped)) == pytest.approx(5e-3)


def test_max_error_matches_constant_discrepancy_closed_form():
    trial = make_trial(SyntheticSpec(kind="constant_acceleration", accel=1.0, duration=0.8, dt=0.005))
    hspec = HorizonSpec.from_duration(125, 0.005)
    errors, _ = sweep_errors(trial, hspec, ProfileKind.ZERO)
    grouped = {"synthetic": {0: float(errors.max())}}
    # 0.5 * 25^2 * 0.005^2 * 1.0
    assert max_error(grouped) == pytest.approx(expected_me(26, 0.005, 1.0), rel=1e-12)
    assert max_error(grouped) == pytest.approx(7.8125e-3, rel=1e-12)


def test_single_sample_horizons_have_zero_error():
    grouped = {"a": {0: [np.array([0.0]), np.array([0.0])]}}
    assert max_error(_maxima(grouped)) == 0.0


def test_direction_accuracy_mean_of_means():
    grouped = {
        "a": {
            0: [1, 1, 1, 1],          # mean 1.0
            1: [1, 0, 1, 0],          # mean 0.5
            2: [1, 1, 1, 0],          # mean 0.75
        }
    }
    assert average_direction_accuracy(_tallies(grouped)) == pytest.approx(0.75)


def test_direction_accuracy_all_correct():
    grouped = _tallies({"a": {0: [1, 1]}, "b": {0: [1, 1, 1]}})
    assert average_direction_accuracy(grouped) == 1.0
    assert min_direction_accuracy(grouped) == 1.0


def test_min_direction_accuracy_examples():
    grouped = {"a": {0: [1, 1], 1: [1, 0, 1, 0, 1, 0, 1, 0, 1, 1], 2: [1, 0, 0, 0, 1]}}
    # repeat means 1.0, 0.6, 0.4
    assert min_direction_accuracy(_tallies(grouped)) == pytest.approx(0.4)
    grouped = {"a": {0: [1], 1: [1]}, "b": {0: [1, 1, 0, 1, 0], 1: [1, 1, 0, 0, 1]}}
    # repeat means 1.0, 1.0, 0.6, 0.6
    assert min_direction_accuracy(_tallies(grouped)) == pytest.approx(0.6)


def test_empty_groups_raise_named_level():
    with pytest.raises(AggregationError):
        average_error({})
    with pytest.raises(AggregationError, match="walk"):
        average_error({"walk": {}})
    with pytest.raises(AggregationError, match="repeat 1"):
        average_error({"walk": {1: tally([])}})
    with pytest.raises(AggregationError):
        average_direction_accuracy({})


def _random_grouped(rng):
    grouped_errors = {}
    grouped_scores = {}
    for a in range(rng.integers(1, 4)):
        activity = f"act{a}"
        grouped_errors[activity] = {}
        grouped_scores[activity] = {}
        for r in range(rng.integers(1, 4)):
            horizons = rng.integers(1, 6)
            grouped_errors[activity][r] = [
                np.abs(rng.normal(size=rng.integers(1, 9))) for _ in range(horizons)
            ]
            grouped_scores[activity][r] = list(rng.integers(0, 2, size=horizons))
    return grouped_errors, grouped_scores


def test_metric_orderings_on_random_bundles():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        grouped_errors, grouped_scores = _random_grouped(rng)
        ae = average_error(_means(grouped_errors))
        me = max_error(_maxima(grouped_errors))
        ada = average_direction_accuracy(_tallies(grouped_scores))
        mda = min_direction_accuracy(_tallies(grouped_scores))
        assert 0.0 <= ae <= me
        assert 0.0 <= mda <= ada <= 1.0


def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    grouped_errors, grouped_scores = _random_grouped(rng)
    renamed_errors = {f"renamed_{k}": v for k, v in grouped_errors.items()}
    grouped_scores = _tallies(grouped_scores)
    renamed_scores = {f"renamed_{k}": v for k, v in grouped_scores.items()}
    assert average_error(_means(grouped_errors)) == average_error(_means(renamed_errors))
    assert max_error(_maxima(grouped_errors)) == max_error(_maxima(renamed_errors))
    assert average_direction_accuracy(grouped_scores) == average_direction_accuracy(renamed_scores)
    assert min_direction_accuracy(grouped_scores) == min_direction_accuracy(renamed_scores)
    # reversing repeat indices only permutes the inner means
    flipped = {
        k: {max(v) - r: series for r, series in v.items()} for k, v in grouped_errors.items()
    }
    assert average_error(_means(grouped_errors)) == average_error(_means(flipped))


def test_summarize_builds_metric_row():
    grouped_errors = {"a": {0: [np.array([0.0, 2e-3])]}}
    grouped_scores = _tallies({"a": {0: [1, 0]}})
    row = summarize(
        "s01", "zero", 125.0, _means(grouped_errors), _maxima(grouped_errors), grouped_scores
    )
    assert row.subject_id == "s01"
    assert row.profile == "zero"
    assert row.ae == pytest.approx(1e-3)
    assert row.me == pytest.approx(2e-3)
    assert row.ada == pytest.approx(0.5)
    assert row.mda == pytest.approx(0.5)
    assert row.ae <= row.me and row.mda <= row.ada


def test_summarize_static_only_subject_has_no_direction_metrics():
    grouped_errors = {"a": {0: [np.array([0.0, 1e-3])]}}
    row = summarize("s01", "zero", 125.0, _means(grouped_errors), _maxima(grouped_errors), {})
    assert row.ada is None and row.mda is None


def test_summarize_pooled_mode():
    grouped_errors = {
        "short": {0: [np.array([1e-3])]},
        "long": {0: [np.array([3e-3])] * 50},
    }
    means, maxima = _means(grouped_errors), _maxima(grouped_errors)
    row = summarize("s01", "zero", 125.0, means, maxima, {}, aggregation="pooled")
    assert row.ae == pytest.approx((1e-3 + 50 * 3e-3) / 51, rel=1e-12)
    with pytest.raises(ValueError):
        summarize("s01", "zero", 125.0, means, maxima, {}, aggregation="median")


def test_summarize_from_per_horizon_values_equals_per_sample_definition():
    # One subject at one horizon length: every horizon has the same number
    # of samples n, while activities, repeats and horizon counts are ragged.
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 140))
        matrices, scores = {}, {}
        for a in range(rng.integers(1, 5)):
            activity = f"act{a}"
            matrices[activity], scores[activity] = {}, {}
            for r in range(rng.integers(1, 4)):
                h = int(rng.integers(1, 30))
                matrices[activity][r] = np.abs(rng.normal(size=(h, n)))
                scores[activity][r] = rng.integers(0, 2, size=h)

        # the per-sample definition: sample -> horizon -> repeat -> activity
        activity_ae, activity_ada, worst, repeat_ada, samples = [], [], 0.0, [], []
        for activity in sorted(matrices):
            repeat_ae, this_ada = [], []
            for r in sorted(matrices[activity]):
                horizon_means = []
                for series in matrices[activity][r]:
                    horizon_means.append(float(np.mean(series)))
                    for value in series:
                        worst = max(worst, float(value))
                        samples.append(float(value))
                repeat_ae.append(float(np.mean(horizon_means)))
                mean_score = float(np.mean([float(x) for x in scores[activity][r]]))
                this_ada.append(mean_score)
                repeat_ada.append(mean_score)
            activity_ae.append(float(np.mean(repeat_ae)))
            activity_ada.append(float(np.mean(this_ada)))

        means = {a: {r: tally(m.mean(axis=1)) for r, m in reps.items()} for a, reps in matrices.items()}
        maxima = {a: {r: float(m.max()) for r, m in reps.items()} for a, reps in matrices.items()}
        scores = _tallies(scores)
        row = summarize("s01", "zero", 125.0, means, maxima, scores)
        assert row.ae == float(np.mean(activity_ae))
        assert row.me == worst
        assert row.ada == float(np.mean(activity_ada))
        assert row.mda == min(repeat_ada)
        pooled = summarize("s01", "zero", 125.0, means, maxima, scores, aggregation="pooled")
        assert pooled.ae == pytest.approx(float(np.mean(samples)), rel=1e-12)
