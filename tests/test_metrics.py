import numpy as np
import pytest

from compredict.metrics import Outcome, summarize
from compredict.prediction import sweep_errors
from compredict.profiles import HorizonSpec, ProfileKind
from compredict.synth import SyntheticSpec, make_trial

from oracles import expected_me


def outcome(activity, repeat, errors=(), scores=(), is_static=False):
    """A trial's Outcome from its per-horizon error series (one array per
    horizon) and per-horizon 0/1 scores; either may be left out, and then
    reads as zeros over the other's horizons."""
    errors = list(errors) or [np.zeros(1)] * len(scores)
    scores = list(scores) or [0] * len(errors)
    assert len(errors) == len(scores)
    means = [np.mean(s) for s in errors]
    peak = max(float(np.max(s)) for s in errors)
    return Outcome(activity, repeat, is_static, len(means), float(np.sum(means)), peak, float(np.sum(scores)))


def summary(outcomes):
    return summarize("s01", "zero", 125.0, outcomes)


def test_average_error_single_horizon():
    outcomes = [outcome("walk", 0, [np.array([0.0, 1e-3, 2e-3])])]
    assert summary(outcomes).ae == pytest.approx(1e-3, rel=1e-12)


def test_average_error_weighs_activities_equally():
    # activity means 1 mm and 3 mm with very different horizon counts
    outcomes = [outcome("short", 0, [np.array([1e-3])]), outcome("long", 0, [np.array([3e-3])] * 50)]
    assert summary(outcomes).ae == pytest.approx(2e-3, rel=1e-12)


def test_average_error_all_zero():
    outcomes = [outcome("a", 0, [np.zeros(5), np.zeros(7)]), outcome("a", 1, [np.zeros(3)])]
    assert summary(outcomes).ae == 0.0


def test_max_error_over_everything():
    outcomes = [outcome("a", 0, [np.array([0.0, 1e-3, 2e-3]), np.array([0.0, 5e-3, 1e-3])])]
    assert summary(outcomes).me == pytest.approx(5e-3)


def test_max_error_matches_constant_discrepancy_closed_form():
    trial = make_trial(SyntheticSpec(kind="constant_acceleration", accel=1.0, duration=0.8, dt=0.005))
    hspec = HorizonSpec.from_duration(125, 0.005)
    errors, _ = sweep_errors(trial, hspec, ProfileKind.ZERO)
    me = summary([outcome("synthetic", 0, errors)]).me
    # 0.5 * 25^2 * 0.005^2 * 1.0
    assert me == pytest.approx(expected_me(26, 0.005, 1.0), rel=1e-12)
    assert me == pytest.approx(7.8125e-3, rel=1e-12)


def test_single_sample_horizons_have_zero_error():
    outcomes = [outcome("a", 0, [np.array([0.0]), np.array([0.0])])]
    assert summary(outcomes).me == 0.0


def test_direction_accuracy_mean_of_means():
    outcomes = [
        outcome("a", 0, scores=[1, 1, 1, 1]),  # mean 1.0
        outcome("a", 1, scores=[1, 0, 1, 0]),  # mean 0.5
        outcome("a", 2, scores=[1, 1, 1, 0]),  # mean 0.75
    ]
    assert summary(outcomes).ada == pytest.approx(0.75)


def test_direction_accuracy_all_correct():
    row = summary([outcome("a", 0, scores=[1, 1]), outcome("b", 0, scores=[1, 1, 1])])
    assert row.ada == 1.0
    assert row.mda == 1.0


def test_min_direction_accuracy_examples():
    outcomes = [
        outcome("a", 0, scores=[1, 1]),
        outcome("a", 1, scores=[1, 0, 1, 0, 1, 0, 1, 0, 1, 1]),
        outcome("a", 2, scores=[1, 0, 0, 0, 1]),
    ]
    # repeat means 1.0, 0.6, 0.4
    assert summary(outcomes).mda == pytest.approx(0.4)
    outcomes = [
        outcome("a", 0, scores=[1]),
        outcome("a", 1, scores=[1]),
        outcome("b", 0, scores=[1, 1, 0, 1, 0]),
        outcome("b", 1, scores=[1, 1, 0, 0, 1]),
    ]
    # repeat means 1.0, 1.0, 0.6, 0.6
    assert summary(outcomes).mda == pytest.approx(0.6)


def test_empty_groups_raise_named_level():
    with pytest.raises(ValueError, match="no trials"):
        summary([])


def _random_outcomes(rng):
    outcomes = []
    for a in range(rng.integers(1, 4)):
        for r in range(rng.integers(1, 4)):
            horizons = rng.integers(1, 6)
            errors = [np.abs(rng.normal(size=rng.integers(1, 9))) for _ in range(horizons)]
            outcomes.append(outcome(f"act{a}", r, errors, rng.integers(0, 2, size=horizons)))
    return outcomes


def test_metric_orderings_on_random_bundles():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        row = summary(_random_outcomes(rng))
        assert 0.0 <= row.ae <= row.me
        assert 0.0 <= row.mda <= row.ada <= 1.0


def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    outcomes = _random_outcomes(rng)
    row = summary(outcomes)
    renamed = [o._replace(activity_id=f"renamed_{o.activity_id}") for o in outcomes]
    assert summary(renamed) == row
    # reversing repeat indices only permutes the inner means
    last = {}
    for o in outcomes:
        last[o.activity_id] = max(last.get(o.activity_id, 0), o.repeat_index)
    flipped = [o._replace(repeat_index=last[o.activity_id] - o.repeat_index) for o in outcomes]
    assert summary(flipped).ae == row.ae


def test_summarize_sorts_outcomes_by_activity_and_repeat():
    rng = np.random.default_rng(11)
    for _ in range(50):
        outcomes = _random_outcomes(rng)
        row = summary(outcomes)
        for _ in range(3):
            shuffled = [outcomes[i] for i in rng.permutation(len(outcomes))]
            assert summary(shuffled) == row


def test_summarize_builds_metric_row():
    row = summary([outcome("a", 0, [np.array([0.0, 2e-3])] * 2, [1, 0])])
    assert row.subject_id == "s01"
    assert row.profile == "zero"
    assert row.ae == pytest.approx(1e-3)
    assert row.me == pytest.approx(2e-3)
    assert row.ada == pytest.approx(0.5)
    assert row.mda == pytest.approx(0.5)
    assert row.ae <= row.me and row.mda <= row.ada


def test_summarize_static_only_subject_has_no_direction_metrics():
    row = summary([outcome("a", 0, [np.array([0.0, 1e-3])], [1], is_static=True)])
    assert row.ae == pytest.approx(5e-4)
    assert row.ada is None and row.mda is None


def test_summarize_static_trials_count_toward_errors_only():
    static = outcome("rest", 0, [np.array([9e-3])], is_static=True)
    moving = outcome("walk", 0, [np.array([1e-3]), np.array([1e-3])], [1, 0])
    row = summary([static, moving])
    assert row.ae == pytest.approx(5e-3)
    assert row.me == pytest.approx(9e-3)
    assert row.ada == pytest.approx(0.5)
    assert row.mda == pytest.approx(0.5)


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
        activity_ae, activity_ada, worst, repeat_ada = [], [], 0.0, []
        for activity in sorted(matrices):
            repeat_ae, this_ada = [], []
            for r in sorted(matrices[activity]):
                horizon_means = []
                for series in matrices[activity][r]:
                    horizon_means.append(float(np.mean(series)))
                    for value in series:
                        worst = max(worst, float(value))
                repeat_ae.append(float(np.mean(horizon_means)))
                mean_score = float(np.mean([float(x) for x in scores[activity][r]]))
                this_ada.append(mean_score)
                repeat_ada.append(mean_score)
            activity_ae.append(float(np.mean(repeat_ae)))
            activity_ada.append(float(np.mean(this_ada)))

        # as the pipeline reduces a trial: row sums of the (h, n) matrix's means
        outcomes = [
            Outcome(a, r, False, len(m), float(m.mean(axis=1).sum()), float(m.max()), float(scores[a][r].sum()))
            for a, reps in matrices.items()
            for r, m in reps.items()
        ]
        row = summary(outcomes)
        assert row.ae == float(np.mean(activity_ae))
        assert row.me == worst
        assert row.ada == float(np.mean(activity_ada))
        assert row.mda == min(repeat_ada)
