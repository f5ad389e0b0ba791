import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from compredict.prediction import Trial, TrialTooShortError, _sweep_arrays, sweep_errors
from compredict.profiles import HorizonSpec, ProfileKind, generate_profile
from compredict.synth import SyntheticSpec, constant_discrepancy_spec, make_trial

from oracles import brute_force_trajectory, direction_score

DT = 0.005


def coasting_trial(n=200, v0=(0.4, -0.2, 0.1)):
    """Zero true acceleration: position moves on a straight line."""
    spec = SyntheticSpec(kind="constant_acceleration", duration=(n - 1) * DT, dt=DT, accel=0.0,
                         initial_velocity=np.array(v0))
    return make_trial(spec)


def test_zero_profile_is_exact_on_coasting_motion():
    trial = coasting_trial()
    spec = HorizonSpec.from_duration(125, DT)
    errors, _ = sweep_errors(trial, spec, ProfileKind.ZERO)
    assert np.all(errors <= 1e-12)


def test_zero_profile_error_matches_constant_discrepancy_closed_form():
    c = 1.3
    trial = make_trial(constant_discrepancy_spec(c, duration=0.8))
    spec = HorizonSpec.from_duration(250, DT)
    k = np.arange(1, spec.n_samples + 1)
    expected = 0.5 * (k - 1) ** 2 * DT * DT * c
    errors, _ = sweep_errors(trial, spec, ProfileKind.ZERO)
    for series in errors:
        assert series[0] == 0.0
        assert_allclose(series[1:], expected[1:], rtol=1e-9)


def test_zero_profile_error_matches_brute_force():
    c = 0.9
    trial = make_trial(constant_discrepancy_spec(c, duration=0.8))
    spec = HorizonSpec.from_duration(125, DT)
    errors, _ = sweep_errors(trial, spec, ProfileKind.ZERO)
    p0, v0 = trial.positions[17, 0], trial.velocities[17, 0]
    pred_ps, _ = brute_force_trajectory(p0, v0, [0.0] * (spec.n_samples - 1), DT)
    ref_ps = trial.positions[17 : 17 + spec.n_samples, 0]
    expected = np.abs(np.asarray(pred_ps) - ref_ps)
    assert_allclose(errors[17], expected, rtol=1e-12, atol=1e-15)


def test_oracle_and_cubic_match_brute_force():
    trial = make_trial(SyntheticSpec(kind="sinusoid", duration=0.8, dt=DT, amplitude=1.5))
    spec = HorizonSpec.from_duration(250, DT)
    start = 23
    for kind in (ProfileKind.ORACLE, ProfileKind.CUBIC, ProfileKind.CONST):
        predicted, _, _ = _sweep_arrays(trial, spec, kind, np.array([start]))
        future = trial.accel_inputs[start : start + spec.n_samples]
        profile = generate_profile(kind, trial.accel_inputs[start], spec, measured_future=future)
        for axis in range(3):
            pred_ps, _ = brute_force_trajectory(
                trial.positions[start, axis],
                trial.velocities[start, axis],
                profile[: spec.n_samples - 1, axis],
                DT,
            )
            assert_allclose(predicted[0, :, axis], pred_ps, rtol=1e-12, atol=1e-15)


def test_oracle_profile_reproduces_model_consistent_reference():
    spec_gen = SyntheticSpec(kind="sinusoid", duration=1.0, dt=DT, amplitude=1.2, frequency_hz=1.5)
    trial = make_trial(spec_gen)
    for t_ms in (125, 250, 375, 500, 625):
        hspec = HorizonSpec.from_duration(t_ms, DT)
        errors, _ = sweep_errors(trial, hspec, ProfileKind.ORACLE)
        assert np.all(errors <= 1e-12)


def test_error_series_starts_at_zero_for_every_profile():
    trial = make_trial(SyntheticSpec(kind="sinusoid", duration=0.8, dt=DT, amplitude=2.0))
    hspec = HorizonSpec.from_duration(125, DT)
    for kind in ProfileKind:
        errors, _ = sweep_errors(trial, hspec, kind)
        assert np.all(errors[:, 0] == 0.0)


def test_constant_discrepancy_error_is_strictly_increasing():
    trial = make_trial(constant_discrepancy_spec(1.0, duration=0.8))
    hspec = HorizonSpec.from_duration(375, DT)
    errors, _ = sweep_errors(trial, hspec, ProfileKind.ZERO)
    assert np.all(np.diff(errors[0, 1:]) > 0.0)


def test_sweep_start_count():
    trial = coasting_trial(n=200)
    errors, scores = sweep_errors(trial, HorizonSpec.from_duration(125, DT), ProfileKind.ZERO)
    assert len(errors) == len(scores) == 175
    # a trial exactly one horizon long yields a single start, at sample 0
    trial = coasting_trial(n=26)
    hspec = HorizonSpec.from_duration(125, DT)
    errors, _ = sweep_errors(trial, hspec, ProfileKind.ZERO)
    assert len(errors) == 1
    assert_array_equal(errors, _sweep_arrays(trial, hspec, ProfileKind.ZERO, np.array([0]))[1])


def test_sweep_too_short_names_trial_and_horizon():
    trial = coasting_trial(n=25)
    with pytest.raises(TrialTooShortError) as err:
        sweep_errors(trial, HorizonSpec.from_duration(125, DT), ProfileKind.ZERO)
    message = str(err.value)
    assert "s00" in message and "125" in message


def test_sweep_stride():
    trial = make_trial(SyntheticSpec(kind="sinusoid", duration=59 * DT, dt=DT, amplitude=1.0))
    hspec = HorizonSpec.from_duration(125, DT)
    errors, scores = sweep_errors(trial, hspec, ProfileKind.ZERO, stride=7)
    # row i is the horizon starting at sample 7 * i
    _, expected, expected_scores = _sweep_arrays(
        trial, hspec, ProfileKind.ZERO, np.array([0, 7, 14, 21, 28])
    )
    assert_array_equal(errors, expected)
    assert_array_equal(scores, expected_scores)
    with pytest.raises(ValueError):
        sweep_errors(trial, hspec, ProfileKind.ZERO, stride=0)


def test_sweep_equals_per_start_prediction_bitwise():
    trial = make_trial(SyntheticSpec(kind="sinusoid", duration=0.7, dt=DT, amplitude=1.0))
    hspec = HorizonSpec.from_duration(250, DT)
    for kind in ProfileKind:
        errors, scores = sweep_errors(trial, hspec, kind)
        predicted, _, _ = _sweep_arrays(trial, hspec, kind, np.arange(len(errors)))
        for start in range(len(errors)):
            single = _sweep_arrays(trial, hspec, kind, np.array([start]))
            assert_array_equal(predicted[start], single[0][0])
            assert_array_equal(errors[start], single[1][0])
            assert scores[start] == single[2][0]


def test_sweep_is_deterministic_across_calls():
    trial = make_trial(SyntheticSpec(kind="sinusoid", duration=0.7, dt=DT, amplitude=1.0))
    hspec = HorizonSpec.from_duration(125, DT)
    first, _ = sweep_errors(trial, hspec, ProfileKind.CUBIC)
    second, _ = sweep_errors(trial, hspec, ProfileKind.CUBIC)
    assert_array_equal(first, second)


def test_profiles_collapse_when_measured_acceleration_is_zero():
    trial = coasting_trial()
    hspec = HorizonSpec.from_duration(125, DT)
    starts = np.arange(trial.n_samples - hspec.n_samples + 1)
    zero = _sweep_arrays(trial, hspec, ProfileKind.ZERO, starts)
    const = _sweep_arrays(trial, hspec, ProfileKind.CONST, starts)
    cubic = _sweep_arrays(trial, hspec, ProfileKind.CUBIC, starts)
    for a, b, c in zip(zero, const, cubic):
        # predicted positions, error series and direction scores in turn
        assert_array_equal(a, b)
        assert_array_equal(a, c)


def test_sweep_errors_dt_check():
    trial = coasting_trial(n=50)
    wrong_dt = HorizonSpec.from_duration(125, 0.0025)
    with pytest.raises(ValueError):
        sweep_errors(trial, wrong_dt, ProfileKind.ZERO)


TWO_SAMPLES = HorizonSpec(horizon_ms=5.0, dt=DT, n_samples=2)


def _two_point_score(ref_disp, pred_disp):
    """Direction score of the one two-sample horizon of a trial that moves
    by ref_disp; under the zero profile the initial velocity alone sets the
    predicted displacement, dt * v0 = pred_disp."""
    trial = Trial(
        subject_id="s",
        activity_id="a",
        repeat_index=0,
        is_static=False,
        mass=70.0,
        dt=DT,
        positions=np.vstack([np.zeros(3), np.asarray(ref_disp, dtype=float)]),
        velocities=np.vstack([np.asarray(pred_disp, dtype=float) / DT, np.zeros(3)]),
        accel_inputs=np.zeros((2, 3)),
    )
    _, scores = sweep_errors(trial, TWO_SAMPLES, ProfileKind.ZERO)
    assert len(scores) == 1
    return int(scores[0])


def test_direction_score_sign_agreement():
    assert _two_point_score([0.05, 0.0, 0.0], [0.002, 0.0, 0.0]) == 1
    assert _two_point_score([0.05, 0.0, 0.0], [-0.002, 0.0, 0.0]) == 0


def test_direction_score_uses_largest_reference_axis():
    # X has the largest reference displacement; both move +X
    assert _two_point_score([0.03, 0.01, -0.005], [0.02, -0.02, 0.01]) == 1


def test_direction_score_zero_displacement_convention():
    # sign(0) == sign(0) counts as agreement; sign(+) != sign(0) does not
    assert _two_point_score([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == 1
    assert _two_point_score([0.0, 0.0, 0.0], [0.01, 0.0, 0.0]) == 0


def test_sweep_kernel_matches_brute_force_on_random_trials():
    # randomized cross-check of the closed-form response against plain
    # sequential integration, all profiles, arbitrary inputs
    rng = np.random.default_rng(99)
    for trial_round in range(5):
        n = int(rng.integers(40, 90))
        trial = Trial(
            subject_id="s",
            activity_id=f"rand{trial_round}",
            repeat_index=0,
            is_static=False,
            mass=70.0,
            dt=DT,
            positions=rng.normal(size=(n, 3)),
            velocities=rng.normal(size=(n, 3)),
            accel_inputs=rng.normal(size=(n, 3)) * 3.0,
        )
        hspec = HorizonSpec.from_duration(125, DT)
        starts = np.arange(n - hspec.n_samples + 1)
        for kind in ProfileKind:
            predicted, _, _ = _sweep_arrays(trial, hspec, kind, starts)
            start = int(rng.integers(0, len(starts)))
            future = trial.accel_inputs[start : start + hspec.n_samples]
            profile = generate_profile(
                kind, trial.accel_inputs[start], hspec, measured_future=future
            )
            for axis in range(3):
                expected, _ = brute_force_trajectory(
                    trial.positions[start, axis],
                    trial.velocities[start, axis],
                    profile[: hspec.n_samples - 1, axis],
                    DT,
                )
                assert_allclose(predicted[start, :, axis], expected, rtol=1e-11, atol=1e-13)


def test_sweep_scores_agree_with_direction_score_function():
    trial = make_trial(
        SyntheticSpec(
            kind="piecewise_constant",
            duration=1.0,
            dt=DT,
            segments=((0.4, 1.0), (0.6, -1.0)),
        )
    )
    hspec = HorizonSpec.from_duration(250, DT)
    n = hspec.n_samples
    for kind in (ProfileKind.ZERO, ProfileKind.CUBIC):
        _, scores = sweep_errors(trial, hspec, kind)
        predicted, _, _ = _sweep_arrays(trial, hspec, kind, np.arange(len(scores)))
        for start, score in enumerate(scores):
            recomputed = direction_score(trial.positions[start : start + n], predicted[start])
            assert score == recomputed


def test_trial_validation():
    with pytest.raises(ValueError):
        Trial(
            subject_id="s",
            activity_id="a",
            repeat_index=0,
            is_static=False,
            mass=70.0,
            dt=DT,
            positions=np.zeros((5, 3)),
            velocities=np.zeros((4, 3)),
            accel_inputs=np.zeros((5, 3)),
        )
    with pytest.raises(ValueError):
        Trial(
            subject_id="s",
            activity_id="a",
            repeat_index=0,
            is_static=False,
            mass=-1.0,
            dt=DT,
            positions=np.zeros((5, 3)),
            velocities=np.zeros((5, 3)),
            accel_inputs=np.zeros((5, 3)),
        )
