import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from compredict.io import RunConfig
from compredict.pipeline import run_pipeline
from compredict.prediction import sweep_errors
from compredict.profiles import HorizonSpec, ProfileKind
from compredict.synth import (
    SyntheticSpec,
    analytic_error,
    constant_discrepancy_spec,
    expected_ae,
    expected_me,
    make_trial,
    protocol_items,
    sign_reversal_spec,
)

from oracles import brute_force_trajectory

DT = 0.005


def test_make_trial_is_deterministic():
    spec = SyntheticSpec(kind="sinusoid", duration=1.0, dt=DT, amplitude=1.0, noise_amplitude=0.1)
    a = make_trial(spec, seed=42)
    b = make_trial(spec, seed=42)
    assert_array_equal(a.positions, b.positions)
    assert_array_equal(a.velocities, b.velocities)
    assert_array_equal(a.accel_inputs, b.accel_inputs)
    c = make_trial(spec, seed=43)
    assert not np.array_equal(a.accel_inputs, c.accel_inputs)


def test_noise_touches_inputs_only():
    base = SyntheticSpec(kind="sinusoid", duration=1.0, dt=DT, amplitude=1.0)
    noisy = SyntheticSpec(
        kind="sinusoid", duration=1.0, dt=DT, amplitude=1.0, noise_amplitude=0.05
    )
    clean_trial = make_trial(base, seed=1)
    noisy_trial = make_trial(noisy, seed=1)
    assert_array_equal(clean_trial.positions, noisy_trial.positions)
    assert_array_equal(clean_trial.velocities, noisy_trial.velocities)
    deltas = noisy_trial.accel_inputs - clean_trial.accel_inputs
    assert np.max(np.abs(deltas)) <= 0.05
    assert np.max(np.abs(deltas)) > 0.0


def test_zero_acceleration_trial_is_static_for_all_profiles():
    spec = SyntheticSpec(kind="constant_acceleration", duration=0.8, dt=DT, accel=0.0)
    trial = make_trial(spec)
    hspec = HorizonSpec.from_duration(125, DT)
    for kind in ProfileKind:
        errors, _ = sweep_errors(trial, hspec, kind)
        assert np.all(errors <= 1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(kind="brownian", duration=1.0, dt=DT)
    with pytest.raises(ValueError):
        SyntheticSpec(kind="sinusoid", duration=1.0001, dt=DT)
    with pytest.raises(ValueError):
        SyntheticSpec(kind="piecewise_constant", duration=1.0, dt=DT, segments=())
    with pytest.raises(ValueError):
        SyntheticSpec(kind="piecewise_constant", duration=1.0, dt=DT, segments=((-0.5, 1.0),))
    with pytest.raises(ValueError):
        sign_reversal_spec(1.0, t_flip=3.0, duration=2.5)


# ---------------------------------------------------------------------------
# closed-form oracle values


def test_analytic_error_frozen_values():
    assert analytic_error(1, DT, 1.0) == 0.0
    # k=51: 0.5 * 50^2 * 0.005^2 = 1250 * 2.5e-5
    assert_allclose(analytic_error(51, DT, 1.0), 0.03125, rtol=1e-12)
    ks = np.arange(1, 127)
    doubled = np.array([analytic_error(int(k), DT, 2.0) for k in ks])
    single = np.array([analytic_error(int(k), DT, 1.0) for k in ks])
    assert_allclose(doubled, 2.0 * single, rtol=1e-15)
    # vector discrepancies count by their Euclidean norm
    assert_allclose(analytic_error(10, DT, [3.0, 4.0, 0.0]), analytic_error(10, DT, 5.0), rtol=1e-15)


def test_analytic_error_matches_brute_force_propagation():
    c = 1.7
    for k in (2, 3, 10, 51, 126):
        truth, _ = brute_force_trajectory(0.0, 0.0, [c] * (k - 1), DT)
        guess, _ = brute_force_trajectory(0.0, 0.0, [0.0] * (k - 1), DT)
        assert_allclose(abs(guess[-1] - truth[-1]), analytic_error(k, DT, c), rtol=1e-12)


def test_expected_ae_frozen_values():
    # 2.5e-5 * (25 * 51) / 12
    assert_allclose(expected_ae(26, DT, 1.0), 2.65625e-3, rtol=1e-12)
    assert expected_ae(1, DT, 1.0) == 0.0
    ratio = expected_ae(51, DT, 1.0) / expected_ae(26, DT, 1.0)
    assert_allclose(ratio, 5050.0 / 1275.0, rtol=1e-12)


def test_expected_ae_is_mean_of_analytic_error():
    for n in (2, 26, 51, 126):
        mean = np.mean([analytic_error(k, DT, 1.4) for k in range(1, n + 1)])
        assert_allclose(expected_ae(n, DT, 1.4), mean, rtol=1e-12)


def test_expected_me_is_last_sample_error():
    for n in (2, 26, 126):
        assert expected_me(n, DT, 0.7) == analytic_error(n, DT, 0.7)


def test_max_error_occurs_at_horizon_end():
    trial = make_trial(constant_discrepancy_spec(1.0, duration=0.8))
    hspec = HorizonSpec.from_duration(250, DT)
    errors, _ = sweep_errors(trial, hspec, ProfileKind.ZERO)
    assert np.all(np.argmax(errors, axis=1) == hspec.n_samples - 1)


def test_profile_error_ordering_on_constant_discrepancy():
    c = 1.0
    trial = make_trial(constant_discrepancy_spec(c, duration=0.8))
    hspec = HorizonSpec.from_duration(250, DT)
    const = sweep_errors(trial, hspec, ProfileKind.CONST)[0][0]
    cubic = sweep_errors(trial, hspec, ProfileKind.CUBIC)[0][0]
    zero = sweep_errors(trial, hspec, ProfileKind.ZERO)[0][0]
    assert np.all(const <= 1e-12)  # const profile sees the true acceleration
    assert np.all(cubic[2:] > const[2:])
    assert np.all(cubic[2:] < zero[2:])


def test_sinusoid_tracks_continuous_closed_form():
    amplitude, freq = 1.0, 1.0
    omega = 2.0 * np.pi * freq
    errors = {}
    for dt in (0.005, 0.0025):
        spec = SyntheticSpec(kind="sinusoid", duration=2.0, dt=dt, amplitude=amplitude, frequency_hz=freq)
        trial = make_trial(spec)
        t = np.arange(trial.n_samples) * dt
        closed_p = -amplitude / omega**2 * np.sin(omega * t)
        closed_v = -amplitude / omega * np.cos(omega * t)
        errors[dt] = np.max(np.abs(trial.positions[:, 0] - closed_p))
        assert np.max(np.abs(trial.velocities[:, 0] - closed_v)) < 0.6 * dt * dt * omega
        # measured constant is ~0.524 for these parameters
        assert errors[dt] < 0.6 * dt * dt
    # quadratic convergence: halving dt cuts the error by about 4
    assert 3.5 < errors[0.005] / errors[0.0025] < 4.5


def test_piecewise_schedule_realized():
    spec = SyntheticSpec(
        kind="piecewise_constant",
        duration=1.0,
        dt=DT,
        segments=((0.4, 2.0), (0.6, np.array([0.0, -1.0, 0.5]))),
    )
    trial = make_trial(spec)
    # interval midpoints below 0.4 s take the first segment
    assert_array_equal(trial.accel_inputs[0], np.array([2.0, 0.0, 0.0]))
    assert_array_equal(trial.accel_inputs[60], np.array([2.0, 0.0, 0.0]))
    assert_array_equal(trial.accel_inputs[100], np.array([0.0, -1.0, 0.5]))
    assert_array_equal(trial.accel_inputs[-1], np.array([0.0, -1.0, 0.5]))


def test_continuous_truth_mode_leaves_small_mismatch():
    spec = SyntheticSpec(kind="sinusoid", duration=1.0, dt=DT, amplitude=1.0)
    exact = make_trial(spec)
    cont = make_trial(spec, continuous_truth=True)
    gap = np.max(np.abs(exact.positions - cont.positions))
    assert 0.0 < gap < 1e-4
    # the oracle is no longer exact against a continuous-truth reference
    hspec = HorizonSpec.from_duration(125, DT)
    worst = np.max(sweep_errors(cont, hspec, ProfileKind.ORACLE)[0])
    assert 0.0 < worst < 1e-4


def test_horizon_count_nearly_constant_when_trial_is_long():
    # with n >> horizon samples the number of horizon starts barely changes
    spec = SyntheticSpec(kind="constant_acceleration", duration=51.2, dt=DT, accel=0.3)
    trial = make_trial(spec)
    counts = {}
    for t_ms in (125, 250, 375, 500, 625):
        hspec = HorizonSpec.from_duration(t_ms, DT)
        counts[t_ms] = trial.n_samples - hspec.n_samples + 1
    assert (counts[125] - counts[625]) / counts[625] < 0.01


def ae_trend(trials, kind):
    """One profile's full pipeline run over the default horizons: its ae fit
    rows by degree, ae trend tests by comparison, and ae metric rows."""
    bundle = run_pipeline(RunConfig(profiles=(kind.value,)), trials)
    fits = {r.degree: r for r in bundle.fit_rows if r.metric == "ae"}
    tests = {r.comparison: r for r in bundle.stat_rows if r.metric == "ae"}
    assert len(bundle.metric_rows) == 5 * len({t.subject_id for t in trials})
    return fits, tests, bundle.metric_rows


def test_verify_quadratic_trend_passes_on_discrepancy_family():
    # weighted R^2 reflects between/within subject spread, so the per-subject
    # discrepancies sit within ~2% of each other
    trials = [
        make_trial(constant_discrepancy_spec(1.0 + 0.005 * s, duration=1.0), subject_id=f"s{s:02d}")
        for s in range(10)
    ]
    fits, tests, _ = ae_trend(trials, ProfileKind.ZERO)
    assert fits[2].selected
    assert not any(fit.degenerate for fit in fits.values())
    assert fits[2].r_squared >= 0.999
    assert fits[2].coefficients[2] > 0.0
    assert tests["zero:quadratic-vs-linear"].p_value < 0.001
    assert tests["zero:cubic-vs-quadratic"].p_value > 0.05


def test_verify_quadratic_trend_flags_degenerate_zero_family():
    trials = [
        make_trial(constant_discrepancy_spec(0.0, duration=1.0), subject_id=f"s{s:02d}")
        for s in range(4)
    ]
    fits, _, metric_rows = ae_trend(trials, ProfileKind.ZERO)
    assert any(fit.degenerate for fit in fits.values())
    for row in metric_rows:
        assert row.ae <= 1e-12


def test_verify_quadratic_trend_oracle_errors_vanish():
    trials = [
        make_trial(constant_discrepancy_spec(1.0 + 0.1 * s, duration=1.0), subject_id=f"s{s:02d}")
        for s in range(4)
    ]
    _, _, metric_rows = ae_trend(trials, ProfileKind.ORACLE)
    for row in metric_rows:
        assert row.ae <= 1e-12


def test_protocol_items_shape_and_determinism():
    items = protocol_items(n_subjects=2, n_activities=6, n_repeats=2)
    assert len(items) == 2 * 6 * 2
    statics = {activity for _, activity, _, flag, _ in items if flag}
    assert statics == {"act05", "act06"}  # static slots within the first six
    again = protocol_items(n_subjects=2, n_activities=6, n_repeats=2)
    for (_, _, _, _, a), (_, _, _, _, b) in zip(items, again):
        assert_array_equal(a.positions, b.positions)
        assert_array_equal(a.accel_inputs, b.accel_inputs)
