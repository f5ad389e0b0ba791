import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from compredict import prediction
from compredict.io import DEFAULTS
from compredict.metrics import Outcome, summarize
from compredict.pipeline import SkipRow, run_pipeline
from compredict.prediction import (
    Trial,
    TrialTooShortError,
    _Sweep,
    sweep_errors,
    sweep_session,
)
from compredict.profiles import HorizonSpec, ProfileKind
from compredict.synth import SyntheticSpec, make_trial

from oracles import brute_force_trajectory, direction_score, generate_profile

DT = 0.005


def predicted_positions(trial, spec, kind, rows):
    """The sweep kernel's (len(rows), n, 3) predicted positions for the
    start rows in the slice `rows` of a one-trial layout."""
    sweep = _Sweep([trial], trial.dt, [kind], [spec.n_samples])
    sweep.lay_out(0, sweep.rows)  # the whole trial as one batch
    ((_, n, response, _),) = sweep.passes
    b = rows.stop - rows.start
    base, (out, tmp) = np.empty((3, b, n)), np.empty((2, b, n))
    sweep._base(rows, base)
    return np.stack([sweep._predict(response, c, rows, base[c], out, tmp).copy() for c in range(3)], axis=-1)


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
    trial = make_trial(SyntheticSpec(kind="constant_acceleration", accel=c, duration=0.8, dt=DT))
    spec = HorizonSpec.from_duration(250, DT)
    k = np.arange(1, spec.n_samples + 1)
    expected = 0.5 * (k - 1) ** 2 * DT * DT * c
    errors, _ = sweep_errors(trial, spec, ProfileKind.ZERO)
    for series in errors:
        assert series[0] == 0.0
        assert_allclose(series[1:], expected[1:], rtol=1e-9)


def test_zero_profile_error_matches_brute_force():
    c = 0.9
    trial = make_trial(SyntheticSpec(kind="constant_acceleration", accel=c, duration=0.8, dt=DT))
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
        predicted = predicted_positions(trial, spec, kind, slice(start, start + 1))
        future = trial.accel_inputs[start : start + spec.n_samples].tolist()
        profile = generate_profile(kind, trial.accel_inputs[start].tolist(), spec.n_samples, future)
        for axis in range(3):
            pred_ps, _ = brute_force_trajectory(
                trial.positions[start, axis],
                trial.velocities[start, axis],
                [row[axis] for row in profile[: spec.n_samples - 1]],
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
    trial = make_trial(SyntheticSpec(kind="constant_acceleration", accel=1.0, duration=0.8, dt=DT))
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
    deltas = predicted_positions(trial, hspec, ProfileKind.ZERO, slice(0, 1))[0] - trial.positions
    expected = np.sqrt((deltas[:, 0] ** 2 + deltas[:, 1] ** 2) + deltas[:, 2] ** 2)
    expected[0] = 0.0
    assert_array_equal(errors[0], expected)


def test_sweep_too_short_names_trial_and_horizon():
    trial = coasting_trial(n=25)
    with pytest.raises(TrialTooShortError) as err:
        sweep_errors(trial, HorizonSpec.from_duration(125, DT), ProfileKind.ZERO)
    message = str(err.value)
    assert "s00" in message and "125" in message


@pytest.mark.parametrize("kind", list(ProfileKind))
def test_sweep_too_short_raises_before_laying_out_the_horizon(kind):
    # a 1e6 ms horizon is 200,001 samples: laying it out would take tens of MiB
    trial = coasting_trial(n=50)
    tracemalloc.start()
    try:
        with pytest.raises(TrialTooShortError):
            sweep_errors(trial, HorizonSpec.from_duration(1e6, DT), kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sweep_equals_per_start_prediction_bitwise(monkeypatch):
    trial = make_trial(SyntheticSpec(kind="sinusoid", duration=0.7, dt=DT, amplitude=1.0))
    hspec = HorizonSpec.from_duration(250, DT)
    for kind in ProfileKind:
        errors, scores = sweep_errors(trial, hspec, kind)
        predicted = predicted_positions(trial, hspec, kind, slice(0, len(errors)))
        for start in range(len(errors)):
            single = predicted_positions(trial, hspec, kind, slice(start, start + 1))
            assert_array_equal(predicted[start], single[0])
        # one start per kernel block: every start is evaluated on its own
        with monkeypatch.context() as patch:
            patch.setattr(prediction, "BLOCK_STARTS", 1)
            alone_errors, alone_scores = sweep_errors(trial, hspec, kind)
        assert_array_equal(errors, alone_errors)
        assert_array_equal(scores, alone_scores)


def test_sweep_is_deterministic_across_calls():
    trial = make_trial(SyntheticSpec(kind="sinusoid", duration=0.7, dt=DT, amplitude=1.0))
    hspec = HorizonSpec.from_duration(125, DT)
    first, _ = sweep_errors(trial, hspec, ProfileKind.CUBIC)
    second, _ = sweep_errors(trial, hspec, ProfileKind.CUBIC)
    assert_array_equal(first, second)


def test_profiles_collapse_when_measured_acceleration_is_zero():
    trial = coasting_trial()
    hspec = HorizonSpec.from_duration(125, DT)
    rows = slice(0, trial.n_samples - hspec.n_samples + 1)

    def outcome(kind):
        return (predicted_positions(trial, hspec, kind, rows), *sweep_errors(trial, hspec, kind))

    zero, const, cubic = (outcome(k) for k in (ProfileKind.ZERO, ProfileKind.CONST, ProfileKind.CUBIC))
    for a, b, c in zip(zero, const, cubic):
        # predicted positions, error series and direction scores in turn
        assert_array_equal(a, b)
        assert_array_equal(a, c)


def test_sweep_errors_dt_check():
    trial = coasting_trial(n=50)
    wrong_dt = HorizonSpec.from_duration(125, 0.0025)  # 51 samples, longer than the trial
    with pytest.raises(ValueError, match="does not match"):  # the period, not the length, is named
        sweep_errors(trial, wrong_dt, ProfileKind.ZERO)
    with pytest.raises(ValueError):
        next(sweep_session([trial], [wrong_dt], [ProfileKind.ZERO]))
    with pytest.raises(ValueError, match="one sample period"):
        next(sweep_session([trial], [HorizonSpec.from_duration(125, trial.dt), wrong_dt], [ProfileKind.ZERO]))
    # threads and reduced are keyword-only, so a fourth positional argument
    # is refused rather than read as a thread count
    with pytest.raises(TypeError):
        sweep_session([trial], [HorizonSpec.from_duration(125, trial.dt)], [ProfileKind.ZERO], 3)


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
        starts = n - hspec.n_samples + 1
        for kind in ProfileKind:
            predicted = predicted_positions(trial, hspec, kind, slice(0, starts))
            start = int(rng.integers(0, starts))
            # the error series is the norm of the predicted deviation, summed
            # over components in np.sum's order, bit for bit
            deltas = predicted[start] - trial.positions[start : start + hspec.n_samples]
            expected = np.sqrt(np.sum(deltas * deltas, axis=1))
            expected[0] = 0.0
            assert_array_equal(sweep_errors(trial, hspec, kind)[0][start], expected)
            future = trial.accel_inputs[start : start + hspec.n_samples].tolist()
            profile = generate_profile(
                kind, trial.accel_inputs[start].tolist(), hspec.n_samples, future
            )
            for axis in range(3):
                expected, _ = brute_force_trajectory(
                    trial.positions[start, axis],
                    trial.velocities[start, axis],
                    [row[axis] for row in profile[: hspec.n_samples - 1]],
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
        predicted = predicted_positions(trial, hspec, kind, slice(0, len(scores)))
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


@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_trial_rejects_non_finite_dt(dt):
    z = np.zeros((5, 3))
    with pytest.raises(ValueError, match="dt must be positive"):
        Trial("s", "a", 0, False, 70.0, dt, z, z, z)


@pytest.mark.parametrize("mass", [float("nan"), float("inf")])
def test_trial_rejects_non_finite_mass(mass):
    z = np.zeros((5, 3))
    with pytest.raises(ValueError, match="mass must be positive"):
        Trial("s", "a", 0, False, mass, 0.005, z, z, z)


def ragged_session(seed=11):
    """Random trials of two subjects whose lengths straddle 64-start blocks:
    one exactly one 125 ms horizon long (26 samples), one too short for
    any horizon (25), the rest shorter or longer than a block."""
    rng = np.random.default_rng(seed)
    trials = []
    for i, n in enumerate([70, 26, 25, 64, 65, 127, 51, 190, 140, 33]):
        trials.append(
            Trial(
                subject_id=f"s{i % 2}",
                activity_id=f"a{i // 2}",
                repeat_index=i % 3,
                is_static=i == 4,
                mass=70.0,
                dt=DT,
                positions=rng.normal(size=(n, 3)) * rng.uniform(0.05, 2.0),
                velocities=rng.normal(size=(n, 3)),
                accel_inputs=rng.normal(size=(n, 3)) * 3.0,
            )
        )
    return trials


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("block", [1024, 512, 64])
def test_session_sweep_equals_per_trial_sweeps_bitwise(monkeypatch, threads, block):
    monkeypatch.setattr(prediction, "BLOCK_STARTS", block)
    trials = ragged_session()
    # the last horizon (1 s, 201 samples) is longer than every trial
    specs = [HorizonSpec.from_duration(t, DT) for t in (125, 250, 375, 1000)]
    assert max(trial.n_samples for trial in trials) < specs[-1].n_samples
    assert_session_equals_per_trial_sweeps(trials, specs, threads)


def assert_session_equals_per_trial_sweeps(trials, specs, threads):
    """Every profile's session vectors equal its per-trial `sweep_errors`
    matrices' row means, row maxima and scores, bit for bit."""
    kinds = list(ProfileKind)
    handed = list(sweep_session(trials, specs, kinds, threads=threads))
    assert [i for i, _ in handed] == list(range(len(trials)))
    for trial, (_, vectors) in zip(trials, handed):
        for spec, (means, maxima, scores) in zip(specs, vectors):
            if trial.n_samples < spec.n_samples:
                assert means.shape == maxima.shape == scores.shape == (len(kinds), 0)
                continue
            for p, kind in enumerate(kinds):
                errors, expected_scores = sweep_errors(trial, spec, kind)
                assert_array_equal(means[p], errors.mean(axis=1))
                assert_array_equal(maxima[p], errors.max(axis=1))
                assert_array_equal(scores[p], expected_scores)


@pytest.mark.parametrize("threads", [1, 3])
def test_oracle_sums_carried_through_several_batches_equal_the_whole_trial_scan(monkeypatch, threads):
    # 64-start blocks make batches of 256 rows at one thread and 768 at
    # three: a batch starts on the first row of a 700-sample trial, which
    # then spans three batches, and another on the last row of the trial
    # after it, which keeps only its carried sums there
    monkeypatch.setattr(prediction, "BLOCK_STARTS", 64)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)  # three threads make three workers on any host
    rng = np.random.default_rng(13)
    trials = [
        Trial(f"s{i % 2}", f"a{i}", 0, False, 70.0, DT, *(rng.normal(size=(n, 3)) for _ in range(3)))
        for i, n in enumerate([100, 156, 700, 69, 40, 25, 90])
    ]
    offsets = np.cumsum([0] + [trial.n_samples for trial in trials])
    assert offsets[2] == 256 and offsets[3] > 3 * 256 and offsets[4] - 1 == 4 * 256
    specs = [HorizonSpec.from_duration(t, DT) for t in (125, 250, 625)]
    assert_session_equals_per_trial_sweeps(trials, specs, threads)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("block", [1024, 512, 64])
def test_pipeline_batched_reduction_equals_per_trial_sweeps(monkeypatch, threads, block):
    monkeypatch.setattr(prediction, "BLOCK_STARTS", block)
    trials = ragged_session()
    config = replace(DEFAULTS, horizons_ms=(125.0, 250.0, 375.0), threads=threads)
    bundle = run_pipeline(config, trials)

    # the per-(trial, profile, horizon) reduction, one sweep_errors call each
    expected_rows, expected_skips, seen = [], [], set()
    for subject in ("s0", "s1"):
        for kind in (ProfileKind.parse(p) for p in config.profiles):
            for t_ms, spec in zip(config.horizons_ms, config.horizon_specs()):
                outcomes = []
                for trial in (t for t in trials if t.subject_id == subject):
                    try:
                        errors, trial_scores = sweep_errors(trial, spec, kind)
                    except TrialTooShortError as exc:
                        key = (subject, trial.activity_id, trial.repeat_index, t_ms)
                        if key not in seen:
                            seen.add(key)
                            expected_skips.append(SkipRow(*key, reason=str(exc)))
                        continue
                    means = errors.mean(axis=1)
                    outcomes.append(
                        Outcome(
                            trial.activity_id,
                            trial.repeat_index,
                            trial.is_static,
                            len(means),
                            float(np.sum(means)),
                            float(errors.max()),
                            float(np.sum(trial_scores)),
                        )
                    )
                if outcomes:
                    expected_rows.append(summarize(subject, kind.value, t_ms, outcomes))
    assert bundle.metric_rows == expected_rows
    assert bundle.skip_rows == expected_skips
    skipped = {(r.subject_id, r.activity_id, r.horizon_ms) for r in bundle.skip_rows}
    assert {("s0", "a1", t_ms) for t_ms in config.horizons_ms} <= skipped  # 25 samples
    assert ("s1", "a0", 125.0) not in skipped  # exactly one 125 ms horizon long


def test_session_that_no_horizon_fits_hands_every_trial_over_empty():
    trials = ragged_session()
    horizons_ms = (2000.0, 3000.0)
    specs = [HorizonSpec.from_duration(t, DT) for t in horizons_ms]
    assert max(trial.n_samples for trial in trials) < specs[0].n_samples
    kinds = list(ProfileKind)
    handed = list(sweep_session(trials, specs, kinds, threads=2))
    assert [i for i, _ in handed] == list(range(len(trials)))
    for _, vectors in handed:
        assert len(vectors) == len(specs)
        for means, maxima, scores in vectors:
            assert means.shape == maxima.shape == scores.shape == (len(kinds), 0)

    bundle = run_pipeline(replace(DEFAULTS, horizons_ms=horizons_ms), trials)
    assert bundle.metric_rows == []
    assert [(r.subject_id, r.activity_id, r.repeat_index, r.horizon_ms) for r in bundle.skip_rows] == [
        (subject, trial.activity_id, trial.repeat_index, t_ms)
        for subject in ("s0", "s1")
        for t_ms in horizons_ms
        for trial in trials
        if trial.subject_id == subject
    ]


@settings(max_examples=60, deadline=None)
@given(
    # (subject, samples) of each trial in manifest order: "s10" sorts before
    # "s9", and the lengths straddle the horizons (26 to 126 samples)
    entries=st.lists(st.tuples(st.sampled_from(["s9", "s10", "s2"]), st.integers(2, 140)), min_size=1, max_size=8),
    horizons_ms=st.lists(st.sampled_from([125.0, 250.0, 375.0, 500.0, 625.0]), min_size=1, max_size=5, unique=True),
)
def test_skip_rows_list_every_too_short_pair_in_subject_horizon_trial_order(entries, horizons_ms):
    rng = np.random.default_rng(3)
    trials = [
        Trial(subject, f"a{i}", i % 2, False, 70.0, DT, *(rng.normal(size=(n, 3)) for _ in range(3)))
        for i, (subject, n) in enumerate(entries)
    ]
    config = replace(DEFAULTS, horizons_ms=tuple(sorted(horizons_ms, reverse=True)))
    expected = [
        SkipRow(subject, trial.activity_id, trial.repeat_index, t_ms, str(TrialTooShortError.for_horizon(trial, spec)))
        for subject in sorted({trial.subject_id for trial in trials})
        for t_ms, spec in zip(config.horizons_ms, config.horizon_specs())
        for trial in trials
        if trial.subject_id == subject and trial.n_samples < spec.n_samples
    ]
    assert run_pipeline(config, trials).skip_rows == expected


def long_session():
    """`ragged_session` and two trials that each span several 512-start blocks."""
    rng = np.random.default_rng(12)
    longer = [
        Trial(f"s{s}", "long", 0, False, 70.0, DT, *(rng.normal(size=(n, 3)) for _ in range(3)))
        for s, n in ((0, 1500), (1, 2600))
    ]
    return ragged_session() + longer


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("block", [64, 512, 1024])
def test_reduced_session_sweep_folds_the_full_vectors_bitwise(monkeypatch, block, threads):
    monkeypatch.setattr(prediction, "BLOCK_STARTS", block)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two threads make a pool on any host
    trials = long_session()
    specs = [HorizonSpec.from_duration(t, DT) for t in (125, 250, 375, 1000)]
    kinds = list(ProfileKind)
    full = list(sweep_session(trials, specs, kinds, threads=threads))
    reduced = list(sweep_session(trials, specs, kinds, threads=threads, reduced=True))
    assert [i for i, _ in reduced] == [i for i, _ in full] == list(range(len(trials)))
    for (_, ours), (_, theirs) in zip(reduced, full):
        for (starts, sums, top, total), (means, maxima, scores) in zip(ours, theirs):
            assert starts == means.shape[1]
            assert sums.shape == top.shape == total.shape == (len(kinds),) and total.dtype == np.int64
            # each profile's sum is the np.sum of its whole means vector, bit for bit
            assert sums.tobytes() == np.array([np.sum(row) for row in means]).tobytes()
            if starts:
                assert top.tobytes() == maxima.max(axis=1).tobytes()
                assert total.tobytes() == scores.sum(axis=1, dtype=np.int64).tobytes()
            else:  # a trial shorter than the horizon
                assert np.all(sums == 0) and np.all(top == -np.inf) and np.all(total == 0)


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_threads_are_capped_at_the_cpu_count(monkeypatch, cpus):
    monkeypatch.setattr(prediction, "BLOCK_STARTS", 64)  # 13 blocks, more than the threads asked for
    trials = ragged_session()
    specs = [HorizonSpec.from_duration(t, DT) for t in (125, 250)]
    kinds = list(ProfileKind)
    alone = list(sweep_session(trials, specs, kinds, threads=1))

    made, work = [], _Sweep.work

    def counted_work(self):  # one set of work arrays per sweep thread
        made.append(self)
        return work(self)

    monkeypatch.setattr(_Sweep, "work", counted_work)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    handed = list(sweep_session(trials, specs, kinds, threads=8))
    assert len(made) == cpus
    assert [i for i, _ in handed] == [i for i, _ in alone]
    for (_, ours), (_, theirs) in zip(handed, alone):
        for a, b in zip(ours, theirs):
            for x, y in zip(a, b):
                assert_array_equal(x, y)


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_pool_leaves_no_thread_behind(monkeypatch, threads):
    monkeypatch.setattr(prediction, "BLOCK_STARTS", 64)  # 13 blocks
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    trials = ragged_session()
    specs = [HorizonSpec.from_duration(t, DT) for t in (125, 250)]
    kinds = list(ProfileKind)
    before = threading.active_count()

    handed = sweep_session(trials, specs, kinds, threads=threads)
    assert next(handed)[0] == 0
    handed.close()  # a consumer that stops after the first trial
    assert threading.active_count() == before

    calls, lock, block = [], threading.Lock(), _Sweep.block

    def failing_block(self, rows, work):
        with lock:
            calls.append(rows)
            if len(calls) == 3:
                raise RuntimeError("third block fails")
        return block(self, rows, work)

    monkeypatch.setattr(_Sweep, "block", failing_block)
    with pytest.raises(RuntimeError, match="third block"):
        list(sweep_session(trials, specs, kinds, threads=threads))
    assert threading.active_count() == before


def test_horizon_longer_than_every_trial_takes_no_memory():
    # a 60 s horizon (12,001 samples) fits no trial: it adds one skip row per
    # trial and changes no other row, without work arrays of its length
    trials = ragged_session()
    config = replace(DEFAULTS, horizons_ms=(125.0, 250.0, 375.0))
    expected = run_pipeline(config, trials)
    tracemalloc.start()
    try:
        bundle = run_pipeline(replace(config, horizons_ms=(125.0, 250.0, 375.0, 60000.0)), trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert bundle.metric_rows == expected.metric_rows
    assert [r for r in bundle.skip_rows if r.horizon_ms != 60000.0] == expected.skip_rows
    assert sum(r.horizon_ms == 60000.0 for r in bundle.skip_rows) == len(trials)


def test_run_memory_beyond_the_handed_means_does_not_grow_with_trial_length():
    # The sweep lays out one batch of starts at a time, so beyond the
    # per-start means of the one trial being swept, which the sweep sums and
    # drops before it hands the trial over folded, run_pipeline's tracemalloc
    # peak is the same for two 1 min trials as for two 4 min ones
    rng = np.random.default_rng(5)
    config = replace(DEFAULTS, threads=1)

    def extra(seconds):
        n = int(round(seconds / DT)) + 1
        trials = [
            Trial(f"s{s}", "walk", 0, False, 70.0, DT, *(rng.normal(size=(n, 3)) for _ in range(3)))
            for s in range(2)
        ]
        tracemalloc.start()
        try:
            run_pipeline(config, trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        starts = sum(n - spec.n_samples + 1 for spec in config.horizon_specs())
        handed = starts * len(config.profiles) * 8  # the means; maxima and scores fold block by block
        return peak - handed

    short, long = extra(60), extra(240)
    assert abs(long - short) <= 2**20, (short, long)
