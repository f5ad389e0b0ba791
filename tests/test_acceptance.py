"""Acceptance gates for the whole package.

Each test enforces one numbered criterion end to end at its stated
tolerance and prints a PASS/FAIL line (visible with pytest -s). The
closed-form expectations for the constant-discrepancy family come from the
exact ZOH response: a constant input gap c leaves a position error of
(k-1)^2/2 * dt^2 * |c| at sample k, so per-horizon average error is
dt^2*|c|*(n-1)(2n-1)/12 and the maximum sits at the last sample.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from compredict.analysis import bonferroni, cohens_d, welch_t_test
from compredict.io import RunConfig
from compredict.metrics import Outcome, summarize
from compredict.pipeline import run_pipeline
from compredict.prediction import sweep_errors
from compredict.profiles import HorizonSpec, ProfileKind
from compredict.signal import butterworth_lowpass
from compredict.synth import SyntheticSpec, make_trial, sign_reversal_spec

from oracles import analytic_error, expected_ae, expected_me, mp_t_cdf
from test_analysis import f_tail_error, nested_f_at, t_quantiles, t_tail_error, welch_anova_at, welch_t_at

DT = 0.005
HORIZONS_MS = (125, 250, 375, 500, 625)


@contextmanager
def criterion(number: int, description: str):
    started = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.1f}s): {description}")


def relative_errors(actual: np.ndarray, expected: np.ndarray) -> np.ndarray:
    return np.abs(actual - expected) / np.abs(expected)


def test_criterion_01_constant_discrepancy_matches_closed_form():
    with criterion(1, "pipeline errors equal the closed-form constant-discrepancy error"):
        started = time.monotonic()
        for c in (0.5, 1.0, 2.0):
            trial = make_trial(SyntheticSpec(kind="constant_acceleration", accel=c, duration=0.75, dt=DT))
            for t_ms in HORIZONS_MS:
                spec = HorizonSpec.from_duration(t_ms, DT)
                errors, _ = sweep_errors(trial, spec, ProfileKind.ZERO)
                expected = np.array(
                    [analytic_error(k, DT, c) for k in range(1, spec.n_samples + 1)]
                )
                assert np.all(errors[:, 0] == 0.0)
                worst = np.max(relative_errors(errors[:, 1:], expected[None, 1:]))
                assert worst <= 1e-9, f"c={c} T={t_ms}: relative error {worst:.2e}"
        assert time.monotonic() - started < 5.0


def test_criterion_02_closed_form_average_and_max_error():
    with criterion(2, "per-horizon average/max errors equal their closed forms"):
        started = time.monotonic()
        for c in (0.5, 1.0, 2.0):
            trial = make_trial(SyntheticSpec(kind="constant_acceleration", accel=c, duration=0.75, dt=DT))
            for t_ms in HORIZONS_MS:
                spec = HorizonSpec.from_duration(t_ms, DT)
                errors, _ = sweep_errors(trial, spec, ProfileKind.ZERO)
                ae = errors.mean(axis=1)
                me = errors.max(axis=1)
                assert np.max(relative_errors(ae, expected_ae(spec.n_samples, DT, c))) <= 1e-9
                assert np.max(relative_errors(me, expected_me(spec.n_samples, DT, c))) <= 1e-9
                # and through the per-subject reduction of the trial's horizons
                outcome = Outcome("a", 0, False, len(ae), float(np.sum(ae)), float(me.max()), 0.0)
                row = summarize("s", "zero", t_ms, [outcome])
                assert relative_errors(row.ae, expected_ae(spec.n_samples, DT, c)) <= 1e-9
                assert relative_errors(row.me, expected_me(spec.n_samples, DT, c)) <= 1e-9
        ratio = expected_ae(51, DT, 1.0) / expected_ae(26, DT, 1.0)
        assert abs(ratio - 5050.0 / 1275.0) <= 1e-9
        assert time.monotonic() - started < 5.0


def test_criterion_03_oracle_is_exact_on_model_consistent_trials():
    with criterion(3, "oracle profile reproduces model-consistent references to 1e-12 m"):
        trials = [
            make_trial(SyntheticSpec(kind="constant_acceleration", accel=1.3, duration=0.8, dt=DT)),
            make_trial(SyntheticSpec(kind="sinusoid", duration=0.8, dt=DT, amplitude=1.1, frequency_hz=1.2)),
            make_trial(sign_reversal_spec(1.0, t_flip=0.3, duration=0.8, dt=DT)),
        ]
        for trial in trials:
            for t_ms in HORIZONS_MS:
                spec = HorizonSpec.from_duration(t_ms, DT)
                errors, _ = sweep_errors(trial, spec, ProfileKind.ORACLE)
                assert np.max(errors) <= 1e-12


def test_criterion_04_quadratic_trend_reproduction():
    with criterion(4, "average error grows quadratically with horizon length"):
        started = time.monotonic()
        trials = [
            make_trial(
                SyntheticSpec(kind="constant_acceleration", accel=1.0 + 0.005 * s, duration=1.0, dt=DT),
                subject_id=f"s{s:02d}",
            )
            for s in range(10)
        ]
        config = RunConfig(dt=DT, horizons_ms=HORIZONS_MS, profiles=("zero",))
        bundle = run_pipeline(config, trials)
        fits = {r.degree: r for r in bundle.fit_rows if r.metric == "ae"}
        tests = {r.comparison: r for r in bundle.stat_rows if r.metric == "ae"}
        assert fits[2].selected
        assert not any(fit.degenerate for fit in fits.values())
        assert fits[2].r_squared >= 0.999
        assert tests["zero:quadratic-vs-linear"].p_value < 0.001
        assert tests["zero:cubic-vs-quadratic"].p_value > 0.05
        assert time.monotonic() - started < 10.0


def test_criterion_05_direction_accuracy_degrades_with_horizon():
    with criterion(5, "direction accuracy: zero profile degrades, oracle >= cubic >= zero"):
        started = time.monotonic()
        for s in range(10):
            spec = sign_reversal_spec(
                accel_mag=1.0 + 0.08 * s, t_flip=0.62 + 0.01 * s, duration=2.5, dt=DT
            )
            trial = make_trial(spec, subject_id=f"s{s:02d}")
            ada = {}
            for kind in (ProfileKind.ZERO, ProfileKind.CUBIC, ProfileKind.ORACLE):
                ada[kind] = []
                for t_ms in HORIZONS_MS:
                    hspec = HorizonSpec.from_duration(t_ms, DT)
                    _, scores = sweep_errors(trial, hspec, kind)
                    ada[kind].append(float(np.mean(scores)))
            zero = ada[ProfileKind.ZERO]
            assert all(zero[i] >= zero[i + 1] for i in range(len(zero) - 1)), zero
            for i in range(len(HORIZONS_MS)):
                assert ada[ProfileKind.ORACLE][i] >= ada[ProfileKind.CUBIC][i] >= zero[i]
        assert time.monotonic() - started < 10.0


def test_criterion_06_butterworth_frequency_response():
    with criterion(6, "single-pass filter: half-power at cutoff, -80 dB by 10x, unit DC"):
        fs = 1000.0
        t = np.arange(int(10.0 * fs)) / fs

        def gain(freq):
            samples = np.zeros((t.size, 3))
            samples[:, 0] = np.sin(2.0 * np.pi * freq * t)
            filtered = butterworth_lowpass(samples, fs, zero_phase=False)
            window = slice(t.size // 2, t.size // 2 + int(4 * fs))
            probe = np.exp(-2j * np.pi * freq * t[window])
            out = 2.0 * np.abs(np.mean(filtered[window, 0] * probe))
            ref = 2.0 * np.abs(np.mean(samples[window, 0] * probe))
            return out / ref

        g_cut = gain(20.0)
        assert abs(g_cut - 1.0 / np.sqrt(2.0)) <= 0.01 / np.sqrt(2.0)
        assert gain(200.0) < 1e-4
        dc_tail = butterworth_lowpass(np.full((8000, 3), 1.0), fs, zero_phase=False)[-1, 0]
        assert abs(dc_tail - 1.0) <= 1e-9


def test_criterion_07_statistics_golden_values():
    with criterion(7, "statistics layer matches independent high-precision oracles"):
        welch = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert welch.statistic == pytest.approx(-1.0, rel=1e-12)
        assert welch.df1 == pytest.approx(8.0, rel=1e-12)
        assert abs(welch.p_value - 0.3466) <= 0.0005

        # the tail probabilities and quantile the pipeline's tests and CIs use,
        # read through those tests and that interval
        worst = 0.0
        for df in (1, 2, 5, 20, 80, 140, 200):
            for x in (0.0, 0.3, 1.0, 2.5, 7.0, 20.0, 50.0):
                worst = max(worst, t_tail_error(welch_t_at(x, df)), t_tail_error(welch_t_at(-x, df)))
                worst = max(worst, f_tail_error(welch_anova_at(x, df)))
                for df2 in (1, 9, 48, 200):
                    worst = max(worst, f_tail_error(nested_f_at(x, df, df2)))
            for level in (0.2, 0.8, 0.95, 0.99):  # q = 0.5 -+ level/2 covers 0.005 ... 0.995
                for q, t in zip((0.5 - level / 2, 0.5 + level / 2), t_quantiles(level, df)):
                    worst = max(worst, abs(float(mp_t_cdf(t, df)) - q))
        assert worst <= 1e-10

        assert bonferroni([0.004], 6) == [0.024]
        assert bonferroni([0.01, 0.5], 3) == [pytest.approx(0.03), 1.0]

        half = np.sqrt(0.9)
        spread = np.array([half] * 5 + [-half] * 5)
        assert abs(cohens_d(spread + 1.0, spread) - 1.0) <= 1e-12


def test_criterion_08_metric_invariants_on_randomized_bundles():
    with criterion(8, "metric orderings and label-permutation invariance on 1000 bundles"):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            outcomes = []
            for a in range(rng.integers(1, 4)):
                for r in range(rng.integers(1, 3)):
                    n_h = int(rng.integers(1, 5))
                    n_s = int(rng.integers(1, 7))
                    errors = np.abs(rng.normal(size=(n_h, n_s)))
                    total = float(np.sum(errors.mean(axis=1)))
                    hits = float(np.sum(rng.integers(0, 2, size=n_h)))
                    outcomes.append(Outcome(f"act{a}", r, False, n_h, total, float(errors.max()), hits))
            row = summarize("s01", "zero", 125.0, outcomes)
            assert 0.0 <= row.ae <= row.me
            assert 0.0 <= row.mda <= row.ada <= 1.0

            relabeled = [o._replace(activity_id=f"x_{o.activity_id}") for o in reversed(outcomes)]
            assert summarize("s01", "zero", 125.0, relabeled) == row


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "compredict.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_criterion_09_outputs_identical_across_thread_counts(tmp_path):
    with criterion(9, "run outputs are byte-identical with 1 and 8 threads"):
        synth = run_cli(
            "synth", "--out", tmp_path / "data", "--subjects", 3, "--activities", 4, "--repeats", 2
        )
        assert synth.returncode == 0, synth.stderr
        manifest = tmp_path / "data" / "manifest.json"
        for threads, out in ((1, "r1"), (8, "r8")):
            result = run_cli(
                "run", "--manifest", manifest, "--out", tmp_path / out, "--threads", threads
            )
            assert result.returncode == 0, result.stderr
        names = sorted(os.listdir(tmp_path / "r1"))
        assert names == sorted(os.listdir(tmp_path / "r8"))
        for name in names:
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r8" / name).read_bytes()
            assert a == b, f"{name} differs between thread counts"


def test_criterion_10_desk_scale_run_completes_and_exports(tmp_path):
    with criterion(10, "10 subjects x 14 activities x 3 repeats end to end in under 60 s"):
        started = time.monotonic()
        synth = run_cli("synth", "--out", tmp_path / "data")
        assert synth.returncode == 0, synth.stderr
        run = run_cli(
            "run",
            "--manifest", tmp_path / "data" / "manifest.json",
            "--out", tmp_path / "results",
            "--threads", 4,
        )
        assert run.returncode == 0, run.stderr
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"

        out = tmp_path / "results"
        for name in ("bundle.json", "metrics.csv", "tests.csv", "fits.csv", "levels.csv", "skips.csv"):
            assert (out / name).exists(), name
        metric_lines = (out / "metrics.csv").read_text().splitlines()
        assert metric_lines[0] == "subject_id,profile,horizon_ms,ae_m,me_m,ada,mda"
        assert len(metric_lines) - 1 == 10 * 4 * 5
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["fit_rows"] and bundle["level_rows"] and bundle["stat_rows"]
        assert bundle["version"]
        assert bundle["config"]["dt"] == DT
