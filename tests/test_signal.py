import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from compredict.signal import (
    FilterSpec,
    ForceSeries,
    butterworth_lowpass,
    clamp_noncontact,
    detect_contact,
    downsample,
    preprocess,
)

FS = 1000.0


def tone(freq, seconds=10.0, fs=FS, phase=0.0):
    t = np.arange(int(seconds * fs)) / fs
    samples = np.zeros((t.size, 3))
    samples[:, 0] = np.sin(2.0 * np.pi * freq * t + phase)
    return ForceSeries(sample_rate=fs, samples=samples)


def steady_state_gain(series, filtered, freq):
    """Amplitude ratio measured by quadrature projection over whole cycles
    in the second half of the signal (transient discarded)."""
    n = len(series)
    t = np.arange(n) / series.sample_rate
    window = slice(n // 2, n // 2 + int(4.0 * series.sample_rate))
    probe = np.exp(-2j * np.pi * freq * t[window])
    out = 2.0 * np.abs(np.mean(filtered.samples[window, 0] * probe))
    ref = 2.0 * np.abs(np.mean(series.samples[window, 0] * probe))
    return out / ref


def test_series_validation():
    with pytest.raises(ValueError):
        ForceSeries(sample_rate=0.0, samples=np.zeros((10, 3)))
    with pytest.raises(ValueError):
        ForceSeries(sample_rate=FS, samples=np.zeros((10, 2)))
    with pytest.raises(ValueError):
        ForceSeries(sample_rate=FS, samples=np.zeros((10, 3)), contact_intervals=((5, 3),))
    with pytest.raises(ValueError):
        ForceSeries(sample_rate=FS, samples=np.zeros((10, 3)), contact_intervals=((0, 4), (3, 8)))
    with pytest.raises(ValueError):
        ForceSeries(sample_rate=FS, samples=np.zeros((10, 3)), contact_intervals=((0, 10),))


def test_clamp_without_intervals_zeroes_everything():
    series = ForceSeries(sample_rate=FS, samples=np.ones((50, 3)))
    assert_array_equal(clamp_noncontact(series).samples, np.zeros((50, 3)))


def test_clamp_with_full_interval_is_identity():
    samples = np.random.default_rng(0).normal(size=(50, 3))
    series = ForceSeries(sample_rate=FS, samples=samples, contact_intervals=((0, 49),))
    assert_array_equal(clamp_noncontact(series).samples, samples)


def test_clamp_keeps_only_contact_window():
    samples = np.full((40, 3), 7.0)
    series = ForceSeries(sample_rate=FS, samples=samples, contact_intervals=((10, 20),))
    out = clamp_noncontact(series).samples
    assert_array_equal(out[10:21], samples[10:21])
    assert_array_equal(out[:10], np.zeros((10, 3)))
    assert_array_equal(out[21:], np.zeros((19, 3)))


def test_dc_gain_is_unity():
    series = ForceSeries(sample_rate=FS, samples=np.full((8000, 3), 3.5))
    single = butterworth_lowpass(series, zero_phase=False)
    assert abs(single.samples[-1, 0] - 3.5) < 1e-9 * 3.5
    both = butterworth_lowpass(series, zero_phase=True)
    assert_allclose(both.samples, 3.5, rtol=1e-9)


def test_cutoff_attenuation_is_half_power():
    series = tone(20.0)
    filtered = butterworth_lowpass(series, zero_phase=False)
    gain = steady_state_gain(series, filtered, 20.0)
    assert abs(gain - 1.0 / np.sqrt(2.0)) < 0.01 / np.sqrt(2.0)


def test_stopband_attenuation_at_ten_times_cutoff():
    series = tone(200.0)
    filtered = butterworth_lowpass(series, zero_phase=False)
    gain = steady_state_gain(series, filtered, 200.0)
    assert gain < 1e-4


def test_zero_phase_removes_lag():
    series = tone(10.0, seconds=4.0)
    t = np.arange(len(series)) / FS
    probe = np.exp(-2j * np.pi * 10.0 * t[1000:3000])
    single = butterworth_lowpass(series, zero_phase=False)
    double = butterworth_lowpass(series, zero_phase=True)
    phase_single = np.angle(np.mean(single.samples[1000:3000, 0] * probe))
    phase_double = np.angle(np.mean(double.samples[1000:3000, 0] * probe))
    reference = np.angle(np.mean(series.samples[1000:3000, 0] * probe))
    assert abs(phase_double - reference) < 1e-3
    assert abs(phase_single - reference) > 0.1


def test_filter_is_linear():
    rng = np.random.default_rng(1)
    x = ForceSeries(sample_rate=FS, samples=rng.normal(size=(4000, 3)))
    y = ForceSeries(sample_rate=FS, samples=rng.normal(size=(4000, 3)))
    combo = ForceSeries(sample_rate=FS, samples=2.0 * x.samples - 3.0 * y.samples)
    fx = butterworth_lowpass(x).samples
    fy = butterworth_lowpass(y).samples
    fc = butterworth_lowpass(combo).samples
    assert_allclose(fc, 2.0 * fx - 3.0 * fy, rtol=1e-9, atol=1e-12)


def test_refiltering_constant_is_stable():
    series = ForceSeries(sample_rate=FS, samples=np.full((5000, 3), 1.0))
    once = butterworth_lowpass(series)
    twice = butterworth_lowpass(once)
    assert np.max(np.abs(twice.samples - once.samples)) < 1e-9


def test_filter_rejects_cutoff_at_nyquist():
    series = tone(5.0, seconds=1.0)
    with pytest.raises(ValueError):
        butterworth_lowpass(series, FilterSpec(order=5, cutoff_hz=500.0))
    with pytest.raises(ValueError):
        FilterSpec(order=0, cutoff_hz=20.0)


def test_downsample_identity_and_phase():
    samples = np.arange(30, dtype=float).reshape(10, 3)
    series = ForceSeries(sample_rate=FS, samples=samples)
    assert downsample(series, 1) is series
    out = downsample(series, 5)
    assert out.sample_rate == 200.0
    assert len(out) == 2
    assert_array_equal(out.samples[0], samples[0])
    assert_array_equal(out.samples[1], samples[5])
    with pytest.raises(ValueError):
        downsample(series, 0)


def test_downsample_keeps_every_fifth_index():
    n = 1000
    samples = np.zeros((n, 3))
    samples[:, 0] = np.arange(n)
    out = downsample(ForceSeries(sample_rate=FS, samples=samples), 5)
    assert_array_equal(out.samples[:, 0], np.arange(0, n, 5, dtype=float))


def test_downsample_maps_intervals():
    series = ForceSeries(
        sample_rate=FS, samples=np.zeros((100, 3)), contact_intervals=((3, 42), (51, 53))
    )
    out = downsample(series, 5)
    # kept indices 0,5,...,95 -> samples 5..40 remain from the first interval
    assert out.contact_intervals == ((1, 8),)


def test_detect_contact_on_quiet_series():
    series = ForceSeries(sample_rate=FS, samples=np.zeros((500, 3)))
    assert detect_contact(series, rise_threshold=20.0) == []
    noisy = ForceSeries(
        sample_rate=FS,
        samples=np.random.default_rng(2).uniform(0.0, 15.0, size=(500, 3)),
    )
    assert detect_contact(noisy, rise_threshold=20.0) == []


def test_detect_contact_step():
    samples = np.zeros((300, 3))
    samples[100:, 1] = 700.0
    series = ForceSeries(sample_rate=FS, samples=samples)
    assert detect_contact(series, rise_threshold=20.0, hold_samples=5) == [(100, 299)]


def test_detect_contact_ignores_short_spikes():
    samples = np.zeros((300, 3))
    samples[50:53, 1] = 500.0  # 3-sample spike
    samples[100:200, 1] = 500.0
    series = ForceSeries(sample_rate=FS, samples=samples)
    assert detect_contact(series, rise_threshold=20.0, hold_samples=5) == [(100, 199)]


def test_lowpassed_tone_survives_downsampling_without_artifacts():
    # 60 Hz is below the new 100 Hz Nyquist: away from the edge transients the
    # chain output is the attenuated tone and nothing else above -80 dB
    series = tone(60.0, seconds=3.0)
    series = ForceSeries(
        sample_rate=FS, samples=series.samples, contact_intervals=((0, len(series) - 1),)
    )
    out = preprocess(series, downsample_factor=5)
    interior = out.samples[200:400, 0]  # 1 s of steady state, whole cycles
    spectrum = np.abs(np.fft.rfft(interior)) / (len(interior) / 2.0)
    freqs = np.fft.rfftfreq(len(interior), d=1.0 / out.sample_rate)
    off_tone = np.abs(freqs - 60.0) > 1.0
    assert np.max(spectrum[off_tone]) < 1e-4


def test_preprocess_order_matches_manual_chain():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(2000, 3)) * 100.0
    series = ForceSeries(sample_rate=FS, samples=samples, contact_intervals=((200, 1500),))
    manual = downsample(butterworth_lowpass(clamp_noncontact(series)), 5)
    auto = preprocess(series, downsample_factor=5)
    assert_array_equal(auto.samples, manual.samples)
    assert auto.sample_rate == manual.sample_rate


def test_preprocess_can_skip_filter():
    samples = np.random.default_rng(4).normal(size=(1000, 3))
    series = ForceSeries(sample_rate=FS, samples=samples, contact_intervals=((0, 999),))
    out = preprocess(series, downsample_factor=5, apply_filter=False)
    assert_array_equal(out.samples, samples[::5])


def test_importing_the_cli_leaves_scipy_signal_unimported():
    # scipy.signal takes about a second to import, and only filtering needs it
    code = "import sys, compredict.cli; print('scipy.signal' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
