import functools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hypothesis import example, given, settings
from hypothesis import strategies as st

from compredict.signal import (
    butterworth_lowpass,
    check_contact_intervals,
    clamp_noncontact,
    detect_contact,
    preprocess,
    _butter_sos,
    _sos_zi,
)

from oracles import detect_contact_by_loop

FS = 1000.0


def tone(freq, seconds=10.0, fs=FS, phase=0.0):
    t = np.arange(int(seconds * fs)) / fs
    samples = np.zeros((t.size, 3))
    samples[:, 0] = np.sin(2.0 * np.pi * freq * t + phase)
    return samples


def steady_state_gain(samples, filtered, freq, fs=FS):
    """Amplitude ratio measured by quadrature projection over whole cycles
    in the second half of the signal (transient discarded)."""
    n = len(samples)
    t = np.arange(n) / fs
    window = slice(n // 2, n // 2 + int(4.0 * fs))
    probe = np.exp(-2j * np.pi * freq * t[window])
    out = 2.0 * np.abs(np.mean(filtered[window, 0] * probe))
    ref = 2.0 * np.abs(np.mean(samples[window, 0] * probe))
    return out / ref


def test_series_validation():
    with pytest.raises(ValueError, match="sample_rate"):
        butterworth_lowpass(np.zeros((10, 3)), 0.0)
    with pytest.raises(ValueError, match="sample_rate"):
        butterworth_lowpass(np.zeros((10, 3)), float("nan"))
    for call in (
        lambda samples: butterworth_lowpass(samples, FS),
        lambda samples: preprocess(samples, FS, (), apply_filter=False),
        lambda samples: detect_contact(samples, rise_threshold=20.0),
    ):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            call(np.zeros((10, 2)))
    with pytest.raises(ValueError, match="reversed"):
        check_contact_intervals(((5, 3),), 10)
    with pytest.raises(ValueError, match="non-overlapping"):
        check_contact_intervals(((0, 4), (3, 8)), 10)
    with pytest.raises(ValueError, match="outside"):
        check_contact_intervals(((0, 10),), 10)
    with pytest.raises(ValueError, match="outside"):
        clamp_noncontact(np.zeros((10, 3)), ((5, 12),))
    with pytest.raises(ValueError, match="outside"):
        check_contact_intervals(((-1, 4),), 10)
    assert check_contact_intervals([[0, 4], [5, 9]], 10) == ((0, 4), (5, 9))


def test_clamp_without_intervals_zeroes_everything():
    assert_array_equal(clamp_noncontact(np.ones((50, 3)), ()), np.zeros((50, 3)))


def test_clamp_with_full_interval_is_identity():
    samples = np.random.default_rng(0).normal(size=(50, 3))
    assert_array_equal(clamp_noncontact(samples, ((0, 49),)), samples)


def test_clamp_keeps_only_contact_window():
    samples = np.full((40, 3), 7.0)
    out = clamp_noncontact(samples, ((10, 20),))
    assert_array_equal(out[10:21], samples[10:21])
    assert_array_equal(out[:10], np.zeros((10, 3)))
    assert_array_equal(out[21:], np.zeros((19, 3)))


def test_dc_gain_is_unity():
    samples = np.full((8000, 3), 3.5)
    single = butterworth_lowpass(samples, FS, zero_phase=False)
    assert abs(single[-1, 0] - 3.5) < 1e-9 * 3.5
    both = butterworth_lowpass(samples, FS, zero_phase=True)
    assert_allclose(both, 3.5, rtol=1e-9)


def test_cutoff_attenuation_is_half_power():
    samples = tone(20.0)
    filtered = butterworth_lowpass(samples, FS, zero_phase=False)
    gain = steady_state_gain(samples, filtered, 20.0)
    assert abs(gain - 1.0 / np.sqrt(2.0)) < 0.01 / np.sqrt(2.0)


def test_stopband_attenuation_at_ten_times_cutoff():
    samples = tone(200.0)
    filtered = butterworth_lowpass(samples, FS, zero_phase=False)
    gain = steady_state_gain(samples, filtered, 200.0)
    assert gain < 1e-4


def test_zero_phase_removes_lag():
    samples = tone(10.0, seconds=4.0)
    t = np.arange(len(samples)) / FS
    probe = np.exp(-2j * np.pi * 10.0 * t[1000:3000])
    single = butterworth_lowpass(samples, FS, zero_phase=False)
    double = butterworth_lowpass(samples, FS, zero_phase=True)
    phase_single = np.angle(np.mean(single[1000:3000, 0] * probe))
    phase_double = np.angle(np.mean(double[1000:3000, 0] * probe))
    reference = np.angle(np.mean(samples[1000:3000, 0] * probe))
    assert abs(phase_double - reference) < 1e-3
    assert abs(phase_single - reference) > 0.1


def test_filter_is_linear():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4000, 3))
    y = rng.normal(size=(4000, 3))
    fx = butterworth_lowpass(x, FS)
    fy = butterworth_lowpass(y, FS)
    fc = butterworth_lowpass(2.0 * x - 3.0 * y, FS)
    assert_allclose(fc, 2.0 * fx - 3.0 * fy, rtol=1e-9, atol=1e-12)


def test_refiltering_constant_is_stable():
    once = butterworth_lowpass(np.full((5000, 3), 1.0), FS)
    twice = butterworth_lowpass(once, FS)
    assert np.max(np.abs(twice - once)) < 1e-9


# a length, and a padlen below it or None (the default, 3*(2*order+1), which may not be)
LENGTH_AND_PADLEN = st.integers(1, 400).flatmap(
    lambda n: st.tuples(st.just(n), st.one_of(st.none(), st.integers(0, n - 1)))
)


@settings(max_examples=150, deadline=None)
@given(
    order=st.integers(1, 8),
    rate=st.sampled_from([FS, 999.9999999999991, 2000.0, 240.0]),  # 999.99...: the written GRF files' rate
    shape=LENGTH_AND_PADLEN,
    seed=st.integers(0, 2**32 - 1),
)
@example(order=5, rate=FS, shape=(34, None), seed=0)  # the default padlen, one sample below the length
@example(order=5, rate=FS, shape=(33, None), seed=0)  # the default padlen at the length
@example(order=8, rate=999.9999999999991, shape=(400, 399), seed=0)
@example(order=1, rate=FS, shape=(1, 0), seed=0)
def test_zero_phase_filter_is_sosfiltfilt_bit_for_bit(order, rate, shape, seed):
    from scipy.signal import butter, sosfilt, sosfiltfilt

    length, padlen = shape
    p = 3 * (2 * order + 1) if padlen is None else padlen
    samples = np.random.default_rng(seed).normal(size=(length, 3)) * 300.0
    sos = butter(order, 20.0, btype="low", fs=rate, output="sos")
    single = butterworth_lowpass(samples, rate, order=order, zero_phase=False)
    assert single.tobytes() == sosfilt(sos, samples, axis=0).tobytes()
    if p >= length:  # both reject a pad that reaches the signal's length
        with pytest.raises(ValueError):
            sosfiltfilt(sos, samples, axis=0, padtype="odd", padlen=p)
        with pytest.raises(ValueError, match=f"padlen {p} must be below the signal length {length}"):
            butterworth_lowpass(samples, rate, order=order, padlen=padlen)
        return
    expected = sosfiltfilt(sos, samples, axis=0, padtype="odd", padlen=p)
    filtered = butterworth_lowpass(samples, rate, order=order, padlen=padlen)
    assert filtered.shape == expected.shape and filtered.flags.c_contiguous
    assert filtered.tobytes() == expected.tobytes()


RATES = [FS, 999.9999999999991, 1000.0000000005542, 200.0, 960.0, 2000.0, 240.0]  # the first three: written GRF rates


@pytest.mark.parametrize("order", range(1, 11))
def test_design_and_initial_state_are_scipy_signal_bit_for_bit(order):
    from scipy.signal import butter, sosfilt_zi

    for rate in RATES:
        nyquist = rate / 2.0
        below = np.nextafter(nyquist, 0.0)
        for cutoff in (0.5, 6.0, 20.0, rate / 4.0, 0.3 * rate, 0.45 * rate, 0.499 * rate, np.nextafter(below, 0.0), below):
            sos = butter(order, cutoff, btype="low", fs=rate, output="sos")
            assert _butter_sos(order, cutoff, rate).tobytes() == sos.tobytes(), (rate, cutoff)
            assert _sos_zi(order, cutoff, rate).tobytes() == sosfilt_zi(sos).tobytes(), (rate, cutoff)


def _python(code):
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_filtering_loads_the_kernel_without_scipy_signal_and_a_later_import_shares_it():
    code = (
        "import sys, numpy as np\n"
        "from compredict.signal import _sosfilt, butterworth_lowpass\n"
        "x = np.random.default_rng(3).normal(size=(500, 3))\n"
        "y = butterworth_lowpass(x, 1000.0)\n"
        "print('scipy.signal' in sys.modules, 'scipy.signal._sosfilt' in sys.modules)\n"
        "from scipy.signal import butter, sosfiltfilt\n"
        "sos = butter(5, 20.0, fs=1000.0, output='sos')\n"
        "print(sosfiltfilt(sos, x, axis=0, padlen=33).tobytes() == y.tobytes())\n"
        "print(sys.modules['scipy.signal._signaltools']._sosfilt is _sosfilt())\n"
    )
    assert _python(code) == ["False", "True", "True", "True"]


def test_filtering_after_scipy_signal_uses_its_kernel():
    code = (
        "import sys, numpy as np\n"
        "from scipy.signal import butter, sosfiltfilt\n"
        "from scipy.signal._sosfilt import _sosfilt as kernel\n"
        "from compredict.signal import _sosfilt, butterworth_lowpass\n"
        "x = np.random.default_rng(4).normal(size=(500, 3))\n"
        "sos = butter(5, 20.0, fs=1000.0, output='sos')\n"
        "print(sosfiltfilt(sos, x, axis=0, padlen=33).tobytes() == butterworth_lowpass(x, 1000.0).tobytes())\n"
        "print(_sosfilt() is kernel)\n"
    )
    assert _python(code) == ["True", "True"]


def test_a_missing_kernel_file_raises_naming_the_paths_searched():
    code = (
        "import importlib.machinery\n"
        "importlib.machinery.EXTENSION_SUFFIXES[:] = ['.missing']\n"
        "from compredict.signal import _sosfilt\n"
        "try:\n"
        "    _sosfilt()\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    )
    message = " ".join(_python(code))
    assert message.startswith("scipy's sosfilt kernel not found; searched ")
    assert message.endswith(os.path.join("scipy", "signal", "_sosfilt.missing"))


def test_zero_phase_filter_peaks_at_two_copies_of_its_input():
    # the samples are copied into one padded buffer that both passes filter
    # in place; only one axis's row is copied to reverse it, and the trimmed
    # result is copied out
    samples = np.random.default_rng(6).normal(size=(60_000, 3)) * 300.0
    butterworth_lowpass(samples, FS)  # designs the filter and loads the kernel first
    tracemalloc.start()
    try:
        butterworth_lowpass(samples, FS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * samples.nbytes


def test_zero_phase_chain_peaks_at_two_copies_of_its_input():
    # the clamp writes into the filter's padded buffer, and only every fifth
    # row of the trimmed result is copied out: no clamped copy and no
    # full-length result (3.01 copies when each step made its own)
    samples = np.random.default_rng(7).normal(size=(60_000, 3)) * 300.0
    preprocess(samples, FS, ((100, 59_000),), downsample_factor=5)  # designs the filter first
    tracemalloc.start()
    try:
        out = preprocess(samples, FS, ((100, 59_000),), downsample_factor=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (12_000, 3)
    assert peak <= 2.1 * samples.nbytes


def test_filter_rejects_cutoff_at_nyquist():
    samples = tone(5.0, seconds=1.0)
    with pytest.raises(ValueError, match="Nyquist"):
        butterworth_lowpass(samples, FS, order=5, cutoff_hz=500.0)
    with pytest.raises(ValueError, match="order"):
        butterworth_lowpass(samples, FS, order=0, cutoff_hz=20.0)
    with pytest.raises(ValueError, match="cutoff"):
        butterworth_lowpass(samples, FS, order=5, cutoff_hz=float("nan"))


@pytest.mark.parametrize("zero_phase", [True, False])
def test_filter_rejects_a_negative_padlen(zero_phase):
    # a negative pad once filtered unpadded, as padlen=0 does, without a word
    samples = tone(5.0, seconds=1.0)
    with pytest.raises(ValueError, match="padlen must be >= 0, got -5"):
        butterworth_lowpass(samples, FS, zero_phase=zero_phase, padlen=-5)
    assert butterworth_lowpass(samples, FS, padlen=0).shape == samples.shape


def test_downsample_identity_and_phase():
    samples = np.arange(30, dtype=float).reshape(10, 3)
    out = preprocess(samples, FS, ((0, 9),), downsample_factor=5, apply_filter=False)
    assert len(out) == 2
    assert_array_equal(out[0], samples[0])
    assert_array_equal(out[1], samples[5])
    with pytest.raises(ValueError, match="factor"):
        preprocess(samples, FS, ((0, 9),), downsample_factor=0, apply_filter=False)


def test_downsample_keeps_every_fifth_index():
    n = 1000
    samples = np.zeros((n, 3))
    samples[:, 0] = np.arange(n)
    out = preprocess(samples, FS, ((0, n - 1),), downsample_factor=5, apply_filter=False)
    assert_array_equal(out[:, 0], np.arange(0, n, 5, dtype=float))


def test_detect_contact_on_quiet_series():
    assert detect_contact(np.zeros((500, 3)), rise_threshold=20.0) == []
    noisy = np.random.default_rng(2).uniform(0.0, 15.0, size=(500, 3))
    assert detect_contact(noisy, rise_threshold=20.0) == []


def test_detect_contact_step():
    samples = np.zeros((300, 3))
    samples[100:, 1] = 700.0
    assert detect_contact(samples, rise_threshold=20.0, hold_samples=5) == [(100, 299)]


def test_detect_contact_ignores_short_spikes():
    samples = np.zeros((300, 3))
    samples[50:53, 1] = 500.0  # 3-sample spike
    samples[100:200, 1] = 500.0
    assert detect_contact(samples, rise_threshold=20.0, hold_samples=5) == [(100, 199)]


@pytest.mark.parametrize("threshold", [0.0, -5.0, float("nan")])
def test_detect_contact_rejects_a_threshold_that_is_not_positive(threshold):
    with pytest.raises(ValueError):
        detect_contact(np.zeros((10, 3)), rise_threshold=threshold)


# vertical force levels: 0 and 15 N lie below the 20 N threshold, 20 N is not
# above it, and 21 and 700 N are
VERTICAL_LEVELS = st.lists(st.sampled_from([0.0, 15.0, 20.0, 21.0, 700.0]), max_size=40)


@settings(max_examples=300, deadline=None)
@example(vertical=[700.0] * 10, hold_samples=10)  # all above, one run of exactly hold_samples
@example(vertical=[700.0] * 10, hold_samples=11)
@example(vertical=[15.0] * 10, hold_samples=1)  # none above
@example(vertical=[700.0] * 3 + [0.0] + [700.0] * 4, hold_samples=3)  # runs at both ends
@example(vertical=[], hold_samples=1)
@given(
    vertical=st.one_of(
        VERTICAL_LEVELS,
        # runs touching either end, and exactly hold_samples long
        st.tuples(st.integers(0, 6), st.integers(1, 6), st.integers(0, 6)).map(
            lambda lengths: [700.0] * lengths[0] + [0.0] * lengths[1] + [700.0] * lengths[2]
        ),
    ),
    hold_samples=st.integers(1, 6),
)
def test_detect_contact_matches_the_loop(vertical, hold_samples):
    samples = np.zeros((len(vertical), 3))
    samples[:, 1] = vertical
    expected = detect_contact_by_loop(vertical, 20.0, hold_samples)
    assert detect_contact(samples, 20.0, hold_samples) == expected


def test_lowpassed_tone_survives_downsampling_without_artifacts():
    # 60 Hz is below the new 100 Hz Nyquist: away from the edge transients the
    # chain output is the attenuated tone and nothing else above -80 dB
    samples = tone(60.0, seconds=3.0)
    out = preprocess(samples, FS, ((0, len(samples) - 1),), downsample_factor=5)
    interior = out[200:400, 0]  # 1 s of steady state, whole cycles
    spectrum = np.abs(np.fft.rfft(interior)) / (len(interior) / 2.0)
    freqs = np.fft.rfftfreq(len(interior), d=5.0 / FS)
    off_tone = np.abs(freqs - 60.0) > 1.0
    assert np.max(spectrum[off_tone]) < 1e-4


def reference_chain(samples, rate, intervals, factor, order, mode, padlen):
    """np.where clamp -> scipy.signal's filter for the mode -> every factor-th row."""
    from scipy.signal import butter, sosfilt, sosfiltfilt

    keep = np.zeros(len(samples), dtype=bool)
    for start, end in intervals:
        keep[start : end + 1] = True
    clamped = np.where(keep[:, None], samples, 0.0)
    if mode == "none":
        return clamped[::factor]
    sos = butter(order, 20.0, btype="low", fs=rate, output="sos")
    if mode == "causal":
        return sosfilt(sos, clamped, axis=0)[::factor]
    p = 3 * (2 * order + 1) if padlen is None else padlen
    return sosfiltfilt(sos, clamped, axis=0, padtype="odd", padlen=p)[::factor]


@st.composite
def chain_inputs(draw):
    """Forces with stretches of exact +0.0 and -0.0, sorted contact intervals,
    and a padlen that may reach the length or pass it."""
    length = draw(st.integers(1, 400))
    samples = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(length, 3)) * 300.0
    for start, size, zero, column in draw(st.lists(st.tuples(
        st.integers(0, length - 1), st.integers(1, 60), st.sampled_from([0.0, -0.0]), st.integers(-1, 2),
    ), max_size=4)):
        samples[start : start + size, slice(None) if column < 0 else column] = zero
    cuts = sorted(draw(st.lists(st.integers(0, length - 1), unique=True, max_size=6)))
    intervals = tuple(zip(cuts[::2], cuts[1::2]))
    padlen = draw(st.one_of(st.none(), st.integers(0, length + 2)))
    return samples, intervals, padlen


@settings(max_examples=300, deadline=None)
@given(
    inputs=chain_inputs(),
    mode=st.sampled_from(["zero_phase", "causal", "none"]),
    factor=st.integers(1, 7),
    order=st.integers(1, 8),
    rate=st.sampled_from([FS, 999.9999999999991, 200.0]),  # 999.99...: the written GRF files' rate
)
@example(inputs=(np.full((50, 3), -0.0), ((10, 30),), None), mode="zero_phase", factor=5, order=5, rate=FS)
@example(inputs=(np.full((50, 3), -0.0), ((0, 49),), 0), mode="none", factor=3, order=5, rate=FS)
@example(inputs=(np.ones((33, 3)), ((0, 32),), None), mode="zero_phase", factor=1, order=5, rate=FS)
@example(inputs=(np.ones((40, 3)), (), 40), mode="zero_phase", factor=2, order=2, rate=200.0)
def test_preprocess_is_the_reference_chain_byte_for_byte(inputs, mode, factor, order, rate):
    # tobytes() tells +0.0 from -0.0, which assert_array_equal does not
    samples, intervals, padlen = inputs
    call = functools.partial(
        preprocess, samples, rate, intervals, downsample_factor=factor, order=order,
        zero_phase=mode == "zero_phase", padlen=padlen, apply_filter=mode != "none",
    )
    p = 3 * (2 * order + 1) if padlen is None else padlen
    if mode == "zero_phase" and p >= len(samples):  # both reject a pad that reaches the length
        with pytest.raises(ValueError):
            reference_chain(samples, rate, intervals, factor, order, mode, padlen)
        with pytest.raises(ValueError, match=f"^padlen {p} must be below the signal length {len(samples)}$"):
            call()
        return
    expected = reference_chain(samples, rate, intervals, factor, order, mode, padlen)
    out = call()
    assert out.shape == expected.shape and out.flags.c_contiguous
    assert out.tobytes() == expected.tobytes()


def test_preprocess_can_skip_filter():
    samples = np.random.default_rng(4).normal(size=(1000, 3))
    out = preprocess(samples, FS, ((0, 999),), downsample_factor=5, apply_filter=False)
    assert_array_equal(out, samples[::5])


def test_importing_the_cli_leaves_scipy_signal_unimported():
    # scipy.signal takes about a second to import, and filtering needs only its
    # kernel; scipy.stats costs as much, and scipy.special gives the statistics
    # all they need, imported on the first statistic (~23 MiB, ~0.18 s)
    code = "import sys, compredict.cli; print(sorted({'scipy.signal', 'scipy.special', 'scipy.stats'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
