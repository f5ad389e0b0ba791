"""Ground reaction force preprocessing on plain (n, 3) arrays of newtons.

Raw force-plate data is cleaned in three steps, in order: samples outside
the labeled contact intervals are clamped to zero (plate noise and
crosstalk while nothing touches the plate), each axis is lowpass filtered
(5th-order Butterworth at 20 Hz by default), and every factor-th sample is
kept to reach the marker rate. Unlabeled data gets its contact intervals
from the edges of the mask of samples whose vertical force is above a
threshold. The chain's steps take and return arrays; the sample rate,
intervals and filter design are plain arguments.

The filter runs as cascaded second-order sections for numerical stability
at low normalized cutoffs. Zero-phase (forward-backward) filtering with
odd-reflection padding is the default so filtered forces stay aligned with
the marker-derived kinematics; note the two passes square the magnitude
response, so single-pass mode is what matches the nominal -3 dB cutoff.
The zero-phase path is `scipy.signal.sosfiltfilt` bit for bit, run here
step by step in one padded buffer: the odd extension is built in place, and
each pass's input is dropped before the next, so a call peaks at two copies
of its input. In `preprocess` the clamp, too, writes into that buffer, and
only the kept rows are copied out, so the whole chain peaks there as well.
A filter design and its initial state are computed once per (order,
cutoff, rate) and reused.
`scipy.signal` takes about a second to import, so it is imported on first
use and commands that never filter (synth, analyze) skip it.
Which process loads trials, and so imports it, is `pipeline.loaded_entries`'
rule.
"""

from __future__ import annotations

import functools

import numpy as np

from .dynamics import VERTICAL_AXIS


def _as_forces(samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise ValueError(f"samples must be (n, 3), got {samples.shape}")
    return samples


def check_contact_intervals(intervals, n_samples: int) -> tuple:
    """The intervals as a tuple of integer (start, end) pairs, checked to be
    inclusive sample-index pairs that are sorted, non-overlapping and inside
    a series of n_samples samples."""
    intervals = tuple((int(a), int(b)) for a, b in intervals)
    last_end = -1
    for start, end in intervals:
        if start > end:
            raise ValueError(f"interval ({start}, {end}) is reversed")
        if start < 0 or end >= n_samples:
            raise ValueError(f"interval ({start}, {end}) outside series of {n_samples} samples")
        if start <= last_end:
            raise ValueError("contact intervals must be sorted and non-overlapping")
        last_end = end
    return intervals


def _noncontact_rows(intervals, n_samples: int) -> list[slice]:
    """The row slices of a series of n_samples samples that lie outside the
    contact intervals, which are checked first."""
    rows, last = [], 0
    for start, end in check_contact_intervals(intervals, n_samples):
        rows.append(slice(last, start))
        last = end + 1
    rows.append(slice(last, n_samples))
    return rows


def clamp_noncontact(samples: np.ndarray, intervals) -> np.ndarray:
    """Zero every sample outside the contact intervals; contact samples are
    passed through untouched. No intervals means no contact anywhere."""
    keep = np.ones(len(samples), dtype=bool)
    for rows in _noncontact_rows(intervals, len(samples)):
        keep[rows] = False
    return np.where(keep[:, None], samples, 0.0)


@functools.lru_cache(maxsize=32, typed=True)
def _butter_sos(order: int, cutoff_hz: float, sample_rate: float) -> np.ndarray:
    from scipy.signal import butter

    return butter(order, cutoff_hz, btype="low", fs=sample_rate, output="sos")


@functools.lru_cache(maxsize=32, typed=True)
def _sos_zi(order: int, cutoff_hz: float, sample_rate: float) -> np.ndarray:
    """The design's step-response initial state, (sections, 2, 1), which a
    pass scales by its first (1, 3) sample."""
    from scipy.signal import sosfilt_zi

    return sosfilt_zi(_butter_sos(order, cutoff_hz, sample_rate))[:, :, None]


def _check_filter(sample_rate: float, order: int, cutoff_hz: float, padlen: int | None) -> None:
    if not sample_rate > 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if padlen is not None and padlen < 0:
        raise ValueError(f"padlen must be >= 0, got {padlen}")
    if not cutoff_hz > 0:
        raise ValueError(f"cutoff must be positive, got {cutoff_hz}")
    if cutoff_hz >= sample_rate / 2.0:
        raise ValueError(f"cutoff {cutoff_hz} Hz is at or above Nyquist ({sample_rate / 2.0} Hz)")


def _zero_phase(
    samples: np.ndarray, sample_rate: float, order: int, cutoff_hz: float, padlen: int | None,
    zero_rows=(), step: int = 1,
) -> np.ndarray:
    """sosfiltfilt(sos, samples, axis=0, padtype="odd", padlen=padlen)[::step]
    of the checked design, bit for bit and C-contiguous, after the rows in
    zero_rows are set to +0.0 as clamp_noncontact sets them.

    All of it runs in one padded buffer that only this frame refers to
    (CPython 3.10 would hold a passed-in buffer until the call returns), so
    each pass's input is freed before the next, and a call peaks at two
    copies of the buffer.
    """
    from scipy.signal import sosfilt

    if padlen is None:
        padlen = 3 * (2 * order + 1)
    n = len(samples)
    if padlen >= n:
        raise ValueError(f"padlen {padlen} must be below the signal length {n}")
    # each call gets its own copy of the shared design
    sos = _butter_sos(order, cutoff_hz, sample_rate).copy()
    zi = _sos_zi(order, cutoff_hz, sample_rate)
    padded = np.empty((n + 2 * padlen, 3))
    middle = padded[padlen : padlen + n]
    middle[...] = samples
    for rows in zero_rows:
        middle[rows] = 0.0
    # scipy.signal's odd extension, written into the buffer's ends
    np.subtract(2 * middle[:1], middle[padlen:0:-1], out=padded[:padlen])
    np.subtract(2 * middle[-1:], middle[-2 : -padlen - 2 : -1], out=padded[padlen + n :])
    del middle
    forward = sosfilt(sos, padded, axis=0, zi=zi * padded[:1])[0]
    del padded
    backward = sosfilt(sos, forward[::-1], axis=0, zi=zi * forward[-1:])[0]
    del forward
    return np.ascontiguousarray(backward[::-1][padlen : padlen + n : step])


def butterworth_lowpass(
    samples: np.ndarray, sample_rate: float, order: int = 5, cutoff_hz: float = 20.0,
    zero_phase: bool = True, padlen: int | None = None,
) -> np.ndarray:
    """Lowpass each axis independently through second-order sections.

    zero_phase applies the filter forward and backward over an odd-reflected
    extension of the signal (padlen samples per side, default
    3*(2*order+1)), cancelling the phase; otherwise a single causal pass is
    used. The cutoff must lie below the Nyquist frequency, sample_rate / 2.
    """
    samples = _as_forces(samples)
    _check_filter(sample_rate, order, cutoff_hz, padlen)
    if zero_phase:
        return _zero_phase(samples, sample_rate, order, cutoff_hz, padlen)
    from scipy.signal import sosfilt

    # each call gets its own copy of the shared design
    sos = _butter_sos(order, cutoff_hz, sample_rate).copy()
    return np.ascontiguousarray(sosfilt(sos, samples, axis=0))


def detect_contact(samples: np.ndarray, rise_threshold: float, hold_samples: int = 5) -> list[tuple[int, int]]:
    """Intervals where vertical force stays above the threshold.

    A run must last at least hold_samples to count (brief noise spikes are
    ignored). Runs are read off the rising and falling edges of the
    above-threshold mask. This is a convenience for unlabeled data; labeled
    intervals from a manifest always take precedence.
    """
    if not rise_threshold > 0:
        raise ValueError(f"rise_threshold must be positive, got {rise_threshold}")
    if hold_samples < 1:
        raise ValueError(f"hold_samples must be >= 1, got {hold_samples}")
    above = _as_forces(samples)[:, VERTICAL_AXIS] > rise_threshold
    edges = np.diff(above.astype(np.int8), prepend=0, append=0)
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    held = stops - starts >= hold_samples
    return [(int(a), int(b) - 1) for a, b in zip(starts[held], stops[held])]


def preprocess(
    samples: np.ndarray, sample_rate: float, intervals, downsample_factor: int = 1, order: int = 5,
    cutoff_hz: float = 20.0, zero_phase: bool = True, padlen: int | None = None, apply_filter: bool = True,
) -> np.ndarray:
    """Full chain: clamp to the contact intervals -> lowpass -> keep every
    downsample_factor-th sample starting from the first. The filter must
    band-limit the forces below the new Nyquist frequency."""
    if downsample_factor < 1:
        raise ValueError(f"factor must be >= 1, got {downsample_factor}")
    samples = _as_forces(samples)
    if apply_filter and zero_phase:
        # the clamp writes into the filter's padded buffer
        zero_rows = _noncontact_rows(intervals, len(samples))
        _check_filter(sample_rate, order, cutoff_hz, padlen)
        return _zero_phase(samples, sample_rate, order, cutoff_hz, padlen, zero_rows, downsample_factor)
    out = clamp_noncontact(samples, intervals)
    if apply_filter:
        out = butterworth_lowpass(out, sample_rate, order, cutoff_hz, zero_phase=False, padlen=padlen)
    return np.ascontiguousarray(out[::downsample_factor])
