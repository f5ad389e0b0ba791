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
A filter design is computed once per (order, cutoff, rate) and reused.
`scipy.signal` takes about a second to import, so it is imported on first
use and commands that never filter (synth, analyze, report) skip it. With
two or more workers, trials load on forked processes
(`pipeline.loaded_entries`), so only those import it and the process that
sweeps never does.
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


def clamp_noncontact(samples: np.ndarray, intervals) -> np.ndarray:
    """Zero every sample outside the contact intervals; contact samples are
    passed through untouched. No intervals means no contact anywhere."""
    keep = np.zeros(len(samples), dtype=bool)
    for start, end in check_contact_intervals(intervals, len(samples)):
        keep[start : end + 1] = True
    return np.where(keep[:, None], samples, 0.0)


@functools.lru_cache(maxsize=32, typed=True)
def _butter_sos(order: int, cutoff_hz: float, sample_rate: float) -> np.ndarray:
    from scipy.signal import butter

    return butter(order, cutoff_hz, btype="low", fs=sample_rate, output="sos")


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
    from scipy.signal import sosfilt, sosfiltfilt

    # each call gets its own copy of the shared design
    sos = _butter_sos(order, cutoff_hz, sample_rate).copy()
    if zero_phase:
        if padlen is None:
            padlen = 3 * (2 * order + 1)
        filtered = sosfiltfilt(sos, samples, axis=0, padtype="odd", padlen=padlen)
    else:
        filtered = sosfilt(sos, samples, axis=0)
    return np.ascontiguousarray(filtered)


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
    out = clamp_noncontact(_as_forces(samples), intervals)
    if apply_filter:
        out = butterworth_lowpass(out, sample_rate, order, cutoff_hz, zero_phase=zero_phase, padlen=padlen)
    return out[::downsample_factor]
