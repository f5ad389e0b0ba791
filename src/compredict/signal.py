"""Ground reaction force preprocessing.

Raw force-plate data is cleaned in three steps, in order: samples outside
the labeled contact intervals are clamped to zero (plate noise and
crosstalk while nothing touches the plate), each axis is lowpass filtered
(5th-order Butterworth at 20 Hz by default), and the series is downsampled
to the marker rate.

The filter runs as cascaded second-order sections for numerical stability
at low normalized cutoffs. Zero-phase (forward-backward) filtering with
odd-reflection padding is the default so filtered forces stay aligned with
the marker-derived kinematics; note the two passes square the magnitude
response, so single-pass mode is what matches the nominal -3 dB cutoff.
A filter design is computed once per (order, cutoff, rate) and reused.
`scipy.signal` takes about a second to import, so it is imported on first
use and commands that never filter (synth, analyze, report) skip it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

VERTICAL_AXIS = 1  # Y is up


@dataclass(frozen=True)
class ForceSeries:
    """3D force samples (newtons) at a fixed rate, with contact intervals.

    contact_intervals are inclusive (start, end) sample-index pairs at this
    series' rate; they must be sorted, non-overlapping, and in bounds.
    """

    sample_rate: float
    samples: np.ndarray
    contact_intervals: tuple = ()

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 3:
            raise ValueError(f"samples must be (n, 3), got {samples.shape}")
        object.__setattr__(self, "samples", samples)
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        intervals = tuple((int(a), int(b)) for a, b in self.contact_intervals)
        last_end = -1
        for start, end in intervals:
            if start > end:
                raise ValueError(f"interval ({start}, {end}) is reversed")
            if start <= last_end:
                raise ValueError("contact intervals must be sorted and non-overlapping")
            if start < 0 or end >= len(samples):
                raise ValueError(
                    f"interval ({start}, {end}) outside series of {len(samples)} samples"
                )
            last_end = end
        object.__setattr__(self, "contact_intervals", intervals)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class FilterSpec:
    """Lowpass Butterworth design: order and cutoff frequency."""

    order: int = 5
    cutoff_hz: float = 20.0

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if not self.cutoff_hz > 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff_hz}")

    def validate_for(self, sample_rate: float) -> None:
        if self.cutoff_hz >= sample_rate / 2.0:
            raise ValueError(
                f"cutoff {self.cutoff_hz} Hz is at or above Nyquist "
                f"({sample_rate / 2.0} Hz)"
            )

    def default_padlen(self) -> int:
        return 3 * (2 * self.order + 1)


def clamp_noncontact(series: ForceSeries) -> ForceSeries:
    """Zero every sample outside the contact intervals; contact samples are
    passed through untouched. No intervals means no contact anywhere."""
    keep = np.zeros(len(series), dtype=bool)
    for start, end in series.contact_intervals:
        keep[start : end + 1] = True
    clamped = np.where(keep[:, None], series.samples, 0.0)
    return replace(series, samples=clamped)


@functools.lru_cache(maxsize=32, typed=True)
def _butter_sos(order: int, cutoff_hz: float, sample_rate: float) -> np.ndarray:
    from scipy.signal import butter

    return butter(order, cutoff_hz, btype="low", fs=sample_rate, output="sos")


def butterworth_lowpass(
    series: ForceSeries,
    spec: FilterSpec = FilterSpec(),
    zero_phase: bool = True,
    padlen: int | None = None,
) -> ForceSeries:
    """Lowpass each axis independently through second-order sections.

    zero_phase applies the filter forward and backward over an odd-reflected
    extension of the signal (padlen samples per side, default
    3*(2*order+1)), cancelling the phase; otherwise a single causal pass is
    used.
    """
    from scipy.signal import sosfilt, sosfiltfilt

    spec.validate_for(series.sample_rate)
    # each call gets its own copy of the shared design
    sos = _butter_sos(spec.order, spec.cutoff_hz, series.sample_rate).copy()
    if zero_phase:
        if padlen is None:
            padlen = spec.default_padlen()
        filtered = sosfiltfilt(sos, series.samples, axis=0, padtype="odd", padlen=padlen)
    else:
        filtered = sosfilt(sos, series.samples, axis=0)
    return replace(series, samples=np.ascontiguousarray(filtered))


def downsample(series: ForceSeries, factor: int) -> ForceSeries:
    """Keep every factor-th sample starting from the first.

    The series must already be band-limited below the new Nyquist; contact
    intervals are mapped to the surviving indices (and dropped if none of
    their samples survive).
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return series
    kept = series.samples[::factor]
    intervals = []
    for start, end in series.contact_intervals:
        new_start = (start + factor - 1) // factor  # first kept index >= start
        new_end = end // factor  # last kept index <= end
        if new_start <= new_end:
            intervals.append((new_start, new_end))
    return ForceSeries(
        sample_rate=series.sample_rate / factor,
        samples=kept.copy(),
        contact_intervals=tuple(intervals),
    )


def detect_contact(
    series: ForceSeries, rise_threshold: float, hold_samples: int = 5
) -> list[tuple[int, int]]:
    """Intervals where vertical force stays above the threshold.

    A run must last at least hold_samples to count (brief noise spikes are
    ignored). This is a convenience for unlabeled data; labeled intervals
    from a manifest always take precedence.
    """
    if not rise_threshold > 0:
        raise ValueError(f"rise_threshold must be positive, got {rise_threshold}")
    if hold_samples < 1:
        raise ValueError(f"hold_samples must be >= 1, got {hold_samples}")
    above = series.samples[:, VERTICAL_AXIS] > rise_threshold
    intervals: list[tuple[int, int]] = []
    start = None
    for i, flag in enumerate(above):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= hold_samples:
                intervals.append((start, i - 1))
            start = None
    if start is not None and len(above) - start >= hold_samples:
        intervals.append((start, len(above) - 1))
    return intervals


def preprocess(
    series: ForceSeries,
    spec: FilterSpec = FilterSpec(),
    zero_phase: bool = True,
    padlen: int | None = None,
    downsample_factor: int = 1,
    apply_filter: bool = True,
) -> ForceSeries:
    """Full chain: clamp -> lowpass -> downsample."""
    out = clamp_noncontact(series)
    if apply_filter:
        out = butterworth_lowpass(out, spec, zero_phase=zero_phase, padlen=padlen)
    return downsample(out, downsample_factor)
