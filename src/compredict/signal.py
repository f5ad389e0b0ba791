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
The design and its initial state are a numpy port of scipy.signal's
`butter(..., output="sos")` and `sosfilt_zi` for this one case, bit for
bit; the recursion is scipy's own compiled sosfilt kernel, loaded without
the `scipy.signal` package, whose import took about a second and ~50 MiB.
The zero-phase path is `scipy.signal.sosfiltfilt` bit for bit, run here in
place in one padded buffer in the kernel's (axes, samples) layout. In
`preprocess` the clamp, too, writes into that buffer, and only the kept
rows are copied out, so the whole chain peaks at that buffer, one axis's
row and the kept rows. A design and its initial state are computed once per (order,
cutoff, rate) and reused.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

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


def _cplxreal(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy.signal's `_cplxreal` at its default tolerance: one value per
    conjugate pair (the mean of the two, positive imaginary part), then the
    real values, each group sorted by real part."""
    tol = 100 * np.finfo(float).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real = abs(z.imag) <= tol * abs(z)
    zr = z[real].real
    if len(zr) == len(z):
        return np.array([]), zr
    z = z[~real]
    zp, zn = z[z.imag > 0], z[z.imag < 0]
    # runs of (nearly) the same real part are sorted by imaginary part
    same_real = np.diff(zp.real) <= tol * abs(zp[:-1])
    edges = np.diff(np.concatenate(([0], same_real, [0])))
    for start, stop in zip(np.nonzero(edges > 0)[0], np.nonzero(edges < 0)[0] + 1):
        for chunk in (zp[start:stop], zn[start:stop]):
            chunk[...] = chunk[np.lexsort([abs(chunk.imag)])]
    return (zp + zn.conj()) / 2, zr


def _poly(roots) -> np.ndarray:
    """scipy.signal's `poly` for roots that are real or conjugate pairs: the
    monic polynomial's real coefficients, highest power first."""
    roots = np.asarray(roots)
    coefficients = np.ones((1,), dtype=roots.dtype)
    for root in roots:
        coefficients = np.convolve(coefficients, np.stack((np.ones_like(roots[0]), -root)), mode="full")
    return coefficients.real


@functools.lru_cache(maxsize=32, typed=True)
def _butter_sos(order: int, cutoff_hz: float, sample_rate: float) -> np.ndarray:
    """butter(order, cutoff_hz, btype="low", fs=sample_rate, output="sos")
    bit for bit: scipy.signal's operations in its order, for this one case."""
    # buttap's analog poles (the middle one exactly real), iirfilter's
    # cutoff pre-warped at fs = 2, lp2lp_zpk, then bilinear_zpk
    poles = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=np.float64) / (2 * order))
    warped = float(4.0 * np.tan(np.pi * (np.float64(cutoff_hz) / (float(sample_rate) / 2)) / 2.0))
    poles = warped * poles
    gain = warped**order * np.real(1.0 / np.prod(4.0 - poles))
    poles = (4.0 + poles) / (4.0 - poles)
    # zpk2sos with "nearest" pairing: an odd order gains a pole and a zero at
    # 0; every other zero is at -1 (Nyquist)
    zeros = np.array([-1.0] * order + [0.0] * (order % 2))
    if order % 2:
        poles = np.concatenate((poles, [0.0]))
    poles = np.concatenate(_cplxreal(poles))
    sos = np.zeros(((order + 1) // 2, 6))
    # the sections are filled last to first, each from the pole nearest the
    # unit circle, its conjugate (or the real pole nearest the circle after
    # it) and the two zeros nearest it
    for section in range(len(sos) - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(poles)))
        p1, poles = poles[i], np.delete(poles, i)
        if np.isreal(p1):
            real = np.flatnonzero(np.isreal(poles))
            i = real[np.argmin(np.abs(1 - np.abs(poles[real])))]
            p2, poles = poles[i], np.delete(poles, i)
        else:
            p2 = p1.conj()
        pair = []
        for _ in range(2):
            i = np.argsort(np.abs(zeros - p1))[0]
            pair.append(zeros[i])
            zeros = np.delete(zeros, i)
        sos[section, :3] = _poly(pair)
        sos[section, 3:] = _poly([p1, p2])
    sos[0, :3] *= gain
    return sos


@functools.lru_cache(maxsize=32, typed=True)
def _sos_zi(order: int, cutoff_hz: float, sample_rate: float) -> np.ndarray:
    """sosfilt_zi of the design, bit for bit, (sections, 2): each section's
    step-response state (lfilter_zi) scaled by the DC gain before it. A pass
    scales it by its first sample."""
    sos = _butter_sos(order, cutoff_hz, sample_rate)
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for section, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        # zi = A zi + B for the section's companion matrix A; a[0] is 1
        companion = np.array([[-a[1], -a[2]], [1.0, 0.0]])
        zi[section] = scale * np.linalg.solve(np.eye(2) - companion.T, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


_KERNEL = "scipy.signal._sosfilt"


@functools.cache
def _sosfilt():
    """scipy's compiled `_sosfilt(sos, x, zi)`, which filters each row of a
    C-contiguous (k, m) x in place from the (k, sections, 2) state zi. It
    writes only x and zi, so every call can pass the cached design.

    Its extension file is loaded on its own, without the `scipy.signal`
    package, and registered under its name, so a later `import
    scipy.signal` reuses it; an earlier one's module is used as is.
    """
    module = sys.modules.get(_KERNEL)
    if module is None:
        paths = [
            os.path.join(base, "signal", "_sosfilt" + suffix)
            for base in importlib.util.find_spec("scipy").submodule_search_locations
            for suffix in importlib.machinery.EXTENSION_SUFFIXES
        ]
        path = next((path for path in paths if os.path.isfile(path)), None)
        if path is None:
            raise ImportError(f"scipy's sosfilt kernel not found; searched {', '.join(paths)}")
        loader = importlib.machinery.ExtensionFileLoader(_KERNEL, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_KERNEL, loader))
        sys.modules[_KERNEL] = module
        loader.exec_module(module)
    return module._sosfilt


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

    All of it runs in place in one padded (3, n + 2*padlen) buffer, the
    kernel's own layout: each pass filters it, and between the passes each
    axis's row is reversed in turn. A call peaks at that buffer, one row's
    reversal temporary and the result.
    """
    if padlen is None:
        padlen = 3 * (2 * order + 1)
    n = len(samples)
    if padlen >= n:
        raise ValueError(f"padlen {padlen} must be below the signal length {n}")
    sos = _butter_sos(order, cutoff_hz, sample_rate)
    zi = _sos_zi(order, cutoff_hz, sample_rate)
    padded = np.empty((3, n + 2 * padlen))
    middle = padded[:, padlen : padlen + n]
    middle[...] = samples.T
    for rows in zero_rows:
        middle[:, rows] = 0.0
    # scipy.signal's odd extension, written into the buffer's ends
    np.subtract(2 * middle[:, :1], middle[:, padlen:0:-1], out=padded[:, :padlen])
    np.subtract(2 * middle[:, -1:], middle[:, -2 : -padlen - 2 : -1], out=padded[:, padlen + n :])
    del middle
    kernel = _sosfilt()
    kernel(sos, padded, zi * padded[:, :1, None])
    for row in padded:
        row[...] = row[::-1]
    kernel(sos, padded, zi * padded[:, :1, None])
    return np.ascontiguousarray(padded[:, ::-1][:, padlen : padlen + n : step].T)


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
    sos = _butter_sos(order, cutoff_hz, sample_rate)
    out = np.array(samples.T, order="C")
    _sosfilt()(sos, out, np.zeros((3, len(sos), 2)))
    return np.ascontiguousarray(out.T)


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
