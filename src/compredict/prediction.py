"""Horizon sweeps: profile-conditioned prediction and per-sample errors.

A sweep slides a fixed-length horizon over a trial (stride 1 by default,
last start chosen so the horizon ends exactly on the final sample). For each
start the state is handed over from the reference, the assumed acceleration
profile is integrated forward, and the error at every sample is the
Euclidean distance between predicted and reference positions. A start's
direction score is 1 when the predicted displacement over the horizon has
the sign of the reference displacement along the reference's largest axis.

Prediction uses the closed-form ZOH response: initial position, plus elapsed
time times initial velocity, plus the input response from `_input_kernel`
(or, for the oracle, from per-trial prefix sums of the recorded inputs).
This path does not step through `dynamics.zoh_update`, so it matches stepped
propagation to rounding error only.

One kernel, `_error_blocks`, evaluates every sweep. `SweepLayout` lays trials
back to back, component-major, so the lags of a block of starts are strided
window views of contiguous rows: no gather and no per-start copy. Every
element is the same expression whatever the block, so a sweep is
bit-identical to evaluating each start on its own. Zero, const and oracle
errors at (start, lag) do not depend on the horizon length, so one pass over
the longest horizon serves every horizon; the cubic kernel changes with the
horizon, so it takes one pass per horizon.

Two entry points share the kernel: `sweep_errors` returns one trial's (h, n)
error matrix and (h,) scores, and `sweep_session` returns only each start's
mean error, max error and score for a whole session.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .profiles import HorizonSpec, ProfileKind, cubic_decay

BLOCK_STARTS = 1024  # starts per kernel block; each work array is (BLOCK_STARTS, n)


class TrialTooShortError(ValueError):
    """Trial has fewer samples than one horizon."""

    @classmethod
    def for_horizon(cls, trial: "Trial", spec: HorizonSpec) -> "TrialTooShortError":
        return cls(
            f"trial {trial.key()} has {trial.n_samples} samples, shorter than one "
            f"{spec.horizon_ms:g} ms horizon ({spec.n_samples} samples)"
        )


@dataclass
class Trial:
    """One uniformly sampled recording: reference CoM states plus the
    acceleration inputs derived from ground reaction forces.

    positions/velocities/accel_inputs are (n, 3) arrays on a shared
    timebase with sample period dt. `is_static` marks low-displacement
    activities that are excluded from direction-accuracy metrics.
    """

    subject_id: str
    activity_id: str
    repeat_index: int
    is_static: bool
    mass: float
    dt: float
    positions: np.ndarray = field(repr=False)
    velocities: np.ndarray = field(repr=False)
    accel_inputs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        self.accel_inputs = np.asarray(self.accel_inputs, dtype=float)
        n = len(self.positions)
        for name, arr in (
            ("positions", self.positions),
            ("velocities", self.velocities),
            ("accel_inputs", self.accel_inputs),
        ):
            if arr.shape != (n, 3):
                raise ValueError(f"{name} must be (n, 3) with a shared length, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        if n < 2:
            raise ValueError(f"a trial needs at least 2 samples, got {n}")
        if self.dt <= 0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.mass <= 0 or not np.isfinite(self.mass):
            raise ValueError(f"mass must be positive, got {self.mass}")

    @property
    def n_samples(self) -> int:
        return len(self.positions)

    def key(self) -> tuple:
        return (self.subject_id, self.activity_id, self.repeat_index)


def _input_kernel(n: int, dt: float, shape) -> np.ndarray:
    """Position response at sample k to a unit acceleration shape g[i].

    Summing each ZOH step's contribution gives, for k = 1..n (1-based),
    C[k] = dt^2 * sum_{i=1}^{k-1} (k - i - 1/2) g[i], evaluated here through
    the running sums of g and i*g so the whole kernel costs O(n). The running
    sums are sequential, so a shorter kernel of the same shape is a prefix
    of a longer one.
    """
    g1 = np.concatenate([[0.0], np.cumsum(shape[: n - 1])])
    g2 = np.concatenate([[0.0], np.cumsum(shape[: n - 1] * np.arange(1, n))])
    k = np.arange(1, n + 1)
    return dt * dt * ((k - 0.5) * g1 - g2)


class SweepLayout:
    """Trials back to back, component-major, as the sweep kernel reads them.

    Trial t fills columns offsets[t] : offsets[t] + lengths[t] of the (3, L)
    `positions`, `velocities` and `accel` arrays. Each trial's segment is
    padded with zeros to a whole number of strides and the arrays end in
    n_max zero columns, so kernel row r is the start at column r * stride
    and every row's window of n_max samples lies inside the arrays. Rows
    whose horizon runs past their trial's end compute finite values that no
    caller keeps. The layout is read-only once built.
    """

    def __init__(self, trials, dt: float, n_max: int, stride: int = 1):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        for trial in trials:
            if trial.dt != dt:
                raise ValueError(f"trial dt {trial.dt} does not match horizon dt {dt}")
        self.dt, self.stride = dt, stride
        self.lengths = np.array([trial.n_samples for trial in trials], dtype=int)
        padded = -(-self.lengths // stride) * stride
        self.offsets = np.cumsum(padded) - padded
        self.rows = int(padded.sum()) // stride
        width = int(padded.sum()) + n_max
        self.positions, self.velocities, self.accel = (np.zeros((3, width)) for _ in range(3))
        left = np.zeros(width, dtype=int)  # samples from each column to its trial's end
        for trial, offset, n in zip(trials, self.offsets, self.lengths):
            self.positions[:, offset : offset + n] = trial.positions.T
            self.velocities[:, offset : offset + n] = trial.velocities.T
            self.accel[:, offset : offset + n] = trial.accel_inputs.T
            left[offset : offset + n] = np.arange(n, 0, -1)
        self.remaining = left[: self.rows * stride : stride]

    def starts(self, n: int) -> np.ndarray:
        """Number of horizon starts of n samples in each trial."""
        return np.maximum((self.lengths - n) // self.stride + 1, 0)

    def oracle_sums(self):
        """Per-trial prefix sums of the inputs, laid out like `accel`.

        At trial sample j: s1 = sum of u[m] and s2 = sum of m * u[m] over
        m < j, and half = j - 1/2; all three are 0 on padding.
        """
        s1, s2 = np.zeros_like(self.accel), np.zeros_like(self.accel)
        half = np.zeros(self.accel.shape[1])
        for offset, n in zip(self.offsets, self.lengths):
            u = self.accel[:, offset : offset + n - 1]
            m = np.arange(n)
            np.cumsum(u, axis=1, out=s1[:, offset + 1 : offset + n])
            np.cumsum(u * m[:-1], axis=1, out=s2[:, offset + 1 : offset + n])
            half[offset : offset + n] = m - 0.5
        return s1, s2, half


def _scores(ref, pred) -> np.ndarray:
    """1 where pred has the sign of ref along ref's largest axis; ref and
    pred are (3, b) displacements, and argmax ties resolve X, Y, Z."""
    axis = np.argmax(np.abs(ref), axis=0)
    cols = np.arange(ref.shape[1])
    return (np.sign(pred[axis, cols]) == np.sign(ref[axis, cols])).astype(np.int8)


class _Predictor:
    """One profile's closed-form predictions at a layout's start rows.

    `predict(c, rows)` returns component c of the predicted positions at
    lags 0..n_cols-1 of the start rows in the slice `rows` (at most
    BLOCK_STARTS of them), as a (rows, n_cols) work array that the next call
    overwrites. Each element is (P0 + (k*dt)*V0) + response[k]; the zero
    profile adds no response, which gives the same values as adding its
    zero kernel.
    """

    def __init__(self, layout: SweepLayout, kind: ProfileKind, n_cols: int):
        self.kind = ProfileKind(kind)
        step = layout.stride
        self.windows = sliding_window_view(layout.positions, n_cols, axis=1)[:, ::step]
        self.v0s, self.a0s = layout.velocities[:, ::step], layout.accel[:, ::step]
        self.lags_dt = np.arange(n_cols) * layout.dt
        self.kernel = None
        if self.kind is ProfileKind.CONST:
            self.kernel = _input_kernel(n_cols, layout.dt, np.ones(n_cols))
        elif self.kind is ProfileKind.CUBIC:
            self.kernel = _input_kernel(n_cols, layout.dt, cubic_decay(n_cols))
        elif self.kind is ProfileKind.ORACLE:
            # sum_i (k-i-1/2) u[s+i-1] = (s+k-1/2) * du1 - du2, with du the
            # prefix sums' differences between trial samples s+k and s
            s1, s2, half = layout.oracle_sums()
            self.w1 = sliding_window_view(s1, n_cols, axis=1)[:, ::step]
            self.w2 = sliding_window_view(s2, n_cols, axis=1)[:, ::step]
            self.wh = sliding_window_view(half, n_cols)[::step]
            self.dt2 = layout.dt * layout.dt
        self._work = np.empty((3, BLOCK_STARTS, n_cols))

    def predict(self, c: int, rows: slice) -> np.ndarray:
        pred, tmp, tmp2 = self._work[:, : rows.stop - rows.start]
        np.multiply(self.lags_dt, self.v0s[c, rows, None], out=pred)
        pred += self.windows[c, rows, :1]
        if self.kernel is not None:
            pred += np.multiply(self.kernel, self.a0s[c, rows, None], out=tmp)
        elif self.kind is ProfileKind.ORACLE:
            w1, w2 = self.w1[c, rows], self.w2[c, rows]
            response = np.subtract(w1, w1[:, :1], out=tmp)
            response *= self.wh[rows]
            response -= np.subtract(w2, w2[:, :1], out=tmp2)
            response *= self.dt2
            pred += response
        return pred


def _error_blocks(layout: SweepLayout, kind: ProfileKind, n_cols: int, horizons):
    """Evaluate one profile at every row of the layout, BLOCK_STARTS rows at a time.

    Yields (first row, errors, scores) per block: errors[i, k] is the error
    at lag k < n_cols of start row first + i, and scores[j] holds every
    row's direction score for a horizon of horizons[j] <= n_cols samples.
    The errors block is a work array that the next block overwrites. The
    squared components are summed as (d0^2 + d1^2) + d2^2, the order of
    `np.sum(..., axis=-1)` over three components.
    """
    predictor = _Predictor(layout, kind, n_cols)
    windows = predictor.windows
    work = np.empty((BLOCK_STARTS, n_cols))
    disp = np.empty((len(horizons), 3, BLOCK_STARTS))
    for first in range(0, layout.rows, BLOCK_STARTS):
        rows = slice(first, min(first + BLOCK_STARTS, layout.rows))
        b = rows.stop - first
        errors = work[:b]
        for c in range(3):
            pred = predictor.predict(c, rows)
            for j, n in enumerate(horizons):
                np.subtract(pred[:, n - 1], pred[:, 0], out=disp[j, c, :b])
            pred -= windows[c, rows]
            if c == 0:
                np.multiply(pred, pred, out=errors)
            else:
                pred *= pred
                errors += pred
        np.sqrt(errors, out=errors)
        errors[:, 0] = 0.0  # initial state is handed over exactly
        ends = windows[:, rows]
        scores = [
            _scores(ends[:, :, n - 1] - ends[:, :, 0], disp[j, :, :b]) for j, n in enumerate(horizons)
        ]
        yield first, errors, scores


def sweep_session(layout: SweepLayout, specs, kind: ProfileKind):
    """Every start of every trial for each horizon spec: a list, in spec
    order, of (mean errors, max errors, int8 scores) vectors.

    Each vector runs trial after trial in start order; `layout.starts(n)`
    gives each trial's share. A mean is the row mean of that start's error
    series, the same reduction as `errors.mean(axis=1)` of its trial's
    `sweep_errors` matrix.
    """
    kind = ProfileKind(kind)
    ns = [spec.n_samples for spec in specs]
    totals = [int(layout.starts(n).sum()) for n in ns]
    out = [(np.empty(h), np.empty(h), np.empty(h, dtype=np.int8)) for h in totals]
    # kernel passes as (columns, indices into ns) over the horizons that fit
    # some trial, so a longer horizon costs nothing; the cubic kernel changes with n
    live = [j for j, total in enumerate(totals) if total]
    if kind is ProfileKind.CUBIC:
        passes = [(ns[j], [j]) for j in live]
    else:
        passes = [(max(ns[j] for j in live), live)] if live else []
    for n_cols, indices in passes:
        keep = [layout.remaining >= ns[j] for j in indices]
        filled = [0] * len(indices)
        for first, errors, scores in _error_blocks(layout, kind, n_cols, [ns[j] for j in indices]):
            for i, j in enumerate(indices):
                rows = keep[i][first : first + len(errors)]
                lo, hi = filled[i], filled[i] + int(np.count_nonzero(rows))
                block = errors[:, : ns[j]]
                means, maxima, kept_scores = out[j]
                means[lo:hi] = block.mean(axis=1)[rows]
                maxima[lo:hi] = block.max(axis=1)[rows]
                kept_scores[lo:hi] = scores[i][rows]
                filled[i] = hi
    return out


def sweep_errors(trial: Trial, spec: HorizonSpec, kind: ProfileKind, stride: int = 1):
    """Every horizon of a trial, in start order: the (h, n) error matrix and
    the (h,) 0/1 int8 direction scores.

    Starts run 0, stride, 2*stride, ... while the horizon still fits; a trial
    shorter than one horizon is an error so callers can report the skip.
    """
    n = spec.n_samples
    layout = SweepLayout([trial], spec.dt, n, stride)
    if trial.n_samples < n:
        raise TrialTooShortError.for_horizon(trial, spec)
    h = int(layout.starts(n)[0])
    errors, scores = np.empty((h, n)), np.empty(h, dtype=np.int8)
    for first, block, (block_scores,) in _error_blocks(layout, kind, n, [n]):
        if first >= h:
            break
        rows = slice(first, min(first + len(block), h))
        errors[rows] = block[: rows.stop - first]
        scores[rows] = block_scores[: rows.stop - first]
    return errors, scores
