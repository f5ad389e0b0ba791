"""Horizon sweeps: profile-conditioned prediction and per-sample errors.

A sweep slides a fixed-length horizon over a trial (stride 1 by default,
last start chosen so the horizon ends exactly on the final sample). For
each start the state is handed over from the reference, the assumed
acceleration profile is integrated forward, and the error at every sample
is the Euclidean distance between predicted and reference positions.

All horizon starts are evaluated together as stacked arrays through the
closed-form ZOH response: initial position, elapsed time times initial
velocity, and the input response from `_input_kernel` (or, for the oracle,
from prefix sums of the recorded inputs). This path does not step through
`dynamics.zoh_update`, so it matches stepped propagation to rounding error
only; but every element is the same expression whatever the number of
starts, so a sweep is bit-identical to predicting each horizon on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import CoMState
from .profiles import HorizonSpec, ProfileKind, cubic_decay


class TrialTooShortError(ValueError):
    """Trial has fewer samples than one horizon."""


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
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")

    @property
    def n_samples(self) -> int:
        return len(self.positions)

    def com_state(self, index: int) -> CoMState:
        return CoMState(position=self.positions[index], velocity=self.velocities[index])

    def key(self) -> tuple:
        return (self.subject_id, self.activity_id, self.repeat_index)


@dataclass
class HorizonResult:
    """Prediction outcome for one horizon start (0-based start index)."""

    start_index: int
    predicted_positions: np.ndarray = field(repr=False)
    error_series: np.ndarray = field(repr=False)
    direction_score: int = 0


def _input_kernel(n: int, dt: float, shape) -> np.ndarray:
    """Position response at sample k to a unit acceleration shape g[i].

    Summing each ZOH step's contribution gives, for k = 1..n (1-based),
    C[k] = dt^2 * sum_{i=1}^{k-1} (k - i - 1/2) g[i], evaluated here through
    the running sums of g and i*g so the whole kernel costs O(n).
    """
    g1 = np.concatenate([[0.0], np.cumsum(shape[: n - 1])])
    g2 = np.concatenate([[0.0], np.cumsum(shape[: n - 1] * np.arange(1, n))])
    k = np.arange(1, n + 1)
    return dt * dt * ((k - 0.5) * g1 - g2)


def _sweep_arrays(trial: Trial, spec: HorizonSpec, kind: ProfileKind, starts: np.ndarray):
    """Evaluate every horizon start at once via the closed-form response.

    Each predicted position is initial position + elapsed-time * initial
    velocity + the accumulated input response; the expressions are identical
    per element whatever the number of starts, so a sweep is bit-for-bit the
    same as single-start prediction. Returns (predicted positions, error
    series, direction scores) with shapes (h, n, 3), (h, n), (h,).
    """
    n = spec.n_samples
    dt = trial.dt
    kind = ProfileKind(kind)
    starts = np.asarray(starts)
    idx = starts[:, None] + np.arange(n)[None, :]

    drift = (np.arange(n) * dt)[None, :, None] * trial.velocities[starts][:, None, :]
    if kind is ProfileKind.ORACLE:
        # prefix sums turn the per-horizon convolution with the (k-i-1/2)
        # kernel into two gathers: sum_i (k-i-1/2) u[s+i-1] =
        # (s+k-3/2) * sum u[m] - sum m*u[m] over m = s .. s+k-2
        accel = trial.accel_inputs
        s1 = np.vstack([np.zeros(3), np.cumsum(accel, axis=0)])
        s2 = np.vstack([np.zeros(3), np.cumsum(accel * np.arange(len(accel))[:, None], axis=0)])
        du1 = s1[idx] - s1[starts][:, None, :]
        du2 = s2[idx] - s2[starts][:, None, :]
        response = (dt * dt) * ((idx[:, :, None] - 0.5) * du1 - du2)
    else:
        if kind is ProfileKind.ZERO:
            kernel = np.zeros(n)
        elif kind is ProfileKind.CONST:
            kernel = _input_kernel(n, dt, np.ones(n))
        else:
            kernel = _input_kernel(n, dt, cubic_decay(n))
        response = kernel[None, :, None] * trial.accel_inputs[starts][:, None, :]
    predicted = trial.positions[starts][:, None, :] + drift + response

    deltas = predicted - trial.positions[idx]
    errors = np.sqrt(np.sum(deltas * deltas, axis=2))
    errors[:, 0] = 0.0  # initial state is handed over exactly

    ref_disp = trial.positions[starts + n - 1] - trial.positions[starts]
    pred_disp = predicted[:, n - 1] - predicted[:, 0]
    # main axis = largest reference displacement; argmax ties resolve X, Y, Z
    main_axis = np.argmax(np.abs(ref_disp), axis=1)
    rows = np.arange(len(starts))
    scores = (
        np.sign(pred_disp[rows, main_axis]) == np.sign(ref_disp[rows, main_axis])
    ).astype(int)
    return predicted, errors, scores


def predict_horizon(trial: Trial, start: int, spec: HorizonSpec, kind: ProfileKind) -> HorizonResult:
    """Predict one horizon beginning at sample `start` (0-based)."""
    if trial.dt != spec.dt:
        raise ValueError(f"trial dt {trial.dt} does not match horizon dt {spec.dt}")
    if start < 0 or start + spec.n_samples > trial.n_samples:
        raise IndexError(
            f"horizon of {spec.n_samples} samples starting at {start} exceeds "
            f"trial of {trial.n_samples} samples"
        )
    predicted, errors, scores = _sweep_arrays(trial, spec, kind, np.array([start]))
    return HorizonResult(
        start_index=start,
        predicted_positions=predicted[0],
        error_series=errors[0],
        direction_score=int(scores[0]),
    )


def direction_score(trial: Trial, start: int, spec: HorizonSpec, predicted_positions) -> int:
    """1 when the predicted displacement sign matches the reference along the
    axis with the largest reference displacement, else 0 (sign of 0 is 0)."""
    predicted_positions = np.asarray(predicted_positions, dtype=float)
    last = start + spec.n_samples - 1
    ref_disp = trial.positions[last] - trial.positions[start]
    pred_disp = predicted_positions[-1] - predicted_positions[0]
    main_axis = int(np.argmax(np.abs(ref_disp)))
    return int(np.sign(pred_disp[main_axis]) == np.sign(ref_disp[main_axis]))


def _sweep_starts(trial: Trial, spec: HorizonSpec, stride: int) -> np.ndarray:
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if trial.dt != spec.dt:
        raise ValueError(f"trial dt {trial.dt} does not match horizon dt {spec.dt}")
    if trial.n_samples < spec.n_samples:
        raise TrialTooShortError(
            f"trial {trial.key()} has {trial.n_samples} samples, shorter than one "
            f"{spec.horizon_ms:g} ms horizon ({spec.n_samples} samples)"
        )
    return np.arange(0, trial.n_samples - spec.n_samples + 1, stride)


def sweep(trial: Trial, spec: HorizonSpec, kind: ProfileKind, stride: int = 1) -> list[HorizonResult]:
    """All horizons of a trial, in start order.

    Starts run 0, stride, 2*stride, ... while the horizon still fits; a trial
    shorter than one horizon is an error so callers can report the skip.
    """
    starts = _sweep_starts(trial, spec, stride)
    predicted, errors, scores = _sweep_arrays(trial, spec, kind, starts)
    return [
        HorizonResult(
            start_index=int(s),
            predicted_positions=predicted[i],
            error_series=errors[i],
            direction_score=int(scores[i]),
        )
        for i, s in enumerate(starts)
    ]


def sweep_errors(trial: Trial, spec: HorizonSpec, kind: ProfileKind, stride: int = 1):
    """Lean sweep for bulk evaluation: the (h, n) error matrix and the (h,)
    score vector, without materializing per-horizon objects."""
    starts = _sweep_starts(trial, spec, stride)
    _, errors, scores = _sweep_arrays(trial, spec, kind, starts)
    return errors, scores
