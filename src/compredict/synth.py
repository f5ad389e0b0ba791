"""Synthetic trials with known closed-form behavior.

These generators exist to validate the prediction pipeline end to end
without recorded data. References are produced by exact ZOH propagation
of the same model the predictor evaluates, so any deviation isolates the
effect of the assumed acceleration profile:

  constant_acceleration  constant true acceleration
  constant_discrepancy   constant true acceleration equal to the given
                         discrepancy, so the zero profile is off by exactly
                         that constant at every step
  sinusoid               sinusoidal acceleration along X (inputs sampled at
                         interval midpoints, keeping the discrete reference
                         within O(dt^2) of the continuous trajectory)
  piecewise_constant     scheduled constant segments, e.g. a mid-trial sign
                         reversal that stresses direction prediction

For a constant input discrepancy c the predicted and reference positions
separate by a closed-form amount at every sample, which gives the exact
expected values for the error metrics (`analytic_error`, `expected_ae`,
`expected_me`) and average errors that grow quadratically with horizon
length, as the trend fits of `pipeline.run_pipeline` should find.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import zoh_update
from .prediction import Trial

KINDS = ("constant_acceleration", "constant_discrepancy", "sinusoid", "piecewise_constant")


def _vec3_or_scalar(value, name: str) -> np.ndarray:
    """Scalars act along X; vectors are used as-is."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.array([float(arr), 0.0, 0.0])
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a scalar or 3-vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic trial.

    duration must be a whole number of sample periods. Kind-specific fields:
    accel (constant kinds), amplitude/frequency_hz (sinusoid), segments as
    (duration_s, accel) pairs (piecewise_constant). noise_amplitude adds
    seeded uniform noise to the stored acceleration inputs only, leaving the
    reference trajectory untouched (models a drifting oracle).
    """

    kind: str
    duration: float
    dt: float
    mass: float = 70.0
    accel: object = 0.0
    amplitude: float = 1.0
    frequency_hz: float = 1.0
    segments: tuple = ()
    initial_position: object = None
    initial_velocity: object = None
    noise_amplitude: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown synthetic kind {self.kind!r}; expected one of {KINDS}")
        if self.dt <= 0 or self.duration <= 0:
            raise ValueError("duration and dt must be positive")
        steps = self.duration / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"duration {self.duration} s is not a whole number of {self.dt} s samples"
            )
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.kind == "piecewise_constant":
            if not self.segments:
                raise ValueError("piecewise_constant needs at least one segment")
            for seg in self.segments:
                if len(seg) != 2 or seg[0] <= 0:
                    raise ValueError(f"segments must be (duration_s, accel) pairs, got {seg!r}")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration / self.dt)) + 1


def _continuous_accel(spec: SyntheticSpec, times: np.ndarray) -> np.ndarray:
    """True acceleration a(t) evaluated at the given times, shape (len, 3)."""
    out = np.zeros((len(times), 3))
    if spec.kind in ("constant_acceleration", "constant_discrepancy"):
        out[:] = _vec3_or_scalar(spec.accel, "accel")
    elif spec.kind == "sinusoid":
        out[:, 0] = spec.amplitude * np.sin(2.0 * np.pi * spec.frequency_hz * times)
    else:  # piecewise_constant
        bounds = np.cumsum([0.0] + [float(d) for d, _ in spec.segments])
        for (_, seg_accel), lo, hi in zip(spec.segments, bounds[:-1], bounds[1:]):
            mask = (times >= lo) & (times < hi)
            out[mask] = _vec3_or_scalar(seg_accel, "segment accel")
        out[times >= bounds[-1]] = _vec3_or_scalar(spec.segments[-1][1], "segment accel")
    return out


def make_trial(
    spec: SyntheticSpec,
    seed: int = 0,
    subject_id: str = "s00",
    activity_id: str = "synthetic",
    repeat_index: int = 0,
    is_static: bool = False,
    continuous_truth: bool = False,
) -> Trial:
    """Generate a trial whose reference trajectory is model-consistent.

    The stored acceleration inputs are exactly the ZOH inputs used to build
    the reference (midpoint samples of the continuous acceleration), so the
    oracle profile reproduces the reference bit for bit. Identical arguments
    give identical trials. With continuous_truth the reference is instead
    integrated at dt/100 and decimated, leaving a deliberate O(dt^2)
    mismatch for studying discretization effects.
    """
    n = spec.n_samples
    dt = spec.dt
    times = np.arange(n) * dt
    inputs = _continuous_accel(spec, times[:-1] + 0.5 * dt)
    # measured value at the last sample (never drives a transition)
    inputs = np.vstack([inputs, _continuous_accel(spec, times[-1:] + 0.5 * dt)])

    if spec.initial_position is not None:
        p0 = _vec3_or_scalar(spec.initial_position, "initial_position")
    else:
        p0 = np.zeros(3)
    if spec.initial_velocity is not None:
        v0 = _vec3_or_scalar(spec.initial_velocity, "initial_velocity")
    elif spec.kind == "sinusoid":
        # start on the closed-form orbit: v(t) = -A/w cos(wt), p(t) = -A/w^2 sin(wt)
        v0 = np.array([-spec.amplitude / (2.0 * np.pi * spec.frequency_hz), 0.0, 0.0])
    else:
        v0 = np.zeros(3)

    positions = np.empty((n, 3))
    velocities = np.empty((n, 3))
    if continuous_truth:
        substeps = 100
        fine_dt = dt / substeps
        fine_times = np.arange((n - 1) * substeps) * fine_dt
        fine_accel = _continuous_accel(spec, fine_times + 0.5 * fine_dt)
        p, v = p0.copy(), v0.copy()
        positions[0], velocities[0] = p, v
        for i in range(n - 1):
            for j in range(substeps):
                p, v = zoh_update(p, v, fine_accel[i * substeps + j], fine_dt)
            positions[i + 1], velocities[i + 1] = p, v
    else:
        p, v = p0.copy(), v0.copy()
        positions[0], velocities[0] = p, v
        for i in range(n - 1):
            p, v = zoh_update(p, v, inputs[i], dt)
            positions[i + 1], velocities[i + 1] = p, v

    if spec.noise_amplitude > 0.0:
        rng = np.random.default_rng(seed)
        inputs = inputs + rng.uniform(-spec.noise_amplitude, spec.noise_amplitude, (n, 3))

    return Trial(
        subject_id=subject_id,
        activity_id=activity_id,
        repeat_index=repeat_index,
        is_static=is_static,
        mass=spec.mass,
        dt=dt,
        positions=positions,
        velocities=velocities,
        accel_inputs=inputs,
    )


def constant_discrepancy_spec(
    c, duration: float = 1.0, dt: float = 0.005, mass: float = 70.0
) -> SyntheticSpec:
    """Trial whose true acceleration is the constant c, so the zero profile
    is wrong by exactly c at every step of every horizon."""
    return SyntheticSpec(
        kind="constant_discrepancy", duration=duration, dt=dt, mass=mass, accel=c
    )


def sign_reversal_spec(
    accel_mag: float,
    t_flip: float,
    duration: float = 2.5,
    dt: float = 0.005,
    mass: float = 70.0,
) -> SyntheticSpec:
    """Acceleration +a along X until t_flip, then -a: the motion builds up
    speed and later reverses, so long horizons must predict the turn."""
    if not 0.0 < t_flip < duration:
        raise ValueError(f"t_flip must fall inside the trial, got {t_flip}")
    return SyntheticSpec(
        kind="piecewise_constant",
        duration=duration,
        dt=dt,
        mass=mass,
        segments=((t_flip, accel_mag), (duration - t_flip, -accel_mag)),
    )


# ---------------------------------------------------------------------------
# closed-form expectations for the constant-discrepancy family


def analytic_error(k: int, dt: float, c) -> float:
    """Exact position error at sample k (1-based) of a horizon when the
    assumed acceleration differs from the true one by the constant c.

    Each of the k-1 ZOH steps feeds the discrepancy through the position row
    of the input matrix; the accumulated gap is (k-1)^2/2 * dt^2 * |c|.
    """
    if k < 1:
        raise ValueError(f"sample index must be >= 1, got {k}")
    mag = float(np.linalg.norm(_vec3_or_scalar(c, "c")))
    return 0.5 * (k - 1) ** 2 * dt * dt * mag


def expected_ae(n_samples: int, dt: float, c) -> float:
    """Mean of analytic_error over k = 1..n_samples:
    dt^2 * |c| * (n-1)(2n-1)/12."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    mag = float(np.linalg.norm(_vec3_or_scalar(c, "c")))
    return dt * dt * mag * (n_samples - 1) * (2 * n_samples - 1) / 12.0


def expected_me(n_samples: int, dt: float, c) -> float:
    """Max of analytic_error over a horizon, attained at the last sample."""
    return analytic_error(n_samples, dt, c)


# ---------------------------------------------------------------------------
# desk-scale validation protocol

STATIC_ACTIVITY_SLOTS = (4, 5, 6, 8)  # four low-displacement tasks per session


def protocol_items(
    n_subjects: int = 10,
    n_activities: int = 14,
    n_repeats: int = 3,
    dt: float = 0.005,
):
    """A deterministic multi-subject session for end-to-end validation.

    Returns (subject_id, activity_id, repeat_index, is_static, trial) tuples:
    n_subjects x n_activities x n_repeats trials mixing constant, sinusoid,
    and sign-reversal accelerations, with four static (low-displacement)
    activities per session. All parameters derive from the indices, so two
    calls produce identical data.
    """
    items = []
    for s in range(n_subjects):
        subject_id = f"s{s:02d}"
        mass = 55.0 + 2.5 * s
        for a in range(n_activities):
            activity_id = f"act{a + 1:02d}"
            is_static = a in STATIC_ACTIVITY_SLOTS
            for r in range(n_repeats):
                salt = (7 * s + 3 * a + r) % 5
                duration = 0.8 + 0.1 * salt
                if is_static:
                    spec = SyntheticSpec(
                        kind="sinusoid",
                        duration=duration,
                        dt=dt,
                        mass=mass,
                        amplitude=0.05 + 0.01 * salt,
                        frequency_hz=0.8 + 0.1 * r,
                    )
                else:
                    style = a % 3
                    if style == 0:
                        accel = np.array(
                            [0.6 + 0.1 * salt, -0.2 + 0.05 * r, 0.3 - 0.05 * salt]
                        )
                        spec = SyntheticSpec(
                            kind="constant_acceleration",
                            duration=duration,
                            dt=dt,
                            mass=mass,
                            accel=accel,
                        )
                    elif style == 1:
                        spec = SyntheticSpec(
                            kind="sinusoid",
                            duration=duration,
                            dt=dt,
                            mass=mass,
                            amplitude=0.8 + 0.1 * salt,
                            frequency_hz=0.5 + 0.25 * r,
                        )
                    else:
                        duration = 1.2 + 0.1 * salt
                        spec = sign_reversal_spec(
                            accel_mag=0.9 + 0.1 * salt,
                            t_flip=0.4 + 0.05 * r,
                            duration=duration,
                            dt=dt,
                            mass=mass,
                        )
                trial = make_trial(
                    spec,
                    subject_id=subject_id,
                    activity_id=activity_id,
                    repeat_index=r,
                    is_static=is_static,
                )
                items.append((subject_id, activity_id, r, is_static, trial))
    return items
