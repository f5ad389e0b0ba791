"""Discrete-time double-integrator model of the center of mass.

The CoM is treated as a point mass whose acceleration is the net external
force divided by body mass. With the zero-order hold (ZOH) assumption the
discretization is exact, so the state update is written in closed form
instead of going through a matrix exponential:

    p[k+1] = p[k] + dt*v[k] + 0.5*dt**2 * u[k]
    v[k+1] = v[k] + dt*u[k]

Axis convention: X and Z horizontal, Y vertical (against gravity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STANDARD_GRAVITY = 9.81  # m/s^2, configurable in all call sites


def _as_vec3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


@dataclass(frozen=True)
class CoMState:
    """Position and velocity of the point mass, in meters and meters/second."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _as_vec3(self.position, "position"))
        object.__setattr__(self, "velocity", _as_vec3(self.velocity, "velocity"))

    def as_vector(self) -> np.ndarray:
        """Stacked state [px, vx, py, vy, pz, vz] matching the 6x6 model."""
        out = np.empty(6)
        out[0::2] = self.position
        out[1::2] = self.velocity
        return out


@dataclass(frozen=True)
class DiscreteModel:
    """ZOH-discretized double integrator: x[k] = A x[k-1] + B u[k-1].

    State ordering is [px, vx, py, vy, pz, vz]; input is the 3D acceleration.
    A and B are kept for inspection and matrix-based checks; `step` uses the
    equivalent closed-form arithmetic directly.
    """

    dt: float
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)


def discretize(dt: float) -> DiscreteModel:
    """Build the exact ZOH model for sample period dt (seconds).

    The continuous system is nilpotent, so the closed form below is the exact
    matrix exponential: A is identity with dt coupling each position to its
    velocity, and B carries dt^2/2 on position rows and dt on velocity rows.
    """
    if not np.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dt must be a positive finite number, got {dt}")
    A = np.eye(6)
    B = np.zeros((6, 3))
    for axis in range(3):
        A[2 * axis, 2 * axis + 1] = dt
        B[2 * axis, axis] = 0.5 * dt * dt
        B[2 * axis + 1, axis] = dt
    return DiscreteModel(dt=float(dt), A=A, B=B)


def grf_to_acceleration(grf, mass: float, g: float = STANDARD_GRAVITY) -> np.ndarray:
    """Convert ground reaction forces (newtons) to CoM acceleration (m/s^2).

    Y is the vertical axis, so gravity is subtracted there:
    u = (R_x/m, (R_y - m*g)/m, R_z/m). Accepts a single 3-vector or an
    (n, 3) array and preserves the shape.
    """
    if not np.isfinite(mass) or mass <= 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    forces = np.asarray(grf, dtype=float)
    if forces.shape[-1] != 3:
        raise ValueError(f"grf must have 3 components per sample, got shape {forces.shape}")
    accel = forces / mass
    accel[..., 1] -= g
    return accel


def zoh_update(positions, velocities, accelerations, dt: float):
    """One exact ZOH step; broadcasts over any leading array dimensions.

    Single-state stepping and synthetic-trial generation funnel through this
    expression. Horizon sweeps do not: they evaluate the same dynamics in
    closed form (see `prediction._Predictor`), which agrees with stepping
    to rounding error rather than bit for bit.
    """
    new_p = positions + dt * velocities + (0.5 * dt * dt) * accelerations
    new_v = velocities + dt * accelerations
    return new_p, new_v


def step(model: DiscreteModel, x: CoMState, u) -> CoMState:
    """Advance the state one sample under acceleration u (m/s^2)."""
    accel = _as_vec3(u, "u")
    p, v = zoh_update(x.position, x.velocity, accel, model.dt)
    return CoMState(position=p, velocity=v)


def propagate(model: DiscreteModel, x1: CoMState, inputs) -> list[CoMState]:
    """Propagate x1 through a sequence of accelerations.

    With n-1 inputs the result has n states; the first is x1 itself and
    inputs[i] drives the transition from state i+1 to i+2 (the last sample
    of a horizon consumes no input).
    """
    states = [x1]
    for u in inputs:
        states.append(step(model, states[-1], u))
    return states
