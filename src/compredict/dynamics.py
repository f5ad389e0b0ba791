"""Discrete-time double-integrator model of the center of mass.

The CoM is treated as a point mass whose acceleration is the net external
force divided by body mass. With the zero-order hold (ZOH) assumption the
discretization is exact, so the sample update is written in closed form
instead of going through a matrix exponential:

    p[k+1] = p[k] + dt*v[k] + 0.5*dt**2 * u[k]
    v[k+1] = v[k] + dt*u[k]

`zoh_trajectory` repeats that update over a whole input sequence as two
sequential `np.cumsum` scans, equal bit for bit to stepping it one sample
at a time; `synth.make_trial` builds every synthetic reference trajectory
with it. Horizon sweeps evaluate the same dynamics in closed form instead
(see `prediction._Sweep`), which agrees with stepped updates to rounding
error rather than bit for bit.

Axis convention: X and Z horizontal, Y vertical (against gravity).
"""

from __future__ import annotations

import numpy as np

STANDARD_GRAVITY = 9.81  # m/s^2, configurable in all call sites
VERTICAL_AXIS = 1  # Y is up


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
    accel[..., VERTICAL_AXIS] -= g
    return accel


def zoh_trajectory(position, velocity, accelerations, dt: float):
    """States after stepping the ZOH update from (position, velocity) once
    per row of accelerations; returns (positions, velocities), each with
    one more row than accelerations and the initial state first.

    np.cumsum adds strictly in sequence, so each velocity is v + dt*u and
    each position is (p + dt*v) + c*u with c = 0.5*dt*dt, in the update's
    own order: the result is equal to stepped updates bit for bit, with no
    Python loop over samples.
    """
    accelerations = np.asarray(accelerations, dtype=float)
    n = len(accelerations)
    steps = np.empty((n + 1,) + accelerations.shape[1:])
    steps[0] = velocity
    steps[1:] = dt * accelerations
    velocities = np.cumsum(steps, axis=0)
    # p0, dt*v[0], c*u[0], dt*v[1], c*u[1], ...: every other partial sum is a position
    steps = np.empty((2 * n + 1,) + accelerations.shape[1:])
    steps[0] = position
    steps[1::2] = dt * velocities[:-1]
    steps[2::2] = (0.5 * dt * dt) * accelerations
    return np.cumsum(steps, axis=0)[::2].copy(), velocities
