"""Discrete-time double-integrator model of the center of mass.

The CoM is treated as a point mass whose acceleration is the net external
force divided by body mass. With the zero-order hold (ZOH) assumption the
discretization is exact, so the sample update is written in closed form
instead of going through a matrix exponential:

    p[k+1] = p[k] + dt*v[k] + 0.5*dt**2 * u[k]
    v[k+1] = v[k] + dt*u[k]

`zoh_update` is that update; the synthetic reference trajectories are built
with it. Horizon sweeps evaluate the same dynamics in closed form instead
(see `prediction._Sweep`).

Axis convention: X and Z horizontal, Y vertical (against gravity).
"""

from __future__ import annotations

import numpy as np

STANDARD_GRAVITY = 9.81  # m/s^2, configurable in all call sites


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
    """One exact ZOH sample update; broadcasts over any leading dimensions.

    `synth.make_trial` builds every synthetic reference trajectory by
    repeating this update. Horizon sweeps do not call it: they evaluate the
    same dynamics in closed form (see `prediction._Sweep`), which agrees
    with repeated updates to rounding error rather than bit for bit.
    """
    new_p = positions + dt * velocities + (0.5 * dt * dt) * accelerations
    new_v = velocities + dt * accelerations
    return new_p, new_v
