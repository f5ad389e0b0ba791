"""Assumed acceleration profiles over a prediction horizon.

Given the measured acceleration u1 at the first sample of a horizon, a
profile is the acceleration u_h[k] assumed to drive the step from sample k
to k+1, for k = 1..n_samples-1:

  zero   -- u_h[k] = 0 (constant-velocity baseline)
  const  -- u_h[k] = u1
  cubic  -- u_h[k] = cubic_decay(n_samples)[k-1] * u1: from u1 to 0 along
            the unique cubic with zero slope at both ends of the horizon
  oracle -- u_h[k] is the measured acceleration at sample k (upper bound on
            what integration of the dynamics can achieve)

No profile is materialised as a sequence: a sweep uses only its position
response, built from these weights in `prediction._input_kernel` (or, for
the oracle, from prefix sums of the recorded inputs). This module holds the
profile names, the horizon geometry and the cubic weights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ProfileKind(str, enum.Enum):
    ZERO = "zero"
    CONST = "const"
    CUBIC = "cubic"
    ORACLE = "oracle"

    @classmethod
    def parse(cls, name: str) -> "ProfileKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown profile {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class HorizonSpec:
    """A prediction window: length in milliseconds, sample period, sample count."""

    horizon_ms: float
    dt: float
    n_samples: int

    def __post_init__(self):
        if self.dt <= 0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_samples < 2:
            raise ValueError(f"a horizon needs at least 2 samples, got {self.n_samples}")

    @classmethod
    def from_duration(cls, horizon_ms: float, dt: float) -> "HorizonSpec":
        """Derive the sample count: n = round(T/dt) + 1, requiring T to be a
        whole number of sample periods (e.g. T=125 ms at dt=5 ms gives 26)
        and n to fit an array index."""
        if dt <= 0 or not np.isfinite(dt):
            raise ValueError(f"dt must be positive, got {dt}")
        if not np.isfinite(horizon_ms):
            raise ValueError(f"horizon must be a finite number of ms, got {horizon_ms}")
        steps = horizon_ms / 1000.0 / dt
        n_steps = round(steps)
        if abs(steps - n_steps) > 1e-9 * max(1.0, abs(steps)):
            raise ValueError(
                f"horizon {horizon_ms} ms is not a whole number of {dt*1000:g} ms samples"
            )
        if n_steps + 1 > np.iinfo(np.intp).max:
            raise ValueError(f"horizon {horizon_ms} ms has more samples than an array can index")
        return cls(horizon_ms=float(horizon_ms), dt=float(dt), n_samples=n_steps + 1)


def cubic_decay(n_samples: int) -> np.ndarray:
    """Weights (1 - 3s^2 + 2s^3) on s = (k-1)/(n-1): 1 at the first sample,
    0 at the last, zero first derivative at both ends, monotone in between."""
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    s = np.arange(n_samples) / (n_samples - 1)
    return 1.0 - 3.0 * s**2 + 2.0 * s**3
