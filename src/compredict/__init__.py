"""Center-of-mass trajectory prediction and evaluation.

Forward-integrates exact double-integrator dynamics under assumed
acceleration profiles, sweeps prediction horizons over recorded or
synthetic trials, reduces the results to per-subject error and
direction-accuracy metrics, and fits/compares the metric-vs-horizon trends.
"""

__version__ = "0.1.0"

from .dynamics import (
    CoMState,
    DiscreteModel,
    discretize,
    grf_to_acceleration,
    propagate,
    step,
)
from .metrics import MetricSummary
from .prediction import Trial, sweep_errors
from .profiles import HorizonSpec, ProfileKind, generate_profile

__all__ = [
    "__version__",
    "CoMState",
    "DiscreteModel",
    "discretize",
    "grf_to_acceleration",
    "step",
    "propagate",
    "ProfileKind",
    "HorizonSpec",
    "generate_profile",
    "Trial",
    "sweep_errors",
    "MetricSummary",
]
