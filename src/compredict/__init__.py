"""Center-of-mass trajectory prediction and evaluation.

Forward-integrates exact double-integrator dynamics under assumed
acceleration profiles, sweeps prediction horizons over recorded or
synthetic trials, reduces the results to per-subject error and
direction-accuracy metrics, and fits/compares the metric-vs-horizon trends.
"""

__version__ = "0.1.0"

from .dynamics import grf_to_acceleration
from .metrics import MetricSummary
from .prediction import Trial, sweep_session
from .profiles import HorizonSpec, ProfileKind

__all__ = [
    "__version__",
    "grf_to_acceleration",
    "ProfileKind",
    "HorizonSpec",
    "Trial",
    "sweep_session",
    "MetricSummary",
]
