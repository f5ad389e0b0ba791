"""Hierarchical per-subject metrics over per-horizon values.

Four metrics summarize a subject's horizons for one profile and horizon
length:

  average_error       mean error, averaged sample -> horizon -> repeat ->
                      activity (an unweighted mean of means at every level,
                      so activities of different durations weigh equally)
  max_error           worst-case error over everything
  average_direction_accuracy
                      mean of the 0/1 direction scores with the same
                      hierarchy (static activities excluded upstream)
  min_direction_accuracy
                      per-(activity, repeat) mean over horizons, then the
                      minimum over repeats and activities

Inputs are grouped as {activity_id: {repeat_index: 1-D per-horizon values}}:
each horizon's mean error for the average metrics, its max error for
max_error, and its 0/1 score for the direction metrics. The sample level is
reduced by the sweep (`prediction.sweep_session`, or `errors.mean(axis=1)`
and `errors.max(axis=1)` of a `sweep_errors` matrix), so no error matrix
reaches this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

Grouped = Mapping[str, Mapping[int, np.ndarray]]


class AggregationError(ValueError):
    """A grouping level required by a metric is empty."""


def _groups(grouped: Grouped, what: str) -> list[list[np.ndarray]]:
    """Per activity, the per-repeat value arrays, both in sorted key order;
    an empty level raises AggregationError naming it."""
    if not grouped:
        raise AggregationError(f"no activities to aggregate for {what}")
    groups = []
    for activity, repeats in sorted(grouped.items()):
        if not repeats:
            raise AggregationError(f"activity {activity!r} has no repeats ({what})")
        for repeat, horizons in repeats.items():
            if len(horizons) == 0:
                raise AggregationError(
                    f"activity {activity!r} repeat {repeat} has no horizons ({what})"
                )
        groups.append([np.asarray(h, dtype=float) for _, h in sorted(repeats.items())])
    return groups


def _mean_of_means(grouped: Grouped, what: str) -> float:
    """Mean over activities of the mean over repeats of the mean over
    horizons, so every level weighs equally."""
    activity_means = [
        float(np.mean([float(np.mean(v)) for v in repeats])) for repeats in _groups(grouped, what)
    ]
    return float(np.mean(activity_means))


def _pooled_mean(grouped: Grouped, what: str) -> float:
    """Grand mean over every horizon, ignoring the hierarchy."""
    return float(np.mean(np.concatenate([v for repeats in _groups(grouped, what) for v in repeats])))


def average_error(grouped_means: Grouped) -> float:
    """Mean-of-means of per-horizon mean errors up the hierarchy (meters)."""
    return _mean_of_means(grouped_means, "average error")


def max_error(grouped_maxima: Grouped) -> float:
    """Largest per-horizon max error anywhere in the hierarchy (meters)."""
    return max(float(np.max(v)) for repeats in _groups(grouped_maxima, "max error") for v in repeats)


def average_direction_accuracy(grouped_scores: Grouped) -> float:
    """Mean-of-means of direction scores; callers must exclude static
    activities before grouping."""
    return _mean_of_means(grouped_scores, "average direction accuracy")


def min_direction_accuracy(grouped_scores: Grouped) -> float:
    """Worst per-(activity, repeat) mean direction score."""
    groups = _groups(grouped_scores, "min direction accuracy")
    return min(float(np.mean(v)) for repeats in groups for v in repeats)


def pooled_average_error(grouped_means: Grouped) -> float:
    """Grand mean of per-horizon mean errors, ignoring the hierarchy. Every
    horizon of one length has the same number of samples, so this is the
    mean over every sample up to rounding. Offered as a sensitivity check
    next to the default mean-of-means."""
    return _pooled_mean(grouped_means, "pooled average error")


def pooled_average_direction_accuracy(grouped_scores: Grouped) -> float:
    """Grand mean over every score, ignoring the hierarchy."""
    return _pooled_mean(grouped_scores, "pooled average direction accuracy")


@dataclass(frozen=True)
class MetricSummary:
    """Per-subject metric values for one (profile, horizon length)."""

    subject_id: str
    profile: str
    horizon_ms: float
    ae: float
    me: float
    ada: float | None
    mda: float | None


def summarize(
    subject_id: str,
    profile: str,
    horizon_ms: float,
    grouped_means: Grouped,
    grouped_maxima: Grouped,
    grouped_scores: Grouped,
    aggregation: str = "hierarchical",
) -> MetricSummary:
    """Reduce one subject's grouped per-horizon mean errors, max errors and
    direction scores to a MetricSummary.

    grouped_scores must already exclude static activities; passing an empty
    mapping yields ada = mda = None (subject had only static activities for
    this horizon).
    """
    if aggregation == "hierarchical":
        ae = average_error(grouped_means)
        ada = average_direction_accuracy(grouped_scores) if grouped_scores else None
    elif aggregation == "pooled":
        ae = pooled_average_error(grouped_means)
        ada = pooled_average_direction_accuracy(grouped_scores) if grouped_scores else None
    else:
        raise ValueError(f"unknown aggregation mode {aggregation!r}")
    return MetricSummary(
        subject_id=subject_id,
        profile=str(profile),
        horizon_ms=horizon_ms,
        ae=ae,
        me=max_error(grouped_maxima),
        ada=ada,
        mda=min_direction_accuracy(grouped_scores) if grouped_scores else None,
    )
